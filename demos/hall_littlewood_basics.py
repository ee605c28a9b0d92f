"""Evaluate Hall-Littlewood polynomials three ways and check the rules.

The symmetrized permutation sum, the zero-padded similarity form and the
strip tableau sums all agree at rational points; the Pieri rule and the
Cauchy identity are then verified exactly, degree by degree.
"""

from fractions import Fraction as F

from integrable_lab import (
    cauchy_coeff_check,
    complete_q_coeffs,
    hl_P,
    hl_Q,
    hl_R,
    pieri_coeff,
    skew_P,
)
from integrable_lab.partitions import horizontal_strips_above, partition_basis, weight
from integrable_lab.scalars import format_scalar

t = F(1, 5)
V = [F(1, 2), F(1, 3), F(2, 7)]

print("alphabet", [format_scalar(v) for v in V], "t =", t, "\n")

for lam in [(1,), (2,), (2, 1), (3, 1)]:
    p = hl_P(lam, V, t)
    q = hl_Q(lam, V, t)
    tab = skew_P(lam, (), V, t)
    print(f"P_{list(lam)} = {format_scalar(p)}   Q = {format_scalar(q)}   "
          f"tableau route agrees: {tab == p}")

print("\none-row checks: R_(1,0) on two letters is the power sum")
print("  R =", format_scalar(hl_R((1, 0), [F(2), F(3)], t)), "(expect 5)")

print("\nPieri rule q_r Q_mu = sum psi Q_lam, weights <= 4, r <= 2:")
series = complete_q_coeffs(V, t, 2)
all_ok = True
for mu in partition_basis(4):
    for r in (1, 2):
        lhs = series[r] * hl_Q(mu, V, t)
        rhs = sum((pieri_coeff("psi", lam, mu, t) * hl_Q(lam, V, t)
                   for lam in horizontal_strips_above(mu, r)
                   if weight(lam) - weight(mu) == r), F(0))
        all_ok = all_ok and lhs == rhs
print("  exact:", all_ok)

print("\nCauchy identity through degree 5 (independent series expansion):")
ok, failures = cauchy_coeff_check(5, V, [F(1, 4), F(2, 5), F(3, 8)], t, kind="cauchy")
print("  every degree matches:", ok if ok else f"FAIL {failures}")
ok, failures = cauchy_coeff_check(4, V, [F(1, 4), F(2, 5), F(3, 8)], t, kind="dual")
print("dual version:", ok if ok else f"FAIL {failures}")
