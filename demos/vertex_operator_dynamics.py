"""The two half vertex operator families on a truncated partition space.

The lowering family creates right-hopping bosons (horizontal strips),
the raising family annihilates left-hopping ones; their conjugate pair
does the same on the transposed shapes.  This script shows the graded
matrix elements, the exchange factors, and the eigenstate structure that
encodes both Pieri rules.
"""

from fractions import Fraction as F

from integrable_lab import build_eigenstate, build_gamma, partition_basis
from integrable_lab.vertex_ops import (
    commutation_series,
    covector_pieri_check,
    gamma_commutation_check,
    gamma_eigen_check,
)
from integrable_lab.scalars import format_scalar, tfact

t = F(2, 7)
basis = partition_basis(8)
print(f"weight-capped basis: {len(basis)} partitions, |lam| <= 8, t = {t}\n")

minus = build_gamma("L", "-", basis, t)
print("lowering operator, degree-1 block entries out of the vacuum and [1]:")
for lam in [(1,), (2,), (1, 1)]:
    for mu in [(), (1,)]:
        v = minus.block(1).entry(basis.index[lam], basis.index.get(mu, 0))
        if v:
            print(f"  <{list(lam)}| z^1 |{list(mu)}> = {format_scalar(v)}")

print("\nexchange factors K_r (raising past lowering):")
for pair in [("L", "L"), ("L", "R"), ("R", "R")]:
    K = commutation_series(pair[0], pair[1], t, 4)
    print(f"  {pair[0]} past {pair[1]}:", [format_scalar(k) for k in K])

print("\nbigraded exchange check through total degree 3:")
for fp, fm in [("L", "L"), ("L", "R"), ("R", "L"), ("R", "R")]:
    # decided on a random projection drawn from seed 0
    ok, _ = gamma_commutation_check(build_gamma(fp, "+", basis, t),
                                    build_gamma(fm, "-", basis, t), 3, 0)
    print(f"  {fp}+ / {fm}-: {'exact' if ok else 'FAIL'}")

V = [F(1, 2), F(1, 3)]
print("\neigenstates for the alphabet", [format_scalar(v) for v in V])
v1 = F(1, 2)
state_R = build_eigenstate("R", [v1], basis, t)
print("dual-family state, components on single columns"
      " (v^k over the t-factorial):")
for k in range(1, 5):
    comp = state_R[basis.index[(1,) * k]]
    matches = comp == v1 ** k / tfact(k, t)
    print(f"  on 1^{k}: {format_scalar(comp)}   equals v^{k}/{k}!_t: {matches}")

plus = build_gamma("L", "+", basis, t)
ok1, _ = gamma_eigen_check(plus, "L", V, 3, build_eigenstate("L", V, basis, t))
ok2, _ = gamma_eigen_check(plus, "R", V, 3, build_eigenstate("R", V, basis, t))
ok3, _ = covector_pieri_check(minus, V, 3)
print("\nannihilation on the Cauchy state (complete-symmetric eigenvalue):", ok1)
print("annihilation on the dual state (elementary eigenvalue / open Toda):", ok2)
print("left covector relation (the Pieri rule in matrix form):", ok3)
