"""Bethe roots, residuals, and the spin-independent scalar product.

Floating point appears only in the root solver; every other statement
here is exact rational arithmetic, including the staircase identity that
certifies the ansatz amplitudes without imposing quantization.
"""

from fractions import Fraction as F

from integrable_lab import bethe_solve, gaudin_det, gaudin_sum
from integrable_lab.bethe import interior_staircase_check, periodic_eigen_residual
from integrable_lab.gaudin import lascoux_reduction_check
from integrable_lab.scalars import format_scalar

t, s, z = F(2, 7), F(1, 6), F(3, 4)

print("quantization-free staircase identity (exact, generic parameters):")
for (mu, N, us) in [((4, 1), 6, [F(5, 3), F(-7, 4)]),
                    ((5, 3, 1), 7, [F(5, 3), F(-7, 4), F(9, 5)])]:
    ok, _ = interior_staircase_check(mu, N, us, t, s, z)
    print(f"  column mu = {list(mu)}, chain length {N}: {'exact' if ok else 'FAIL'}")

print("\nperiodic roots, 3 sites, 2 particles (t = 1/3, twist 1):")
system = bethe_solve(3, 2, F(1, 3), F(0), F(1), seeds=40, seed=7)
for root, res in zip(system.roots, system.residuals):
    pretty = ", ".join(f"{u.real:+.6f}{u.imag:+.6f}i" for u in root)
    print(f"  ({pretty})   equation residual {res:.1e}")
print("eigen residual over all distinct columns:",
      f"{periodic_eigen_residual(system, complex(0.37)):.1e}")

print("\nhalf-line scalar product vs the determinant, two spin values:")
U, V = [F(1, 3), F(1, 5)], [F(1, 2), F(1, 7)]
det = gaudin_det(2, U, V, t)
print("  determinant value:", format_scalar(det))
for spin in (F(0), F(1, 6)):
    val, tail = gaudin_sum(2, U, V, t, spin, truncation=60)
    gap = abs(val - det)
    print(f"  spin {spin}: truncated sum within {float(tail):.1e} of it"
          f" (actual gap {float(gap):.1e})")

print("\nshift-operator reduction of the kernel (exact):")
for n in (1, 2, 3):
    ok, failures = lascoux_reduction_check(n, [F(1, 3), F(2, 5), F(3, 8)][:n],
                                           [F(1, 2), F(3, 7), F(1, 5)][:n], t)
    print(f"  n = {n}: {'exact' if ok else f'FAIL {failures}'}")
