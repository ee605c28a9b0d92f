"""Walk through the periodic transfer matrix and its Baxter Q partner.

Builds the smallest nontrivial pair (two sites, two bosons), prints both
3x3 matrices degree by degree, and verifies the TQ relation and the
commutation structure exactly.  The builders take the sector's basis,
enumerated once; the checks take the sizes (N, n).
"""

from fractions import Fraction as F

from integrable_lab import (
    build_qmatrix,
    commutator_items,
    occupation_basis,
    periodic_transfer,
    tq_check,
)
from integrable_lab.scalars import format_scalar

t, x = F(2, 7), F(3, 5)
N, n = 2, 2

basis = occupation_basis(N, n)
print(f"sector: {N} sites, {n} bosons; states {basis.labels()}")
print(f"parameters t = {t}, twist x = {x}\n")

lam = periodic_transfer(basis, x, t)
q = build_qmatrix(basis, x, t)

for name, op in [("transfer matrix", lam), ("Q-matrix", q)]:
    print(f"{name}, coefficient of z^k (rows are targets):")
    for k in op.degrees():
        rows = [[format_scalar(op.block(k).entry(r, c)) for c in range(len(basis))]
                for r in range(len(basis))]
        print(f"  z^{k}: {rows}")
    print()

ok, _ = tq_check(N, n, x, t, 0)
print("TQ relation  Lambda(z) q(z) = q(tz) + x z^N t^n q(z/t):",
      "holds exactly" if ok else "FAILS")
# each commutator lists the entries where A B and B A differ: none; it is
# decided on a random projection drawn from the seed passed (here 0), as the
# TQ relation above is
print("[Lambda(z1), q(z2)] = 0:", commutator_items(lam, q, range(q.dim), basis, 0) == [])
print("[q(z1), q(z2)] = 0:   ", commutator_items(q, q, range(q.dim), basis, 0) == [])

print("\nLarger sectors (graded, exact):")
for (NN, nn) in [(3, 2), (3, 3), (4, 2)]:
    ok, _ = tq_check(NN, nn, x, t, 0)
    sector = occupation_basis(NN, nn)
    commute = commutator_items(periodic_transfer(sector, x, t), build_qmatrix(sector, x, t),
                               range(len(sector)), sector, 0) == []
    print(f"  N={NN}, n={nn}: TQ {'ok' if ok else 'FAIL'}, commute {commute}")
