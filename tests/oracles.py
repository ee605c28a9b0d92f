"""Independent oracles that only the tests read.

Each builds a quantity by a route that shares no code with the library
route it checks:

  * `monomial_sym` and `dominance_leq`: the monomial basis and the
    dominance order, against which `hall_littlewood.hl_P` and the
    omega-dual `skew_Q_omega` are monic and unitriangular;
  * `periodic_hamiltonian` and `open_hamiltonian`: single boson hops,
    the degree-one blocks of `lattice.periodic_transfer` and
    `lattice.open_transfer`;
  * `spin_periodic_transfer_cleared` (on `chain_basis`): the traced
    spin-s Lax monodromy, against `periodic_transfer` at s = 0 and the
    column weights of `bethe.spin_transfer_column`;
  * `site_null_vector_check` (with `null_psi`): the per-site
    triangularity of the gauge-transformed Toda Lax matrix on the
    window operators `lattice.toda_shift_op` and `lattice.toda_x_op`, a
    relation of the paper that no suite checks.
"""

from fractions import Fraction
from itertools import permutations, product

from integrable_lab.graded import GradedOperator, SparseMatrix, mismatch_items, vector_mismatches
from integrable_lab.lattice import build_lax, monodromy, toda_shift_op, toda_x_op
from integrable_lab.partitions import (
    Basis,
    occupation_basis,
    occupation_to_partition,
    partition,
    partition_to_occupation,
    weight,
)
from integrable_lab.scalars import ONE, as_scalar, tbinom


# ---------------------------------------------------------------------------
# the monomial basis

def monomial_sym(lam, values) -> Fraction:
    """Monomial symmetric polynomial m_lam at a rational alphabet."""
    lam = partition(lam)
    values = [as_scalar(v) for v in values]
    if len(lam) > len(values):
        return Fraction(0)
    exps = tuple(lam) + (0,) * (len(values) - len(lam))
    total = Fraction(0)
    for perm in set(permutations(exps)):
        term = ONE
        for v, e in zip(values, perm):
            term *= v ** e
        total += term
    return total


def dominance_leq(mu, lam) -> bool:
    """mu <= lam in dominance order (same weight; partial sums compared)."""
    mu, lam = partition(mu), partition(lam)
    if weight(mu) != weight(lam):
        return False
    acc_m = acc_l = 0
    for i in range(max(len(mu), len(lam))):
        acc_m += mu[i] if i < len(mu) else 0
        acc_l += lam[i] if i < len(lam) else 0
        if acc_m > acc_l:
            return False
    return True


# ---------------------------------------------------------------------------
# single hops: the degree-one transfer blocks

def periodic_hamiltonian(N: int, n: int, x, t) -> SparseMatrix:
    """Right-mover H: sum of single hops k -> k+1, seam twisted."""
    t, x = as_scalar(t), as_scalar(x)
    basis = occupation_basis(N, n)

    def entries():
        for j, m in enumerate(basis.states):
            for k in range(N):
                if m[k] == 0:
                    continue
                occ = list(m)
                occ[k] -= 1
                occ[(k + 1) % N] += 1
                amp = (ONE - t ** m[k]) * (x if k == N - 1 else ONE)
                yield basis.index[tuple(occ)], j, amp

    return SparseMatrix.from_entries(len(basis), entries())


def open_hamiltonian(basis: Basis, N: int, t) -> SparseMatrix:
    """S_1 + sum_{k} S_{k+1} Sbar_k, built directly from single hops."""
    t = as_scalar(t)

    def entries():
        for j, lam in enumerate(basis.states):
            m = partition_to_occupation(lam, N)
            occ = list(m)
            occ[0] += 1
            target = occupation_to_partition(occ)
            if target in basis.index:
                yield basis.index[target], j, ONE
            for k in range(N - 1):
                if m[k] == 0:
                    continue
                occ = list(m)
                occ[k] -= 1
                occ[k + 1] += 1
                target = occupation_to_partition(occ)
                if target in basis.index:
                    yield basis.index[target], j, ONE - t ** m[k]

    return SparseMatrix.from_entries(len(basis), entries())


# ---------------------------------------------------------------------------
# spin-s periodic transfer via the cleared monodromy

def chain_basis(N: int, total_cap: int) -> Basis:
    """Occupation tuples (m_1..m_N) with particle number <= total_cap."""
    states = [m for m in product(range(total_cap + 1), repeat=N) if sum(m) <= total_cap]
    states.sort(reverse=True)
    return Basis(states, kind="occupation")


def spin_periodic_transfer_cleared(N: int, M: int, X, t, s) -> GradedOperator:
    """(1 + z s)^N Lambda^s_{N,X}(z) on the M-particle sector, via the
    cleared spin Lax monodromy trace; exact, no truncation (particle
    number is conserved)."""
    t, s, X = as_scalar(t), as_scalar(s), as_scalar(X)
    # monodromy intermediates carry one extra or one missing particle
    big = chain_basis(N, M + 1)
    # folded on every column; each factor is built on the whole basis, `sources` unread
    T = monodromy([lambda sources, site=site: build_lax("spin_s", big,
                                                        {"t": t, "s": s, "site": site})
                   for site in range(1, N + 1)], N)
    traced = T[0][0].add(T[1][1].scale(X))
    sector = occupation_basis(N, M)
    return traced.restrict({big.index[m]: j for j, m in enumerate(sector.states)},
                           len(sector), N)


# ---------------------------------------------------------------------------
# the per-site null vector of the gauge-transformed Lax matrix

def null_psi(a: int, b: int, c: int, z, t) -> Fraction:
    """Null-vector component z^{b-c} * binom(a-c, a-b)_t, for a >= b >= c."""
    if not a >= b >= c:
        raise ValueError(f"need a >= b >= c, got {(a, b, c)}")
    z = as_scalar(z)
    return z ** (b - c) * tbinom(a - c, a - b, as_scalar(t))


def site_null_vector_check(a: int, c: int, z, t):
    """Per-site triangularity of the gauge-transformed Lax matrix.

    On the spin window b in [c, a] (x = t^b diagonal, X the raise), with
    Psi(w) the null vector of components null_psi(a, b, c, w):

        L'_12 Psi(-z)   = 0
        L'_11 Psi(-z)   = Psi(-tz)
        L'_22 Psi(-z)   = z X Psi(-z/t)

    Each L' is a sparse matrix applied to the vector.  Returns (ok,
    failures), naming the relation and the spin b.
    """
    z, t = as_scalar(z), as_scalar(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    win = Basis([(b,) for b in range(c, a + 1)], kind="window")
    X, x, xinv = toda_shift_op(win, [1], +1), toda_x_op(win, 1, t), toda_x_op(win, 1, t, -1)
    I = SparseMatrix.identity(len(win))
    tc = t ** c

    def psi(w):
        return {j: null_psi(a, b, c, w, t) for j, (b,) in enumerate(win.states)}

    hop = X.mul(I.add(xinv.scale(-t ** a)))  # X (1 - t^a x^{-1})
    L12 = x.add(I.scale(-tc)).add(hop.scale(-tc * z))
    L11 = I.add(hop.scale(z))
    L22 = X.mul(xinv).scale(tc * z)
    v0 = psi(-z)
    checks = (("null", L12, {}), ("upper", L11, psi(-t * z)),
              ("lower", L22, X.scale(z).apply(psi(-z / t))))
    failures = [item for relation, op, want in checks
                for j, lhs, rhs in vector_mismatches(op.apply(v0), want)
                for item in mismatch_items([(lhs, rhs)], None, relation=relation,
                                           b=win.states[j][0])]
    return not failures, failures
