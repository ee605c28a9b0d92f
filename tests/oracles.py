"""Independent oracles that only the tests read.

Each builds a quantity by a route that shares no code with the library
route it checks:

  * `monomial_sym` and `dominance_leq`: the monomial basis and the
    dominance order, against which `hall_littlewood.hl_P` and the
    omega-dual `skew_Q_omega` are monic and unitriangular;
  * `periodic_hamiltonian` and `open_hamiltonian`: single boson hops,
    the degree-one blocks of `lattice.periodic_transfer` and
    `lattice.open_transfer`;
  * `literal_transfer`: the subset expansion of `periodic_transfer`
    one subset at a time, targets found by occupation tuple, against the
    builder's run-start classes on integer codes;
  * `literal_trace_qmatrix`: the auxiliary-spin trace summed in
    Fractions, one `add_to` per traced path, against
    `baxter_q.trace_qmatrix`, which sums on integers;
  * `spin_periodic_transfer_cleared` (on `chain_basis`): the traced
    spin-s Lax monodromy, against `periodic_transfer` at s = 0 and the
    column weights of `bethe.spin_transfer_column`;
  * `site_null_vector_check` (with `null_psi`): the per-site
    triangularity of the gauge-transformed Toda Lax matrix on the
    window operators `lattice.toda_shift_op` and `lattice.toda_x_op`, a
    relation of the paper that no suite checks;
  * `translation_representatives`: one state per orbit of the rotation,
    read from the states' rotations, against the orbit representatives
    of `lattice.translation_orbits`;
  * `intertwine_factors`: R(z/u), L^Toda(z) and Ltilde(z) of the Toda
    intertwining as matrices, R made by products of the window
    operators, against which `baxter_q.toda_intertwine_check`'s failure
    items are recomputed.
"""

from fractions import Fraction
from itertools import permutations, product
from operator import add

from integrable_lab.baxter_q import build_LL
from integrable_lab.graded import GradedOperator, SparseMatrix, mismatch_items, vector_mismatches
from integrable_lab.lattice import build_lax, monodromy, toda_lax, toda_shift_op, toda_x_op
from integrable_lab.partitions import (
    Basis,
    occupation_basis,
    occupation_to_partition,
    partition,
    partition_to_occupation,
    sector_sizes,
    state_norm,
    weight,
)
from integrable_lab.scalars import ONE, ZERO, TTable, as_scalar, reject_singular_t, tbinom


# ---------------------------------------------------------------------------
# orbits of the one-step translation

def translation_representatives(N: int, n: int) -> list:
    """Indices of `occupation_basis(N, n)` whose state has no rotation at
    a smaller index: the least index of each orbit of the translation."""
    basis = occupation_basis(N, n)
    return [j for j, m in enumerate(basis.states)
            if all(basis.index[m[k:] + m[:k]] >= j for k in range(N))]


def intertwine_factors(windows, z, u, t):
    """(R, L^Toda, Ltilde) of R(z/u) L^Toda(z) LL(u) = LL(u) Ltilde(z) R(z/u)
    on windows = `baxter_q.spin_windows(cap, t)`, each a 2x2 list of
    matrices: R(z/u) = [[1 + (z/u) S, s], [-s^-1 (1 - S), -1]] by products,
    and L^Toda, Ltilde as `lattice.toda_lax` on the second label, at z."""
    _, pair, _, S, sdiag, sinv = windows
    I = SparseMatrix.identity(len(pair))
    R = [[I.add(S.scale(as_scalar(z) / as_scalar(u))), sdiag],
         [sinv.mul(I.add(S.scale(-1))).scale(-1), I.scale(-1)]]
    L_toda, L_tilde = ([[entry.eval_at(z) for entry in row] for row in toda_lax(kind, pair, 2, t)]
                       for kind in ("toda", "toda_tilde"))
    return R, L_toda, L_tilde


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
# the literal subset expansion of the periodic transfer matrix

def literal_transfer(basis: Basis, x, t) -> GradedOperator:
    """`lattice.periodic_transfer` as the subset expansion it sums, one
    subset at a time: each subset of chosen bonds moves one boson across
    every chosen bond (site k gains c_{k-1} - c_k), weighs 1 - t^{m_k} at
    each run start (bond k chosen, bond k - 1 not) and x on the seam, and
    finds its target by its occupation tuple."""
    t, x = as_scalar(t), as_scalar(x)
    N, n = sector_sizes(basis)
    one_minus = TTable(t).one_minus
    ratio = [one_minus[m].as_integer_ratio() for m in range(n + 1)]
    xn, xd = x.as_integer_ratio()
    subsets = []  # (degree, gain per site, run starts, seam chosen)
    for bits in range(2 ** N):
        c = [bits >> k & 1 for k in range(N)]
        gain = [c[k - 1] - c[k] for k in range(N)]  # c[-1] is the seam
        subsets.append((sum(c), gain, [k for k in range(N) if gain[k] < 0], c[-1]))

    def entries():
        for j, m in enumerate(basis.states):
            for degree, gain, starts, seam in subsets:
                num = den = 1
                for k in starts:
                    p, q = ratio[m[k]]
                    num *= p
                    den *= q
                if num:  # an empty run start weighs 0 and would go negative
                    if seam:
                        num *= xn
                        den *= xd
                    yield degree, basis.index[tuple(map(add, m, gain))], j, num, den

    return GradedOperator.from_ratios(len(basis), entries(), N)


# ---------------------------------------------------------------------------
# the auxiliary-spin trace in Fractions

def literal_trace_qmatrix(N: int, n: int, z, x, t) -> GradedOperator:
    """`baxter_q.trace_qmatrix` as it sums in Fractions: the auxiliary
    Lax operator LL(-1/z) read entry by entry, each amplitude of the sweep
    a Fraction, and one `add_to` per traced path with its twist
    x ** delta, then the product with the state norms."""
    z, x, t = as_scalar(z), as_scalar(x), as_scalar(t)
    if z == 0:
        raise ValueError("sample z must be nonzero")
    reject_singular_t(t, max(2 * n, 1))  # the spin labels reach 2n
    # LL(u) at u = -1/z (its monomial base 1/u is -z) as steps (s label,
    # site label) -> [(new s label, value)], the site taking the old s label
    side = 2 * n + 1
    steps = {}
    for r, c, v in build_LL(-ONE / z, t, 2 * n, 2 * n).entries():
        steps.setdefault(divmod(c, side), []).append((r // side, v))
    basis = occupation_basis(N, n)
    dim = len(basis)
    out = SparseMatrix(dim)
    for j, m in enumerate(basis.states):
        rev = tuple(reversed(m))
        # canonical site labels: nu_k = sum_{l >= k} rev_l, nu_1 = n
        labels = [0] * (N + 2)
        for k in range(N, 0, -1):
            labels[k] = labels[k + 1] + rev[k - 1]
        # superposition over (s_label, site labels); apply LL_N .. LL_1
        start = {(a - n, tuple(labels[1:N + 1]), a): ONE for a in range(n, 2 * n + 1)}
        for k in range(N, 0, -1):
            nxt = {}
            for (s_label, sites, a), amp in start.items():
                new_sites = sites[:k - 1] + (s_label,) + sites[k:]
                for ms, v in steps.get((s_label, sites[k - 1]), ()):
                    key = (ms, new_sites, a)
                    nxt[key] = nxt.get(key, ZERO) + amp * v
            start = nxt
        for (s_label, sites, a), amp in start.items():
            if s_label != a:
                continue  # trace
            delta = n - sites[0]
            if delta < 0:
                continue
            shifted = [v + delta for v in sites]
            rev_target = tuple(shifted[k] - shifted[k + 1] for k in range(N - 1)) + (shifted[N - 1],)
            target = tuple(reversed(rev_target))
            if target not in basis.index:
                continue
            out.add_to(basis.index[target], j, amp * x ** delta)
    # multiply back the state norms: column j times the norm of its source
    norms = SparseMatrix.from_state_map(
        basis, lambda m: (m, state_norm(occupation_to_partition(m), t)))
    return GradedOperator(dim, {0: out.mul(norms)}, max_degree=0)


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
