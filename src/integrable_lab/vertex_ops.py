"""Half vertex operators on weight-truncated partition bases.

Two families act on the semi-infinite chain: the L family moves bosons
horizontally (matrix elements psi/phi on horizontal strips), the R
family moves the conjugate spins (psi'/phi' on vertical strips).
Lowering operators (sign -) raise the weight by their degree; raising
operators (sign +) lower it, with powers of 1/z stored as a positive
grading.

Matrix elements are the Pieri coefficients, read from one
`hall_littlewood.PieriTable` per build (each basis state's conjugate and
multiplicities computed once, one t-table, one product per factor
signature) and handed to the block as integer (numerator, denominator)
pairs.  The |L,V> states and <U| covectors the operators are checked on
come from the symmetrized sums (`Alphabet`), which stay on the literal
t-factorials.

Truncation discipline: an identity of graded degree d is asserted only
on matrix elements whose intermediate states provably stay inside the
basis (the interior-window rule).  Raising operators never leak, so
their products are exact everywhere; lowering operators leak at the top
and get the window restriction: window b holds the sources mu with
|mu| + b <= cap.  Products are formed on the window's columns only, as
(A B)[:, W] = A (B[:, W]): the rightmost factor of every product is
restricted to the compared columns once per (block, window) and check,
and each side is still built from its own operators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial

from .graded import (
    GradedOperator,
    SparseMatrix,
    graded_items,
    mismatch_items,
    sum_of_scaled_products,
    vector_mismatches,
)
from .hall_littlewood import (
    Alphabet,
    PieriTable,
    elementary_e_coeffs,
    complete_q_coeffs,
    skew_Q_omega_sweep,
)
from .partitions import (
    Basis,
    horizontal_strips_above,
    state_norm,
    vertical_strips_above,
    weight,
)
from .scalars import ONE, ZERO, TTable, as_scalar, reject_singular_t


class VertexOp:
    """A graded half vertex operator bound to its basis."""

    def __init__(self, family: str, sign: str, basis: Basis, t, op: GradedOperator):
        self.family = family
        self.sign = sign
        self.basis = basis
        self.t = as_scalar(t)
        self.op = op
        cap = max((weight(s) for s in basis), default=0)
        self.weight_cap = cap

    def block(self, k: int) -> SparseMatrix:
        return self.op.block(k)

    def __repr__(self):
        return f"VertexOp(Gamma_{{{self.family},{self.sign}}}, dim={len(self.basis)})"


def build_gamma(family: str, sign: str, basis: Basis, t) -> VertexOp:
    """Construct Gamma_{family,sign} on a weight-capped partition basis.

    Degree-k blocks: lowering operators connect |mu> -> |lam| = |mu|+k
    with weights psi (L) or phi' (R); raising operators connect
    |lam> -> |mu| = |lam|-k with weights phi (L) or psi' (R).  Each
    basis state's conjugate and multiplicities are read once, and every
    weight is a product of lookups in one t-table.
    """
    if family not in ("L", "R") or sign not in ("+", "-"):
        raise ValueError("family must be L|R and sign +|-")
    t = as_scalar(t)
    if family == "R":
        # psi', phi' divide by k!_t, k <= a part multiplicity of a basis state <= its length
        reject_singular_t(t, max(map(len, basis), default=0))
    dim = len(basis)
    cap = max((weight(s) for s in basis), default=0)
    strips = horizontal_strips_above if family == "L" else vertical_strips_above
    kind = {("L", "-"): "psi", ("L", "+"): "phi", ("R", "-"): "phi'", ("R", "+"): "psi'"}[family, sign]
    coeff = partial(PieriTable(t).coeff, kind)
    weights = [weight(s) for s in basis.states]

    def entries():
        for j, mu in enumerate(basis.states):
            for lam in strips(mu, cap - weights[j]):
                i = basis.index.get(lam)
                if i is None:
                    continue
                k = weights[i] - weights[j]
                c = coeff(lam, mu)
                if sign == "-":
                    yield k, i, j, c.numerator, c.denominator
                else:
                    # raising: matrix element (mu <- lam)
                    yield k, j, i, c.numerator, c.denominator

    op = GradedOperator.from_ratios(dim, entries(), cap)
    return VertexOp(family, sign, basis, t, op)


# ---------------------------------------------------------------------------
# commutation factors

def commutation_series(fam_plus: str, fam_minus: str, t, max_r: int):
    """Coefficients K_r of the scalar factor in Gamma_+(u) Gamma_-(v) reordering.

    LL: (1 - t w)/(1 - w) -> K_r = (1-t) for r >= 1
    mixed: 1 + w           -> K_1 = 1, else 0
    RR: prod_k 1/(1 - t^k w) type expansion -> K_r = 1/r!_t
    with w = v/u tracked by the bigrading.
    """
    t = as_scalar(t)
    fact = TTable(t).fact
    out = [ONE]
    for r in range(1, max_r + 1):
        if fam_plus == fam_minus == "L":
            out.append(ONE - t)
        elif fam_plus == fam_minus == "R":
            out.append(ONE / fact[r])
        else:
            out.append(ONE if r == 1 else ZERO)
    return out


def gamma_commutation_check(plus: VertexOp, minus: VertexOp, max_degree: int):
    """Bigraded check of Gamma_+(u) Gamma_-(v) = K(v/u) Gamma_-(v) Gamma_+(u).

    Compares blocks A_a B_b against sum_r K_r B_{b-r} A_{a-r} for all
    a + b <= max_degree, on matrix elements whose source weight keeps the
    lowering intermediate inside the basis.  Returns (ok, failures).
    """
    if ((plus.sign, minus.sign) != ("+", "-") or plus.t != minus.t
            or plus.basis.states != minus.basis.states):
        raise ValueError("exchange checks take a Gamma_+ and a Gamma_- on one basis at one t")
    K = commutation_series(plus.family, minus.family, plus.t, max_degree)
    # sources whose lowering intermediate of degree b would leak are outside window b
    windows, kept = _windows(plus, lambda w, b: w + b <= plus.weight_cap, max_degree)
    failures = []
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            lhs = plus.block(a).mul(kept(minus, b, b))
            rhs = sum_of_scaled_products((K[r], minus.block(b - r), kept(plus, a - r, b))
                                         for r in range(min(a, b) + 1))
            failures += mismatch_items(lhs.mismatches(rhs, windows[b]), plus.basis,
                                       bidegree=(a, b))
    return not failures, failures


def pair_commutation_check(vop: VertexOp, max_degree: int):
    """[Gamma_s(z), Gamma_s(z')] = 0: all block pairs commute on the window
    (only a < b is visited: (b, a) is (a, b) swapped, (a, a) trivial).
    Returns (ok, failures), the entry of A_a A_b as `lhs` and of A_b A_a
    as `rhs`."""
    windows, kept = _windows(vop, lambda w, b: vop.sign == "+" or w + b <= vop.weight_cap,
                             max_degree)
    failures = []
    for a in range(max_degree + 1):
        for b in range(a + 1, max_degree + 1):
            lhs = vop.block(a).mul(kept(vop, b, b))
            rhs = vop.block(b).mul(kept(vop, a, b))
            failures += mismatch_items(lhs.mismatches(rhs, windows[b]), vop.basis,
                                       bidegree=(a, b))
    return not failures, failures


def _windows(vop: VertexOp, inside, max_degree: int):
    """(windows, kept): window b <= max_degree lists the source indices j
    with inside(|mu_j|, b); kept(op, k, b) is block k of op on the columns
    of window b only, made once and ending every product compared there,
    as (A B)[:, W] = A (B[:, W])."""
    weights = [weight(mu) for mu in vop.basis.states]
    windows = [[j for j, w in enumerate(weights) if inside(w, b)] for b in range(max_degree + 1)]
    sets = [set(w) for w in windows]
    return windows, cache(lambda op, k, b: op.block(k).keep_columns(sets[b]))


# ---------------------------------------------------------------------------
# eigenstates

def build_eigenstate(kind: str, values, basis: Basis, t) -> dict:
    """|L,V> has components P_lam(V); |R,V> has components Q^omega_{lam'}(V).

    One alphabet table (L) or one strip sweep up to the basis weight cap
    (R) serves every component.
    """
    t = as_scalar(t)
    values = [as_scalar(v) for v in values]
    if kind == "L":
        component = Alphabet(values, t).P
    elif kind == "R":
        cap = max((weight(s) for s in basis), default=0)
        components = skew_Q_omega_sweep((), values, t, cap)

        def component(lam):
            return components.get(lam, ZERO)
    else:
        raise ValueError("state kind must be L|R")
    return _nonzero_components(component, basis)


def build_eigencovector(values, basis: Basis, t) -> dict:
    """<U| dual components Q_lam(U) (on the normalized dual basis)."""
    return _nonzero_components(Alphabet(values, t).Q, basis)


def _nonzero_components(component, basis: Basis) -> dict:
    out = {}
    for j, lam in enumerate(basis.states):
        c = component(lam)
        if c != 0:
            out[j] = c
    return out


def gamma_eigen_check(vop: VertexOp, state_kind: str, values, max_degree: int, state: dict):
    """Check Gamma_+ |state> = (series) |state> degree by degree.

    Eigenvalue series: Omega_t(z V) for Gamma_{L,+} on |L,V>; the
    elementary-symmetric series prod(1 + v/z) for Gamma_{L,+} on |R,V>
    and for Gamma_{R,+} on |L,V>.
    Components are compared on weights <= cap - 0 (raising never leaks,
    but the source components above the cap are absent, so the window
    restricts target weights to cap - degree).
    `state` is `build_eigenstate(state_kind, values, vop.basis, vop.t)`,
    built once by the caller for several checks.  Returns (ok, failures).
    """
    if vop.sign != "+":
        raise ValueError("eigen checks are for raising operators")
    values = [as_scalar(v) for v in values]
    if vop.family == "L" and state_kind == "L":
        series = complete_q_coeffs(values, vop.t, max_degree)
    else:
        series = elementary_e_coeffs(values, max_degree)
    return _series_check(vop, lambda block: block.apply(state), state, series)


def covector_pieri_check(minus: VertexOp, values, max_degree: int):
    """<U| Gamma_{L,-} degree-r block = q_r(U) <U| on the interior window.
    Returns (ok, failures)."""
    if (minus.family, minus.sign) != ("L", "-"):
        raise ValueError("the covector Pieri check is for Gamma_{L,-}")
    cov = build_eigencovector(values, minus.basis, minus.t)
    series = complete_q_coeffs(values, minus.t, max_degree)
    return _series_check(minus, lambda block: block.apply_row(cov), cov, series)


def _series_check(vop: VertexOp, act, vec: dict, series):
    """act(degree-r block) = series[r] vec for every r < len(series), on the
    components of weight <= cap - r (one above the cap was truncated away);
    series[r] vec is formed on those components only.  Returns (ok, failures)."""
    weights = [weight(s) for s in vop.basis.states]
    failures = []
    for r, coeff in enumerate(series):
        window = {j for j, w in enumerate(weights) if w + r <= vop.weight_cap}
        want = vec if coeff == 1 else {j: coeff * v for j, v in vec.items() if j in window}
        failures += mismatch_items(vector_mismatches(act(vop.block(r)), want, window),
                                   vop.basis, degree=r)
    return not failures, failures


def skew_Q_via_ops(lam, mu, values, basis: Basis, t) -> Fraction:
    """Q_{lam/mu} as the (mu, lam) entry of the product of raising operators.

    `values` are alphabet values in the same convention as hl_Q (the
    graded 1/z powers of each operator are evaluated at the value).
    Raising products never leak, so this is exact whenever lam is in the
    basis.
    """
    t = as_scalar(t)
    plus = build_gamma("L", "+", basis, t)
    dim = len(basis)
    prod = SparseMatrix.identity(dim)
    for u in values:
        prod = prod.mul(plus.op.eval_at(as_scalar(u)))
    return prod.entry(basis.index[tuple(mu)], basis.index[tuple(lam)])


def adjoint_pair_check(family: str, basis: Basis, t):
    """Gamma_+ block entry (mu,lam) = Gamma_- entry (lam,mu) * norm(lam)/norm(mu),
    for every degree up to the basis weight cap.  Returns (ok, failures)."""
    t = as_scalar(t)
    plus = build_gamma(family, "+", basis, t)
    minus = build_gamma(family, "-", basis, t)
    norms = [state_norm(s, t) for s in basis.states]
    failures = graded_items(plus.op, minus.op.bar_adjoint(norms), plus.weight_cap,
                            range(len(basis)), basis, family=family)
    return not failures, failures
