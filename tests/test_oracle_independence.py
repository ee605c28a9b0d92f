"""Oracle independence, made mechanical: each shared kernel and each
operator builder is perturbed and must be caught.

One row per kernel or builder.  A row monkeypatches one perturbation into
it, runs the suites the kernel feeds at seed 0, and asserts two
things: the perturbation fired (it changed at least one result), and
every listed suite fails.  A kernel that fed both sides of an identity
the same wrong way would let its suites pass, so a row that stops
failing is the signal.  `unreached` lists suites that run the kernel's
module without deciding through the perturbed function; they must keep
passing, which pins the oracle map down in both directions.

Each row runs only its own suites, at seed 0 and default parameters.
"""

import inspect
from fractions import Fraction

import pytest

import integrable_lab
from integrable_lab import (baxter_q, bethe, cli, gaudin, graded, hall_littlewood, lattice,
                            partitions, scalars, suites)
from integrable_lab.graded import SparseMatrix
from integrable_lab.suites import SuiteSpec, run_suite
from oracles import translation_representatives


def drop_left_column_0(monkeypatch, fired):
    """The product kernel skips column 0 of its left factor: A B becomes
    A P B with P the projection off basis state 0."""
    real = graded._add_product

    def perturbed(acc, acols, bcols, factor):
        if 0 in acols and any(0 in col for col in bcols.values()):
            fired.append(1)
        real(acc, {k: col for k, col in acols.items() if k != 0}, bcols, factor)

    monkeypatch.setattr(graded, "_add_product", perturbed)


def drop_the_last_entry_of_longer_columns(monkeypatch, fired):
    """The mat-vec kernel drops the last stored entry of each column it
    reads that holds two or more.  A column of one entry is kept: dropping
    it turns a shift or a diagonal into zero, and relations between such
    operators then read zero on both sides (the four auxiliary Lax
    relations of rll all pass so)."""
    real = graded._mat_vec

    def perturbed(cols, vec):
        read = {}
        for j in vec:
            col = cols.get(j)
            if col and len(col) > 1:
                fired.append(1)
                col = dict(list(col.items())[:-1])
            if col:
                read[j] = col
        return real(read, vec)

    monkeypatch.setattr(graded, "_mat_vec", perturbed)


def drop_the_last_entry_of_each_column(monkeypatch, fired):
    """The covector kernel drops the last stored entry of each column it
    reads: y^T A reads one entry short in every column."""
    real = graded._vec_mat

    def perturbed(cols, covec):
        if cols:
            fired.append(1)
        return real({c: dict(list(col.items())[:-1]) for c, col in cols.items()}, covec)

    monkeypatch.setattr(graded, "_vec_mat", perturbed)


def drop_negative_numerators(monkeypatch, fired):
    """The canonical reduction's zero test slips to a sign test: every
    negative numerator is dropped with the zeros."""
    real = graded._canonical

    def perturbed(acc, den):
        if any(v < 0 for col in acc.values() for v in col.values()):
            fired.append(1)
        return real({c: {r: v for r, v in col.items() if v > 0} for c, col in acc.items()},
                    den)

    monkeypatch.setattr(graded, "_canonical", perturbed)


def keep_the_unreduced_denominator(monkeypatch, fired):
    """The canonical reduction divides the numerators by their gcd with the
    denominator but keeps the denominator: the matrix shrinks by that gcd."""
    real = graded._canonical

    def perturbed(acc, den):
        cols, reduced = real(acc, den)
        if reduced != den:
            fired.append(1)
        return cols, den

    monkeypatch.setattr(graded, "_canonical", perturbed)


def skip_the_first_entry(monkeypatch, fired):
    """The entry accumulator starts one entry late: every operator built
    from entries, each degree of a graded one, loses the first entry it
    hands over."""
    real = SparseMatrix.from_ratios

    def perturbed(cls, dim, entries):
        entries = list(entries)
        if entries:
            fired.append(1)
        return real(dim, entries[1:])

    monkeypatch.setattr(SparseMatrix, "from_ratios", classmethod(perturbed))


def compare_one_column_over(monkeypatch, fired):
    """`mismatches` reads the other side one column to the right."""
    real = SparseMatrix.mismatches

    def perturbed(self, other, cols, rows=None):
        shifted = SparseMatrix.from_entries(
            other.dim, ((r, (c + 1) % other.dim, v) for r, c, v in other.entries()))
        found = real(self, shifted, cols, rows)
        fired.extend(found)
        return found

    monkeypatch.setattr(SparseMatrix, "mismatches", perturbed)


class FirstPowerOff(Fraction):
    """A scalar whose first power reads v + 1 and every other power is
    exact.  As t: the weight 1 - t^1 of a site holding one boson reads -t,
    and every t-factorial k!_t (k >= 1) carries that one factor off.  As
    the twist x: a term that moves one boson across the seam reads x + 1."""

    def __pow__(self, k):
        return Fraction(self) ** k + (k == 1)


def first_power_off(name, param="t"):
    """The builder `name` computes its weights at a `param` (t by default)
    whose first power is off (`FirstPowerOff`); every module binding it
    calls the perturbed builder, which records a firing whenever its
    output differs."""
    module = lattice if hasattr(lattice, name) else baxter_q
    real = getattr(module, name)

    def perturb(monkeypatch, fired):
        def build(*args, **kwargs):
            call = inspect.signature(real).bind(*args, **kwargs)
            call.arguments[param] = FirstPowerOff(call.arguments[param])
            out = real(*call.args, **call.kwargs)
            if out != real(*args, **kwargs):
                fired.append(1)
            return out

        for mod in (integrable_lab, lattice, baxter_q, suites, cli):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, build)

    perturb.__name__ = f"{name}_first_power_off"
    return perturb



def bump_off_the_representatives(name):
    """The sector builder `name` gets its first degree-1 entry in a column
    that is not an orbit representative of the translation (a state with
    a rotation at a smaller basis index) moved by 1/3: a column that the
    orbit-reduced checks never compose on, so only the translation
    covariance they assert can see it."""
    module = lattice if hasattr(lattice, name) else baxter_q
    real = getattr(module, name)

    def perturb(monkeypatch, fired):
        def build(basis, x, t):
            op = real(basis, x, t)
            reps = set(translation_representatives(*partitions.sector_sizes(basis)))
            hit = next(((r, c) for r, c, _ in op.block(1).entries() if c not in reps), None)
            if hit is not None:
                op.blocks[1].add_to(*hit, Fraction(1, 3))
                fired.append(1)
            return op

        for mod in (integrable_lab, lattice, baxter_q, suites, cli):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, build)

    perturb.__name__ = f"{name}_bumped_off_the_representatives"
    return perturb

def one_translation_weight_off(monkeypatch, fired):
    """`translation_orbits` reads the weight x^{m_N} of the first state
    with m_N > 0 doubled: the translation that the orbit-decided checks
    assert covariance under is off in that one column."""
    real = lattice.translation_orbits

    def perturbed(basis, x):
        perm, weights, reps = real(basis, x)
        c = next((c for c, m in enumerate(basis.states) if m[-1]), None)
        if c is not None:
            weights[c] *= 2
            fired.append(1)
        return perm, weights, reps

    for mod in (integrable_lab, lattice, baxter_q):
        if getattr(mod, "translation_orbits", None) is real:
            monkeypatch.setattr(mod, "translation_orbits", perturbed)


def bump_one_LL_entry(monkeypatch, fired):
    """The auxiliary Lax operator gets its first off-diagonal entry moved by 1/3."""
    real = baxter_q.build_LL

    def perturbed(*args):
        LL = real(*args)
        r, c, _ = next((r, c, v) for r, c, v in LL.entries() if r != c)
        LL.add_to(r, c, Fraction(1, 3))
        fired.append(1)
        return LL

    monkeypatch.setattr(baxter_q, "build_LL", perturbed)


def one_signature_off(kind, signature, off):
    """The Pieri table reads the factors `off` for the `kind` strips whose
    signature is `signature`: one factor index off in one signature, not a
    uniform scaling of the kind.  The enumerators hand every strip's
    signature to `_pieri_weight`, so every reader of the kind sees it."""
    def perturb(monkeypatch, fired):
        real = hall_littlewood._pieri_weight

        def perturbed(table, k, sig):
            if (k, sig) == (kind, signature):
                fired.append(1)
                sig = off
            return real(table, k, sig)

        monkeypatch.setattr(hall_littlewood, "_pieri_weight", perturbed)

    perturb.__name__ = "one_" + kind.replace("'", "_prime") + "_signature_off"
    return perturb


def double_the_one_box_shape(monkeypatch, fired):
    """The strip sweep returns twice its value at the one-box shape (1)
    and every other shape exact: one component off, not a uniform scaling
    of the sweep."""
    real = hall_littlewood._strip_sweep

    def perturbed(*args, **kwargs):
        out = real(*args, **kwargs)
        if out.get((1,)):
            fired.append(1)
            out[(1,)] *= 2
        return out

    monkeypatch.setattr(hall_littlewood, "_strip_sweep", perturbed)


def double_every_shape(monkeypatch, fired):
    """The strip sweep returns every shape doubled: a uniform scaling of the
    sweep, which the linear eigen relations cannot see."""
    real = hall_littlewood._strip_sweep

    def perturbed(*args, **kwargs):
        out = real(*args, **kwargs)
        if out:
            fired.append(1)
        return {lam: 2 * v for lam, v in out.items()}

    monkeypatch.setattr(hall_littlewood, "_strip_sweep", perturbed)


def second_factor_squared(monkeypatch, fired):
    """The literal t-Pochhammer kernel reads its factor 1 - a t as 1 - a t^2
    whenever m >= 2: (a)_m = (a)_1 (a t^2)_1 (a t^2)_{m-2}.  Every literal
    m!_t with m >= 2, and so every state norm with a repeated part, carries
    one factor off; the t-table never reads the kernel."""
    real = scalars._poch_ratio

    def perturbed(a, m, t):
        if m < 2:
            return real(a, m, t)
        at2 = a * t * t
        if at2 != a * t:
            fired.append(1)
        (n0, d0), (n1, d1), (n2, d2) = real(a, 1, t), real(at2, 1, t), real(at2, m - 2, t)
        return n0 * n1 * n2, d0 * d1 * d2

    for mod in (scalars, partitions):
        if getattr(mod, "_poch_ratio", None) is real:
            monkeypatch.setattr(mod, "_poch_ratio", perturbed)


def one_cleared_entry_off(monkeypatch, fired):
    """`gaudin_det` reads the first entry of D, cleared to integers, one too
    high; d and every other entry of D are exact."""
    real = gaudin._gaudin_rows

    def perturbed(U, V, t):
        D, d, den_D, den_d = real(U, V, t)
        D[0][0] += 1
        fired.append(1)
        return D, d, den_D, den_d

    monkeypatch.setattr(gaudin, "_gaudin_rows", perturbed)


def one_kernel_row_off(monkeypatch, fired):
    """The Lascoux left side reads the numerator a_0 of its first kernel row
    one too high; every other row is exact."""
    real = gaudin._kernel_rows

    def perturbed(U, V, t):
        rows = real(U, V, t)
        a, b = rows[0]
        rows[0] = (a + 1, b)
        fired.append(1)
        return rows

    monkeypatch.setattr(gaudin, "_kernel_rows", perturbed)


def one_alphabet_amplitude_off(monkeypatch, fired):
    """The permutation table of `Alphabet` reads the amplitude B_P of its
    first permutation one too high; every other amplitude is exact."""
    real = hall_littlewood.Alphabet._table

    def perturbed(self):
        if self._rows is None:
            rows = real(self)
            perm, amp = rows[0]
            rows[0] = perm, amp + self._den  # B_P d_B over d_B
            fired.append(1)
        return real(self)

    monkeypatch.setattr(hall_littlewood.Alphabet, "_table", perturbed)


def one_bethe_amplitude_off(monkeypatch, fired):
    """`AnsatzTable` reads the amplitude B_P of its first row one too high;
    every other row is exact: one row of each table off."""
    real = bethe.AnsatzTable.__init__

    def perturbed(self, *args, **kwargs):
        real(self, *args, **kwargs)
        P, amp = self.rows[0]
        self.rows[0] = P, amp + 1
        fired.append(1)

    monkeypatch.setattr(bethe.AnsatzTable, "__init__", perturbed)


# (kernel, perturbation, suites that must fail, identity sides it feeds,
#  suites that run the kernel's module but never the perturbed function,
#  which must keep passing)
ROWS = [
    # the projected checks reach the product kernel only where a projection
    # differs; lambda-q fails through the trace's product with its state
    # norms.  A passing tq projects its relation on the left and forms no
    # product
    ("graded._add_product", drop_left_column_0, ("lambda-q", "rll"),
     "both sides of the six-vertex RLL; the state norms of the auxiliary-spin trace",
     ("tq",)),
    # every projected identity (the exchange and same-sign relations, the
    # commutators of the transfer and Q-matrices, the auxiliary Lax
    # relations and the Toda intertwining) and, through `apply`, the eigen
    # relations of gamma-eigen and the folded Toda columns of gauge; tq
    # projects on the left, through the covector kernel
    ("graded._mat_vec", drop_the_last_entry_of_longer_columns,
     ("gamma-commute", "rll", "lambda-q", "gamma-eigen", "gauge"),
     "both sides of every projected identity; Gamma_+ on the eigenstates; Lambda on "
     "the folded Toda columns", ("tq",)),
    # the left projection of TQ (y^T Lambda_i and u_i q_j against y^T q_k)
    # and, through `apply_row`, the covector Pieri check of gamma-eigen;
    # the right projections never read it
    ("graded._vec_mat", drop_the_last_entry_of_each_column, ("tq", "gamma-eigen"),
     "both sides of the left-projected TQ relation; the eigencovector of Gamma_{L,-}",
     ("lambda-q", "gamma-commute")),
    ("graded._canonical", drop_negative_numerators, ("tq", "lambda-q", "rll"),
     "every stored matrix: both sides of every sparse identity, and the "
     "closed-form Q against its add_to-built trace", ()),
    # scaled commuting matrices still commute, so lambda-q fails through its
    # trace agreement, whose two sides are reduced along different routes
    ("graded._canonical", keep_the_unreduced_denominator, ("tq", "rll", "lambda-q"),
     "every stored matrix, scaled by the gcd it failed to take out", ()),
    # the one entry accumulator builds both sides of tq (Lambda and q), of
    # lambda-q (q and the auxiliary Lax operator of the trace) and of
    # gamma-eigen (the open transfer and Gamma).  gauge sums its folded
    # Toda side as dicts, outside the accumulator, so the bond expansion's
    # lost entry shows
    ("SparseMatrix.from_ratios", skip_the_first_entry,
     ("tq", "lambda-q", "gamma-eigen", "rll", "adjoint", "ar-project", "gamma-commute",
      "paper-matrices", "gauge"),
     "every operator built entry by entry: the transfer matrices, the Q-matrix, the "
     "auxiliary Lax operator, Gamma, the bar adjoints and the restrictions", ()),
    # every exact matrix identity decided on matrices, the trace agreement
    # included, goes through mismatches, so each suite that compares
    # matrices fails when the comparison reads the wrong column; the
    # projected checks compare vectors and reach it only through their
    # product routes, and a passing tq compares no matrix
    ("SparseMatrix.mismatches", compare_one_column_over,
     ("lambda-q", "rll", "adjoint", "gamma-eigen"),
     "the comparison of every matrix identity", ("tq",)),
    ("baxter_q.build_qmatrix", first_power_off("build_qmatrix"),
     ("tq", "lambda-q", "paper-matrices", "adjoint"),
     "q of TQ against Lambda, the closed form against the auxiliary-spin trace, "
     "the printed 3x3 Q, the reflected Q", ()),
    ("lattice.periodic_transfer", first_power_off("periodic_transfer"),
     ("tq", "lambda-q", "gauge", "paper-matrices", "adjoint"),
     "Lambda of TQ and of the commutators, the bond expansion against the folded "
     "Toda monodromy, the printed 3x3 transfer matrix, the reflected transfer", ()),
    # tq and lambda-q compose on one column per translation orbit and assert
    # that Lambda and q commute with the translation; a wrong entry of q off
    # the representative columns is seen by that covariance alone (and by
    # the trace agreement of lambda-q), while Lambda acts on every row that
    # those columns of q reach
    ("baxter_q.build_qmatrix", bump_off_the_representatives("build_qmatrix"),
     ("tq", "lambda-q"),
     "q of TQ and of the commutators, through its asserted translation covariance", ()),
    ("lattice.periodic_transfer", bump_off_the_representatives("periodic_transfer"),
     ("tq", "lambda-q"),
     "Lambda of TQ and of the commutators, which read its every column, and its asserted "
     "translation covariance", ()),
    # a dropped representative would only weaken the orbit-decided checks,
    # not fail them, so the representatives are pinned against
    # `translation_representatives` in tests/test_sector_enumeration.py;
    # the reflected conjugation of adjoint reads `translation_op` instead
    ("lattice.translation_orbits", one_translation_weight_off, ("tq", "lambda-q"),
     "the translation that the TQ relation and both commutators are decided under, "
     "one column per orbit, and their asserted covariance", ("adjoint", "gauge")),
    ("lattice.open_transfer", first_power_off("open_transfer"),
     ("gamma-eigen", "ar-project"),
     "the open chain against the half vertex operators, A^L of the projected "
     "intertwining", ()),
    ("baxter_q.build_LL", bump_one_LL_entry, ("rll", "lambda-q"),
     "the auxiliary Lax operator of its four commutation relations, of the "
     "Toda intertwining and of the auxiliary-spin trace", ()),
    # the trace's literal t-factorials multiply and never take a power of
    # t, so its momentum-gauge fold is perturbed instead: the twist x^delta
    # of a target folded down by one reads x + 1; tq never builds the trace
    ("baxter_q.trace_qmatrix", first_power_off("trace_qmatrix", "x"), ("lambda-q",),
     "the auxiliary-spin trace against the closed form", ("tq",)),
    # a uniform scaling of Gamma_- would pass the linear exchange relation;
    # one signature off breaks it, while the suites that read only the
    # other three kinds of the table keep passing.  psi: 1 - t read as
    # 1 - t^2 where a part value loses its single copy
    ("hall_littlewood.PieriTable", one_signature_off("psi", (1,), (2,)),
     ("pieri", "adjoint", "gamma-commute", "gamma-eigen"),
     "psi of the Pieri rule, the psi side of the branching adjoint relation, "
     "Gamma_{L,-} of the exchange and same-sign relations and of the covector Pieri check",
     ("hall-pieri", "dual-cauchy", "ar-project")),
    # phi: 1 - t read as 1 - t^2 where a part value gains its first copy
    ("hall_littlewood.PieriTable", one_signature_off("phi", (1,), (2,)),
     ("adjoint", "gamma-commute", "gamma-eigen"),
     "the phi side of the branching adjoint relation, Gamma_{L,+} of the adjoint pairs, "
     "of the exchange and same-sign relations and of the eigen checks",
     ("pieri", "hall-pieri", "dual-cauchy", "ar-project")),
    # psi': binom(2, 1)_t read as binom(3, 1)_t where column i gains one
    # box and lam has two parts i
    ("hall_littlewood.PieriTable", one_signature_off("psi'", ((2, 1),), ((3, 1),)),
     ("hall-pieri", "adjoint", "ar-project", "gamma-commute", "gamma-eigen"),
     "psi' of the Hall Pieri rule, Gamma_{R,+} of the adjoint pairs, of the projected "
     "intertwining, of the exchange and same-sign relations and of the eigen checks",
     ("pieri", "dual-cauchy")),
    # phi': 1/1!_t read as 1/(1!_t 1!_t) where column i gains one box and
    # i is a new part value of lam (m_i(lam) = 1, m_i(mu) = 0)
    ("hall_littlewood.PieriTable", one_signature_off("phi'", ((1, 0, 1),), ((2, 0, 1),)),
     ("dual-cauchy", "adjoint", "gamma-commute", "gamma-eigen"),
     "phi' of the strip sweep (P^omega of the dual Cauchy identity, |R,V> of the open "
     "Toda eigenvector checks), Gamma_{R,-} of the adjoint pairs and of the exchange "
     "and same-sign relations",
     ("pieri", "hall-pieri", "ar-project")),
    # the literal side of every table-against-literal identity, and the
    # norms of the symmetrized sums and of the adjoint relations; tq, gaudin
    # and paper-matrices read their t-factorials from t-tables and never
    # call the kernel at m >= 2
    ("scalars._poch_ratio", second_factor_squared,
     ("adjoint", "ar-project", "cauchy", "dual-cauchy", "gamma-eigen", "hall-pieri",
      "lambda-q", "lascoux", "pieri", "rll"),
     "build_LL and the auxiliary-spin trace, the symmetrized Hall-Littlewood sums and "
     "their state norms, the norms of the branching adjoint relations (pieri_coeff, "
     "the enumerators' tier-1 oracle, reads it too, but no suite calls it)",
     ("gaudin", "paper-matrices", "tq")),
    # gamma-eigen's eigen relations are linear in |R,V>, so a uniform
    # scaling of the sweep would pass them; one shape off fails its six
    # open Toda eigenvector checks.  The Pieri suites read the table, not
    # the sweep
    ("hall_littlewood._strip_sweep", double_the_one_box_shape,
     ("gamma-eigen", "dual-cauchy"),
     "|R,V> of the open Toda eigenvector checks, P^omega of the dual Cauchy identity",
     ("pieri", "hall-pieri")),
    # a uniform scaling of the sweep passes every eigen relation of
    # gamma-eigen; its vacuum check pins the scale of |R,V>
    ("hall_littlewood._strip_sweep", double_every_shape,
     ("gamma-eigen", "dual-cauchy"),
     "the scale of |R,V>, read by the vacuum check, P^omega of the dual Cauchy identity",
     ("pieri", "hall-pieri")),
    # the determinant is the one oracle of both Gaudin suites; the kernel
    # rows feed only the symmetrized side, so the gaudin suite never reads them
    ("gaudin.gaudin_det", one_cleared_entry_off, ("gaudin", "lascoux"),
     "the determinant of the half-line sum and of the Hecke-symmetrizer reduction",
     ("bethe",)),
    ("gaudin._kernel_rows", one_kernel_row_off, ("lascoux",),
     "the Hecke-symmetrized kernel of the Lascoux reduction", ("gaudin",)),
    # bethe reads R through the table in its graded Pieri check, at a mu
    # = (1, -1) whose strips collide within degree 3; adjoint reads only
    # the Pieri table of the module
    ("hall_littlewood.Alphabet", one_alphabet_amplitude_off,
     ("bethe", "cauchy", "dual-cauchy", "gamma-eigen", "hall-pieri", "pieri"),
     "Q and P of both Cauchy identities and of both Pieri rules, the symmetrized-sum "
     "components of the open Toda eigenvectors, R of the graded Pieri check",
     ("adjoint",)),
    # the Hall-Littlewood sums keep their own amplitude table, so cauchy
    # never reads the perturbed one
    ("bethe.AnsatzTable", one_bethe_amplitude_off, ("bethe", "gaudin", "lascoux"),
     "the AnsatzTable rows of the Bethe vectors, of R_mu in the half-line sum and of the "
     "Lascoux left side, and the two-body cancellation",
     ("cauchy",)),
]


@pytest.mark.parametrize("kernel, perturb, fail, feeds, unreached", ROWS,
                         ids=[row[1].__name__ for row in ROWS])
def test_a_perturbed_kernel_fails_the_suites_it_feeds(monkeypatch, kernel, perturb, fail,
                                                      feeds, unreached):
    fired = []
    perturb(monkeypatch, fired)
    for name in fail:
        before = len(fired)
        assert run_suite(SuiteSpec(name, 0))["status"] == "fail", (kernel, name)
        assert len(fired) > before, (kernel, name)  # the perturbation took effect
    for name in unreached:
        assert run_suite(SuiteSpec(name, 0))["status"] == "pass", (kernel, name)
