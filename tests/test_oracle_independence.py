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


def drop_left_column_0(monkeypatch, fired):
    """The product kernel skips column 0 of its left factor: A B becomes
    A P B with P the projection off basis state 0."""
    real = graded._add_product

    def perturbed(acc, acols, bcols, factor):
        if 0 in acols and any(0 in col for col in bcols.values()):
            fired.append(1)
        real(acc, {k: col for k, col in acols.items() if k != 0}, bcols, factor)

    monkeypatch.setattr(graded, "_add_product", perturbed)


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


def one_psi_signature_off(monkeypatch, fired):
    """The Pieri table reads the factor 1 - t^2 for the psi strips whose
    only factor is 1 - t (a part value losing its single copy): one t-factor
    index off in one signature, not a uniform scaling of psi."""
    real = hall_littlewood._pieri_weight

    def perturbed(table, kind, signature):
        if (kind, signature) == ("psi", (1,)):
            fired.append(1)
            signature = (2,)
        return real(table, kind, signature)

    monkeypatch.setattr(hall_littlewood, "_pieri_weight", perturbed)


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
    """`bethe_amplitude` reads B one too high at the one order of its
    alphabet that is sorted (by real, then imaginary part) and exact at
    every other order: one row of each `AnsatzTable` off."""
    real = bethe.bethe_amplitude

    def perturbed(us, t):
        key = [(complex(u).real, complex(u).imag) for u in us]
        if key == sorted(key):
            fired.append(1)
            return real(us, t) + 1
        return real(us, t)

    monkeypatch.setattr(bethe, "bethe_amplitude", perturbed)


# (kernel, perturbation, suites that must fail, identity sides it feeds,
#  suites that run the kernel's module but never the perturbed function,
#  which must keep passing)
ROWS = [
    ("graded._add_product", drop_left_column_0, ("tq", "lambda-q", "rll"),
     "Lambda q of TQ; both orders of every commutator; both sides of RLL and "
     "of the Toda intertwining", ()),
    ("graded._canonical", drop_negative_numerators, ("tq", "lambda-q", "rll"),
     "every stored matrix: both sides of every sparse identity, and the "
     "closed-form Q against its add_to-built trace", ()),
    # lambda-q misses this one: both products of a commutator come out of
    # one accumulator, and matrices that commute still commute when scaled
    ("graded._canonical", keep_the_unreduced_denominator, ("tq", "rll"),
     "every stored matrix, scaled by the gcd it failed to take out", ()),
    # the one entry accumulator builds both sides of tq (Lambda and q), of
    # lambda-q (q and the auxiliary Lax operator of the trace) and of
    # gamma-eigen (the open transfer and Gamma).  gauge runs it on both
    # sides of its sector identification and stays blind: the bond
    # expansion and the folded Toda route hand over the same entry first
    # in every degree, so dropping it drops the same entry on both sides
    ("SparseMatrix.from_ratios", skip_the_first_entry,
     ("tq", "lambda-q", "gamma-eigen", "rll", "adjoint", "ar-project", "gamma-commute",
      "paper-matrices"),
     "every operator built entry by entry: the transfer matrices, the Q-matrix, the "
     "auxiliary Lax operator, Gamma, the bar adjoints and the restrictions", ()),
    # every exact matrix identity, commutators and the trace agreement
    # included, is decided through mismatches, so each suite that compares
    # matrices fails when the comparison reads the wrong column
    ("SparseMatrix.mismatches", compare_one_column_over,
     ("tq", "lambda-q", "rll", "adjoint", "gamma-eigen"),
     "the comparison of every matrix identity", ()),
    ("baxter_q.build_qmatrix", first_power_off("build_qmatrix"),
     ("tq", "lambda-q", "paper-matrices", "adjoint"),
     "q of TQ against Lambda, the closed form against the auxiliary-spin trace, "
     "the printed 3x3 Q, the reflected Q", ()),
    ("lattice.periodic_transfer", first_power_off("periodic_transfer"),
     ("tq", "lambda-q", "gauge", "paper-matrices", "adjoint"),
     "Lambda of TQ and of the commutators, the bond expansion against the folded "
     "Toda monodromy, the printed 3x3 transfer matrix, the reflected transfer", ()),
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
    # other three kinds of the table keep passing
    ("hall_littlewood.PieriTable", one_psi_signature_off,
     ("pieri", "adjoint", "gamma-commute", "gamma-eigen"),
     "psi of the Pieri rule, the psi side of the branching adjoint relation, "
     "Gamma_{L,-} of the exchange and same-sign relations and of the covector Pieri check",
     ("hall-pieri", "dual-cauchy", "ar-project")),
    # the literal side of every table-against-literal identity, and the
    # norms of the symmetrized sums and of the adjoint relations; tq, gaudin
    # and paper-matrices read their t-factorials from t-tables and never
    # call the kernel at m >= 2
    ("scalars._poch_ratio", second_factor_squared,
     ("adjoint", "ar-project", "cauchy", "dual-cauchy", "gamma-eigen", "hall-pieri",
      "lambda-q", "lascoux", "pieri", "rll"),
     "build_LL and the auxiliary-spin trace, the symmetrized Hall-Littlewood sums and "
     "their state norms, the norms of the branching adjoint relations (pieri_coeff, "
     "PieriTable's tier-1 oracle, reads it too, but no suite calls it)",
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
    # bethe reads R through the table in its graded Pieri check, but at its
    # mu = (2, -1) and degrees <= 3 that relation holds permutation by
    # permutation, so it cannot see an amplitude; adjoint reads only the
    # Pieri table of the module
    ("hall_littlewood.Alphabet", one_alphabet_amplitude_off,
     ("cauchy", "dual-cauchy", "gamma-eigen", "hall-pieri", "pieri"),
     "Q and P of both Cauchy identities and of both Pieri rules, the symmetrized-sum "
     "components of the open Toda eigenvectors",
     ("bethe", "adjoint")),
    # the Hall-Littlewood sums keep their own amplitude table, so cauchy
    # never reads the perturbed one
    ("bethe.bethe_amplitude", one_bethe_amplitude_off, ("bethe", "gaudin", "lascoux"),
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
