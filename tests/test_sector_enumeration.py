"""Cost guard: a ring check enumerates each occupation sector once.

The ring builders take their sector's basis (and reject any other
basis); a check, suite or CLI request that takes sizes enumerates
`occupation_basis(N, n)` once and hands that one value to every builder.
Every module binding of `partitions.occupation_basis` is patched to
count its calls by (N, n).  `trace_qmatrix`, the independent side of
`lambda-q`'s trace agreement, takes sizes and keeps its own enumeration.
"""

import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from integrable_lab import baxter_q, cli, lattice, partitions
from integrable_lab.suites import SuiteSpec, run_suite
from oracles import translation_representatives

X, T = F(3, 5), F(2, 7)
RING_SECTORS = Counter({(2, 2): 1, (3, 2): 1, (3, 3): 1})  # adjoint, gauge, the trace


@pytest.fixture
def enumerations(monkeypatch):
    """Calls of `occupation_basis`, counted by (N, n)."""
    calls = Counter()
    real = partitions.occupation_basis

    def counting(N, n):
        calls[N, n] += 1
        return real(N, n)

    for name, mod in list(sys.modules.items()):
        if name == "integrable_lab" or name.startswith("integrable_lab."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize("build", [
    lambda basis: lattice.periodic_transfer(basis, X, T),
    lambda basis: baxter_q.build_qmatrix(basis, X, T),
    lambda basis: lattice.translation_op(basis, X),
    lambda basis: lattice.translation_orbits(basis, X),
    lambda basis: lattice.folded_toda_columns(basis, X, T),
], ids=["periodic_transfer", "build_qmatrix", "translation_op", "translation_orbits",
        "folded_toda_columns"])
def test_a_ring_builder_takes_one_occupation_sector(build):
    # a partition basis, and an occupation basis of mixed boson numbers
    for basis in (partitions.partition_basis(3),
                  partitions.Basis([(2,), (1,), (0,)], kind="occupation")):
        with pytest.raises(ValueError, match="not one occupation sector"):
            build(basis)


def test_tq_check_enumerates_its_sector_once_and_decides_on_every_orbit(enumerations,
                                                                         monkeypatch):
    # a dropped representative would weaken the orbit-decided check without
    # failing it, so the representatives tq_check reads are pinned here
    orbits = []
    real = baxter_q.translation_orbits

    def recording(basis, x):
        orbits.append(real(basis, x))
        return orbits[-1]

    monkeypatch.setattr(baxter_q, "translation_orbits", recording)
    for N, n in [(1, 3), (3, 2), (4, 4), (5, 6)]:
        enumerations.clear()
        ok, failures = baxter_q.tq_check(N, n, X, T, N * n)
        assert ok, failures[:3]
        assert enumerations == {(N, n): 1}
        assert orbits.pop()[2] == translation_representatives(N, n)


def test_folded_toda_transfer_enumerates_its_sector_once(enumerations):
    assert lattice.folded_toda_transfer(3, 2, X, T).dim == 6
    assert enumerations == {(3, 2): 1}


@pytest.mark.parametrize("name, params, expected", [
    # each sector once per draw
    ("tq", {"N_range": [2, 3], "n_range": [1, 2], "draws": 2},
     Counter({(N, n): 2 for N in (2, 3) for n in (1, 2)})),
    # each pair once per draw; each sector of the trace agreement once in
    # the suite and once in trace_qmatrix
    ("lambda-q", {"pairs": [(4, 3), (3, 4)], "draws": 2},
     Counter({(4, 3): 2, (3, 4): 2}) + RING_SECTORS + RING_SECTORS),
    # Lambda and q at x and 1/x, and the translation, on one basis
    ("adjoint", {}, RING_SECTORS),
    ("gauge", {}, RING_SECTORS),
    ("paper-matrices", {}, Counter({(2, 2): 1})),
])
def test_a_ring_suite_enumerates_each_sector_once(enumerations, name, params, expected):
    assert run_suite(SuiteSpec(name, 0, params))["status"] == "pass"
    assert enumerations == expected


@pytest.mark.parametrize("which", ["lambda", "q"])
def test_a_matrix_request_enumerates_its_sector_once(enumerations, capsys, which):
    argv = ["matrix", which, "--N", "3", "--n", "2", "--t", "2/7", "--x", "3/5"]
    assert cli.main(argv) == 0
    assert '"basis"' in capsys.readouterr().out
    assert enumerations == {(3, 2): 1}
