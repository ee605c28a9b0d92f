import argparse
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from integrable_lab import baxter_q, cli, hall_littlewood, suites, vertex_ops
from integrable_lab.partitions import is_horizontal_strip, occupation_basis, partition_basis
from integrable_lab.scalars import format_scalar, parse_scalar
from integrable_lab.suites import SUITE_NAMES, SuiteSpec, draw_params, run_suite


EXPECTED_SUITES = {
    "rll", "pieri", "hall-pieri", "cauchy", "dual-cauchy", "gamma-commute",
    "gamma-eigen", "tq", "lambda-q", "ar-project", "bethe", "gaudin",
    "lascoux", "adjoint", "gauge", "paper-matrices",
}


def test_registry_complete():
    assert set(SUITE_NAMES) == EXPECTED_SUITES


def test_draws_deterministic():
    a = draw_params(42, "distinct-3")
    b = draw_params(42, "distinct-3")
    assert a == b
    assert len(set(a)) == 3
    c = draw_params(43, "distinct-3")
    assert a != c


def test_draw_strategies():
    for _ in range(5):
        t = draw_params(7, "generic-t", 1)[0]
        assert t not in (0, 1, -1)
    vals = draw_params(9, "gaudin", 2)
    assert all(abs(v) <= 0.5 and v != 0 for v in vals)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite(SuiteSpec("nope"))


def test_reports_reproducible():
    r1 = run_suite(SuiteSpec("paper-matrices", seed=3))
    r2 = run_suite(SuiteSpec("paper-matrices", seed=3))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_schema():
    report = run_suite(SuiteSpec("lascoux", seed=1))
    assert set(report) == {"suite", "seed", "params", "status", "checks"}
    for check in report["checks"]:
        assert set(check) == {"name", "paper_ref", "status", "deviation", "detail"}
    assert report["status"] == "pass"


def test_small_suites_pass():
    for name, params in [
        ("paper-matrices", {}),
        ("lascoux", {}),
        ("pieri", {"max_weight": 3, "draws": 1}),
        ("hall-pieri", {"max_weight": 3, "draws": 1}),
        ("cauchy", {"degree": 3, "draws": 1, "vars": 2}),
        ("dual-cauchy", {"degree": 3, "draws": 1, "vars": 2}),
        ("tq", {"draws": 1, "N_range": [2], "n_range": [0, 1, 2]}),
        ("lambda-q", {"draws": 1, "pairs": [(2, 2)]}),
        ("gauge", {}),
    ]:
        report = run_suite(SuiteSpec(name, seed=5, params=params))
        assert report["status"] == "pass", (name, report)


def test_lascoux_redraws_past_singular_draws():
    # these seeds draw u v = 1 (19) or t u v = 1 (30, 40) and used to raise
    # ZeroDivisionError; each singular draw is now replaced deterministically
    for seed in (19, 30, 40):
        report = run_suite(SuiteSpec("lascoux", seed=seed))
        assert report["status"] == "pass", report
        assert any("redrawn" in check["detail"] for check in report["checks"])
        assert report == run_suite(SuiteSpec("lascoux", seed=seed))


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    # the CLI of this checkout, whatever PYTHONPATH the tests were started with
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "integrable_lab.cli", *argv],
        capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_eval_examples():
    code, out, _ = run_cli("eval", "P", "--lambda", "[1]", "--vars", "1/2,1/3", "--t", "1/5")
    assert code == 0 and out.strip() == "5/6"
    code, out, _ = run_cli("eval", "Q", "--lambda", "[]", "--vars", "1/2", "--t", "1/5")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli("eval", "R", "--mu", "(1,0)", "--vars", "2,3", "--t", "1/2")
    assert code == 0 and out.strip() == "5"


@pytest.mark.parametrize("mu", ["[1,0]", "(1,0)", "1,0"])
def test_eval_R_reads_mu_in_brackets_parentheses_or_bare(mu, capsys):
    assert cli.main(["eval", "R", f"--mu={mu}", "--vars=1/2,1/3", "--t=1/3"]) == 0
    assert capsys.readouterr().out.strip() == "5/6"


def test_cli_verify_pass_and_usage():
    code, out, _ = run_cli("verify", "paper-matrices", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    code, _, err = run_cli("verify", "unknown-suite")
    assert code == 2


def test_cli_matrix_dump():
    code, out, _ = run_cli("matrix", "lambda", "--N", "2", "--n", "2",
                           "--t", "2/7", "--x", "3/5")
    assert code == 0
    dump = json.loads(out)
    assert dump["basis"] == ["(2,0)", "(1,1)", "(0,2)"]
    assert all(set(e) == {"degree", "row", "col", "value"} for e in dump["entries"])
    # degree-1 entry (1, 0) is 1 - t^2 = 45/49
    assert {"degree": 1, "row": 1, "col": 0, "value": "45/49"} in dump["entries"]
    code, out, _ = run_cli("matrix", "q", "--N", "2", "--n", "2",
                           "--t", "2/7", "--x", "3/5")
    assert code == 0
    dump = json.loads(out)
    # in library order the (0,1) degree-1 entry is -x; the printed layout
    # is the reversed display, as the metadata notes
    assert {"degree": 1, "row": 0, "col": 1, "value": "-3/5"} in dump["entries"]
    assert "reversed" in dump["metadata"]["display_note"]


def test_cli_gamma_dump():
    code, out, _ = run_cli("matrix", "gamma", "--family", "L", "--sign", "-",
                           "--D", "3", "--t", "1/3")
    assert code == 0
    dump = json.loads(out)
    assert dump["basis"][0] == "[]"
    # psi_{[1]/[]} = 1 at degree 1
    assert {"degree": 1, "row": 1, "col": 0, "value": "1"} in dump["entries"]


def test_cli_bethe_and_gaudin():
    code, out, _ = run_cli("bethe", "--N", "3", "--M", "1", "--t", "1/3",
                           "--s", "0", "--x", "1", "--seeds", "30")
    assert code == 0
    dump = json.loads(out)
    assert len(dump["roots"]) == 3
    assert dump["eigen_residual"] < 1e-8
    code, out, _ = run_cli("gaudin", "--U", "1/3", "--V", "1/2", "--t", "2/7",
                           "--s", "0", "--truncation", "60")
    assert code == 0
    dump = json.loads(out)
    assert dump["within_bound"] is True


def test_cli_env_seed_and_config(tmp_path, monkeypatch):
    conf = tmp_path / "lab.conf"
    conf.write_text("t=2/7\nx=3/5\n")
    code, out, _ = run_cli("matrix", "lambda", "--N", "2", "--n", "2",
                           "--config", str(conf))
    assert code == 0
    dump = json.loads(out)
    assert {"degree": 1, "row": 1, "col": 0, "value": "45/49"} in dump["entries"]
    # explicit flag overrides the config value
    code, out, _ = run_cli("matrix", "lambda", "--N", "2", "--n", "2",
                           "--config", str(conf), "--t", "1/2")
    dump = json.loads(out)
    assert {"degree": 1, "row": 1, "col": 0, "value": "3/4"} in dump["entries"]
    # the variable replaces the default seed; a typed or configured --seed wins
    monkeypatch.setenv("INTEGRABLE_LAB_SEED", "7")
    code, out, _ = run_cli("verify", "paper-matrices", "--json")
    assert code == 0 and json.loads(out)["seed"] == 7
    conf.write_text("seed=3\n")
    code, out, _ = run_cli("verify", "paper-matrices", "--json", "--config", str(conf))
    assert code == 0 and json.loads(out)["seed"] == 3
    code, out, _ = run_cli("verify", "paper-matrices", "--json", "--seed", "2")
    assert code == 0 and json.loads(out)["seed"] == 2


def test_cli_matrix_lax_dumps_its_family(capsys):
    # without --family the q-boson Lax: L_12 = z Sbar, Sbar|1> = (1 - t)|0>
    assert cli.main(["matrix", "lax", "--cap", "3", "--t", "1/3"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["name"] == "lax qboson" and dump["basis"] == ["(0)", "(1)", "(2)", "(3)"]
    assert {"degree": 1, "row": 0, "col": 1, "value": "2/3"} in dump["entries"]["01"]
    assert all(e["degree"] == 0 for e in dump["entries"]["00"])
    # spin s: L_11 = 1 + z s t^m carries a degree-1 diagonal
    assert cli.main(["matrix", "lax", "--family", "spin_s", "--s", "1/2", "--cap", "3",
                     "--t", "1/3"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["name"] == "lax spin_s"
    assert {"degree": 1, "row": 0, "col": 0, "value": "1/2"} in dump["entries"]["00"]


def test_cli_matrix_lax_rejects_other_families(capsys):
    for family in ("toda", "L", "nonsense"):
        assert cli.main(["matrix", "lax", "--family", family]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "qboson or spin_s" in captured.err


def test_cli_matrix_lax_rejects_a_negative_cap(capsys):
    # a cap below 0 has no site basis: a usage error, not an empty dump
    assert cli.main(["matrix", "lax", "--cap=-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: cap must be >= 0, got -1" in captured.err
    assert cli.main(["matrix", "lax", "--cap=0"]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == ["(0)"]


def test_cli_eval_input_errors_are_usage_errors(capsys):
    assert cli.main(["eval", "R", "--vars", "2,3", "--t", "1/2"]) == 2
    assert "--mu" in capsys.readouterr().err
    for kind in ("qr", "er"):
        assert cli.main(["eval", kind, "--vars", "1/2", "--t", "1/3", "--r", "-1"]) == 2
        assert "--r" in capsys.readouterr().err
    assert cli.main(["eval", "R", "--mu", "(1,0)", "--vars", "2,3", "--t", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_cli_matrix_q_rejects_t_one(capsys):
    assert cli.main(["matrix", "q", "--t=1"]) == 2
    assert "t = 1" in capsys.readouterr().err


def test_cli_matrix_q_rejects_t_minus_one_from_n_2(capsys):
    assert cli.main(["matrix", "q", "--N=2", "--n=2", "--t=-1", "--x=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: t = -1 is a singular point" in captured.err
    assert cli.main(["matrix", "q", "--N=2", "--n=1", "--t=-1", "--x=2"]) == 0


@pytest.mark.parametrize("argv, point", [
    (["matrix", "gamma", "--family=R", "--sign=-", "--t=1"], "t = 1"),
    (["eval", "skew", "--lambda=[1,1]", "--mu=[]", "--vars=1/2,1/3", "--t=-1",
      "--family=Qomega"], "t = -1"),
    (["eval", "P", "--lambda=[1,1]", "--vars=1/2,1/3", "--t=1"], "t = 1"),
    (["eval", "Q", "--lambda=[1]", "--vars=1/2,1/3", "--t=1"], "t = 1"),
    # no t-factorial divides: phi = prod (1 - t^m), and Q_(1,1) in two
    # variables has no zero part, so it divides by 0!_t = 1 (and reads 0)
    (["matrix", "gamma", "--family=L", "--sign=+", "--t=1"], None),
    (["eval", "Q", "--lambda=[1,1]", "--vars=1/2,1/3", "--t=1"], None),
])
def test_cli_rejects_t_where_a_divided_t_factorial_vanishes(capsys, argv, point):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if point is None:
        assert code == 0 and out and err == ""
    else:
        assert code == 2 and out == "" and f"error: {point} is a singular point" in err


def test_cli_bethe_rejects_t_one(capsys):
    assert cli.main(["bethe", "--N", "2", "--M", "1", "--t", "1"]) == 2
    assert "t = 1" in capsys.readouterr().err


def test_cli_usage_errors():
    code, _, _ = run_cli("eval", "P", "--lambda", "oops", "--vars", "1/2", "--t", "1/5")
    assert code == 2
    code, _, _ = run_cli("nonsense")
    assert code == 2


def test_cli_verify_has_no_t_or_x(capsys):
    # no suite reads t or x, so the flags are gone rather than ignored (an
    # abbreviation of --truncation does not stand in for --t either)
    assert cli.main(["verify", "paper-matrices", "--t", "5", "--x", "7"]) == 2
    assert cli.main(["verify", "paper-matrices", "--t", "5"]) == 2
    assert cli.main(["verify", "paper-matrices", "--trunc", "5"]) == 2


def test_cli_config_key_without_flag_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "lab.conf"
    conf.write_text("bogus=3\n")
    assert cli.main(["verify", "paper-matrices", "--config", str(conf)]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("argv, conf", [
    (["bethe"], "N=3\nM=1\n"),
    (["gaudin"], "U=1/3\nV=1/2\n"),
    (["eval", "P", "--lambda", "[1]"], "vars=1/2,1/3\nt=1/5\n"),
])
def test_cli_config_supplies_required_flags(tmp_path, capsys, argv, conf):
    path = tmp_path / "lab.conf"
    path.write_text(conf)
    assert cli.main(argv + ["--config", str(path)]) == 0


def test_cli_typed_flag_at_its_default_beats_config(tmp_path, capsys):
    conf = tmp_path / "lab.conf"
    conf.write_text("t=2/7\n")
    assert cli.main(["matrix", "lambda", "--t", "1/3", "--config", str(conf)]) == 0
    configured = capsys.readouterr().out
    assert cli.main(["matrix", "lambda", "--t", "1/3"]) == 0
    assert configured == capsys.readouterr().out


@pytest.mark.parametrize("line", ["json=false", "json=true"])
def test_cli_config_key_for_a_flag_without_value_is_usage_error(tmp_path, capsys, line):
    conf = tmp_path / "lab.conf"
    conf.write_text(line + "\n")
    assert cli.main(["verify", "paper-matrices", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert "--json" in captured.err and not captured.out


def test_cli_missing_config_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.conf"
    assert cli.main(["verify", "paper-matrices", "--config", str(missing)]) == 2
    assert "absent.conf" in capsys.readouterr().err


def test_cli_gaudin_names_the_zero_of_its_divisor(capsys):
    # at t = 0 and n >= 2 det[1/(1 - t u v)] = 0: a usage error naming the
    # locus, where the ratio was Fraction(0, 0)
    assert cli.main(["gaudin", "--U", "1/3,1/5", "--V", "1/2,1/7", "--t", "0"]) == 2
    assert capsys.readouterr().err == \
        "error: singular evaluation point t=0: det[1/(1 - t u v)] = 0 for n >= 2\n"


def test_cli_negative_rational_as_its_own_token(capsys):
    assert cli.main(["gaudin", "--U", "1/3", "--V", "1/2", "--t", "-1/2"]) == 0
    assert json.loads(capsys.readouterr().out)["within_bound"] is True
    assert cli.main(["matrix", "lambda", "--x", "-3/5"]) == 0
    separate = capsys.readouterr().out
    assert cli.main(["matrix", "lambda", "--x=-3/5"]) == 0
    assert capsys.readouterr().out == separate


def test_verify_rejects_flags_the_suite_does_not_read(capsys):
    assert cli.main(["verify", "lascoux", "--draws", "5", "--cap", "9"]) == 2
    err = capsys.readouterr().err
    assert "--draws" in err and "--cap" in err
    assert cli.main(["verify", "lascoux", "--vars", "2", "--json"]) == 2
    assert "--vars" in capsys.readouterr().err


def test_run_suite_rejects_params_the_suite_does_not_read():
    with pytest.raises(KeyError, match="vars"):
        run_suite(SuiteSpec("lascoux", params={"vars": 2}))


@pytest.mark.parametrize("seed, check", [
    (17, "two-body cancellation"),                # w1 - w3 xi(u) = 0
    (19, "interior staircase identity s=1/6"),    # w2 w4 = 0
    (152, "interior staircase identity s=1/6"),   # 1 + u s = 0
], ids=["seed17", "seed19", "seed152"])
def test_bethe_redraws_past_its_singular_locus(seed, check, capsys):
    # each seed used to raise ZeroDivisionError inside the named check
    report = run_suite(SuiteSpec("bethe", seed=seed))
    assert report["status"] == "pass", report
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert "redrawn 1x past singular draws" in details[check]
    assert report == run_suite(SuiteSpec("bethe", seed=seed))
    assert cli.main(["verify", "bethe", "--seed", str(seed)]) == 0
    capsys.readouterr()


def test_lambda_q_rejects_an_empty_pairs_list():
    # an empty list used to pass every check vacuously
    for pairs in ([], (), range(0)):
        with pytest.raises(ValueError, match="needs pairs nonempty"):
            run_suite(SuiteSpec("lambda-q", params={"pairs": pairs}))


def test_verify_N_reaches_ar_project_as_N_max(capsys):
    argv = ["verify", "ar-project", "--N", "1", "--draws", "1", "--max_len", "3", "--json"]
    assert cli.main(argv) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert params == {"N_max": "1", "draws": "1", "max_len": "3"}


def test_verify_reports_a_raising_suite_as_a_failure(monkeypatch, capsys):
    from integrable_lab import gaudin

    def broken(*args, **kwargs):
        raise ZeroDivisionError("singular draw")

    monkeypatch.setattr(gaudin, "lascoux_reduction_check", broken)
    assert cli.main(["verify", "lascoux"]) == 1
    err = capsys.readouterr().err
    assert "lascoux" in err and "ZeroDivisionError" in err and "singular draw" in err


def test_adjoint_suite_visits_every_horizontal_strip_pair_once(monkeypatch):
    # the suite enumerates strips above each mu; the pairs are those of
    # the scan over every pair of partitions, lam/lam included
    seen = []

    class Recording(hall_littlewood.PieriTable):
        def strips(self, kind, mu, max_size, cap=None):
            out = super().strips(kind, mu, max_size, cap)
            if kind == "phi":
                seen.extend((lam, mu) for lam, _ in out)
            return out

    monkeypatch.setattr(hall_littlewood, "PieriTable", Recording)
    report = run_suite(SuiteSpec("adjoint", params={"max_weight": 6}))
    assert report["checks"][0]["status"] == "pass"
    parts = partition_basis(6).states
    scan = {(lam, mu) for lam in parts for mu in parts if is_horizontal_strip(lam, mu)}
    assert len(seen) == len(set(seen))
    assert set(seen) == scan


def test_gamma_eigen_sweeps_each_alphabet_once(monkeypatch):
    # |R,V> on the full basis and on the lam_1 <= #V basis, both of weight
    # cap D, come from one strip sweep per alphabet
    alphabets = []
    real = hall_littlewood._strip_sweep

    def counting(mu, values, *args, **kwargs):
        alphabets.append(len(values))
        return real(mu, values, *args, **kwargs)

    monkeypatch.setattr(hall_littlewood, "_strip_sweep", counting)
    spec = SuiteSpec("gamma-eigen")
    assert run_suite(spec)["status"] == "pass"
    assert alphabets == list(range(1, suites.suite_params(spec)["vars"] + 1))


def test_rll_builds_the_auxiliary_lax_operator_once_per_draw(monkeypatch):
    # the auxiliary Lax relations and the Toda intertwining of a draw share
    # one LL(u) and one set of spin windows
    calls = {"build_LL": [], "spin_windows": []}
    for name, seen in calls.items():
        def recording(*args, real=getattr(baxter_q, name), seen=seen):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(baxter_q, name, recording)
    spec = SuiteSpec("rll")
    assert run_suite(spec)["status"] == "pass"
    params = suites.suite_params(spec)
    draws, cap = params["draws"], params["cap"]
    assert len(calls["build_LL"]) == len(calls["spin_windows"]) == draws
    assert {args[2:] for args in calls["build_LL"]} == {(cap + 1, cap + 1)}
    assert len(set(calls["build_LL"])) == draws


@pytest.mark.parametrize("nvars", [1, 3])
def test_gamma_eigen_builds_each_vertex_operator_once(monkeypatch, nvars):
    # the finite-size checks read Gamma_{L,+-} on the lam_1 <= #V basis as
    # restrictions of the full-basis operators, for every alphabet
    built = []
    real = vertex_ops.build_gamma

    def counting(family, sign, *args, **kwargs):
        built.append((family, sign))
        return real(family, sign, *args, **kwargs)

    monkeypatch.setattr(vertex_ops, "build_gamma", counting)
    assert run_suite(SuiteSpec("gamma-eigen", params={"vars": nvars}))["status"] == "pass"
    assert built == [("L", "+"), ("R", "+"), ("L", "-")]


def test_verify_json_lists_the_failures_of_a_failing_check(monkeypatch, capsys):
    # q_1[r, c] += d moves lhs_1 = q_1 + Lambda_1 q_0 by d and rhs_1 = t q_1
    # (below degree N) by t d: degree 1 fails at that entry
    N, n, d = 3, 2, F(1, 3)
    real = baxter_q.build_qmatrix

    def entry(q):
        return next((r, c, v) for r, c, v in q.block(1).entries() if r != c)

    def perturbed(*args):
        q = real(*args)
        r, c, _ = entry(q)
        q.block(1).add_to(r, c, d)
        return q

    monkeypatch.setattr(baxter_q, "build_qmatrix", perturbed)
    argv = ["verify", "tq", "--N", str(N), "--n", str(n), "--draws", "1", "--json"]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    [check] = report["checks"]
    assert report["status"] == check["status"] == "fail"
    t, x = (parse_scalar(part.split("=")[1]) for part in check["detail"].split())
    _, expect = baxter_q.tq_check(N, n, x, t, report["seed"] + 6)  # the suite's y seed
    assert check["failures"] == [{"N": N, "n": n, **f} for f in expect]
    basis = occupation_basis(N, n)
    r, c, v = entry(real(basis, x, t))
    labels = basis.labels()
    assert {"N": N, "n": n, "degree": 1, "row": labels[r], "col": labels[c],
            "lhs": format_scalar(t * v + d), "rhs": format_scalar(t * (v + d))} \
        in check["failures"]
    # a passing report has no failures key
    monkeypatch.setattr(baxter_q, "build_qmatrix", real)
    assert cli.main(argv) == 0
    assert "failures" not in json.loads(capsys.readouterr().out)["checks"][0]


def bump_one_entry(real, degree=1):
    """`real` with one off-diagonal entry of its degree block moved by 1/3."""
    def build(*args, **kwargs):
        op = real(*args, **kwargs)
        block = op.block(degree)
        r, c, _ = next((r, c, v) for r, c, v in block.entries() if r != c)
        block.add_to(r, c, F(1, 3))
        return op
    return build


def bump_one_column_entry(real, degree=1):
    """`real`, a {degree: {col: {row: value}}} map, with one off-diagonal
    entry of its degree columns moved by 1/3."""
    def build(*args, **kwargs):
        columns = real(*args, **kwargs)
        c, col = next((c, col) for c, col in columns[degree].items() if set(col) - {c})
        r = min(set(col) - {c})
        col[r] += F(1, 3)
        return columns
    return build


def doubled_pieri_kind(kind):
    """A PieriTable whose `kind` coefficients are doubled."""
    class Doubled(hall_littlewood.PieriTable):
        def strips(self, k, mu, max_size, cap=None):
            return [(lam, c * (2 if k == kind else 1))
                    for lam, c in super().strips(k, mu, max_size, cap)]
    return Doubled


def plus_one(real):
    """`real` with 1 added to its value."""
    return lambda *args, **kwargs: real(*args, **kwargs) + 1


def scaled(real, factor):
    """`real` with its operator scaled by `factor`."""
    return lambda *args, **kwargs: real(*args, **kwargs).scale(factor)


def scaled_value(real, factor):
    """`real` with its value multiplied by `factor`."""
    return lambda *args, **kwargs: real(*args, **kwargs) * factor


def omega_degree_two_off(real):
    """`real` with 1 added to its degree-2 coefficient."""
    def coeffs(*args):
        out = list(real(*args))
        out[2] += 1
        return out
    return coeffs


# (suite, params, failing check, module and attribute patched, wrapper of
# the real attribute, location keys of a failure item besides lhs and rhs)
CONVERTED_CHECKS = [
    ("lambda-q", {"draws": 1, "pairs": [(2, 2)]}, "transfer/Q commutation draw 0",
     ("lattice", "periodic_transfer"), bump_one_entry, {"N", "n", "bidegree", "row", "col"}),
    ("adjoint", {"max_weight": 3}, "branching adjoint relation",
     ("hall_littlewood", "PieriTable"), lambda real: doubled_pieri_kind("phi"), {"lam", "mu"}),
    ("adjoint", {"max_weight": 3}, "vertex operator adjoint pairs",
     ("vertex_ops", "build_gamma"), bump_one_entry, {"family", "degree", "row", "col"}),
    ("adjoint", {"max_weight": 3}, "Q reflected conjugation",
     ("lattice", "translation_op"), lambda real: scaled(real, 2),
     {"N", "n", "degree", "row", "col"}),
    ("gauge", {}, "periodic sector identification",
     ("lattice", "folded_toda_columns"), bump_one_column_entry,
     {"N", "n", "degree", "row", "col"}),
    ("gamma-eigen", {"D": 4, "degree": 2, "vars": 1}, "finite-size consistency N=1",
     ("lattice", "open_transfer"), bump_one_entry, {"direction", "degree", "row", "col"}),
    ("paper-matrices", {"draws": 1}, "printed 3x3 matrices draw 0",
     ("baxter_q", "build_qmatrix"), bump_one_entry, {"matrix", "entry"}),
    ("pieri", {"draws": 1, "max_weight": 3}, "Pieri rule draw 0",
     ("hall_littlewood", "PieriTable"), lambda real: doubled_pieri_kind("psi"), {"mu", "r"}),
    ("cauchy", {"draws": 1, "degree": 3}, "Cauchy identity draw 0",
     ("hall_littlewood", "omega_t_pair_coeffs"), omega_degree_two_off, {"degree"}),
    ("lascoux", {}, "symmetrizer reduction n=1",
     ("gaudin", "gaudin_det"), lambda real: scaled_value(real, 2), {"n"}),
    ("gaudin", {}, "sum vs determinant n=1",
     ("gaudin", "gaudin_det"), lambda real: scaled_value(real, 2), {"n", "s", "tail"}),
    ("bethe", {}, "interior staircase identity s=0",
     ("bethe", "x_hat"), plus_one, {"mu"}),
    ("bethe", {}, "integer-window graded relation",
     ("bethe", "_integer_psi"), plus_one, {"degree"}),
    ("bethe", {}, "two-body cancellation",
     ("bethe", "xi"), plus_one, set()),
]


@pytest.mark.parametrize("suite, params, check_name, target, wrap, where", CONVERTED_CHECKS,
                         ids=[f"{row[0]}: {row[2]}" for row in CONVERTED_CHECKS])
def test_a_failing_check_names_where_and_both_sides(monkeypatch, suite, params, check_name,
                                                    target, wrap, where):
    module = importlib.import_module(f"integrable_lab.{target[0]}")
    monkeypatch.setattr(module, target[1], wrap(getattr(module, target[1])))
    report = run_suite(SuiteSpec(suite, 0, params))
    assert report["status"] == "fail"
    [check] = [c for c in report["checks"] if c["name"] == check_name]
    assert check["status"] == "fail"
    first = check["failures"][0]
    assert set(first) == where | {"lhs", "rhs"}
    lhs, rhs = parse_scalar(first["lhs"]), parse_scalar(first["rhs"])
    assert lhs != rhs and (format_scalar(lhs), format_scalar(rhs)) == (first["lhs"], first["rhs"])
    json.dumps(report)  # the items are JSON-ready


class FirstPowerOff(F):
    """A t whose first power reads t + 1: every route that reads t^1
    disagrees with every route that multiplies t out."""

    def __pow__(self, k):
        return F(self) ** k + (k == 1)


def test_no_check_fails_without_failure_items(monkeypatch):
    # every suite that draws its t through _small_t, except cauchy (its
    # routes never read t^1), fails at such a t; gaudin draws no t
    real = suites._small_t
    monkeypatch.setattr(suites, "_small_t", lambda *args: FirstPowerOff(real(*args)))
    failing = set()
    for name in SUITE_NAMES:
        report = run_suite(SuiteSpec(name, 0))
        for check in report["checks"]:
            if check["status"] == "fail":
                failing.add(name)
                assert check["failures"], (name, check["name"])
    assert failing == set(SUITE_NAMES) - {"cauchy", "gaudin"}


@pytest.mark.parametrize("argv, unread", [
    (["eval", "P", "--vars", "1/2", "--t", "1/3", "--mu", "[1]"], "--mu"),
    (["eval", "Q", "--vars", "1/2", "--t", "1/3", "--mu=[9]", "--r=7", "--family=Qomega"],
     "--mu, --family, --r"),
    (["eval", "R", "--mu", "(1,0)", "--vars", "2,3", "--t", "1/2", "--lambda", "[1]"],
     "--lambda"),
    (["eval", "skew", "--lambda", "[2]", "--vars", "1/2", "--t", "1/3", "--r", "2"], "--r"),
    (["eval", "qr", "--vars", "1/2", "--t", "1/3", "--family", "P"], "--family"),
    (["eval", "er", "--vars", "1/2", "--t", "1/3"], "--t"),
    (["matrix", "lambda", "--D=9", "--sign=+", "--cap=3", "--s=1/2"],
     "--D, --sign, --cap, --s"),
    (["matrix", "q", "--family", "L"], "--family"),
    (["matrix", "gamma", "--x", "2"], "--x"),
    (["matrix", "lax", "--s", "1/2"], "--s"),
])
def test_eval_and_matrix_reject_flags_the_kind_does_not_read(argv, unread, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"does not read {unread} " in captured.err


def test_eval_and_matrix_reject_config_keys_the_kind_does_not_read(tmp_path, capsys):
    conf = tmp_path / "lab.conf"
    conf.write_text("t=1/3\n")
    assert cli.main(["eval", "er", "--vars", "1/2,1/3", "--config", str(conf)]) == 2
    assert "does not read --t" in capsys.readouterr().err
    conf.write_text("sign=+\n")
    assert cli.main(["matrix", "lambda", "--config", str(conf)]) == 2
    assert "does not read --sign" in capsys.readouterr().err


def test_eval_er_needs_no_t_and_the_other_kinds_need_it(capsys):
    assert cli.main(["eval", "er", "--vars", "1/2,1/3", "--r", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1/6"
    assert cli.main(["eval", "qr", "--vars", "1/2", "--r", "1"]) == 2
    assert "eval qr needs --t" in capsys.readouterr().err


def test_matrix_lax_reads_s_for_spin_s_only(capsys):
    assert cli.main(["matrix", "lax", "--family", "spin_s", "--cap", "2"]) == 0
    at_zero = capsys.readouterr().out
    assert cli.main(["matrix", "lax", "--family", "spin_s", "--cap", "2", "--s", "0"]) == 0
    assert capsys.readouterr().out == at_zero
    assert cli.main(["matrix", "lax", "--family", "qboson", "--s", "0"]) == 2


@pytest.mark.parametrize("argv, named", [
    (["pieri", "--draws=0"], "draws >= 1 (--draws), got 0"),
    (["gamma-eigen", "--vars=0"], "vars >= 1 (--vars), got 0"),
    (["rll", "--cap=0"], "cap >= 2 (--cap), got 0"),
    (["ar-project", "--N=0"], "N_max >= 1 (--N), got 0"),
    (["gamma-commute", "--degree=-1"], "degree >= 1 (--degree), got -1"),
    (["gamma-commute", "--D=0"], "D >= 4 (--D), got 0"),
    (["gamma-eigen", "--D=2", "--degree=3"], "D >= 3 (--D), got 2"),
    (["cauchy", "--degree=-1"], "degree >= 1 (--degree), got -1"),
    (["ar-project", "--max_weight=2"], "max_weight >= 4 (--max_weight), got 2"),
    (["tq", "--N=0"], "N_range >= 1 (--N), got 0"),
    (["hall-pieri", "--max_weight=-1"], "max_weight >= 0 (--max_weight), got -1"),
])
def test_verify_rejects_values_that_leave_a_check_nothing_to_assert(argv, named, monkeypatch,
                                                                   capsys):
    from integrable_lab import suites

    def never(*args, **kwargs):
        raise AssertionError("the suite started")

    monkeypatch.setattr(suites, "run_suite", never)
    monkeypatch.setattr(cli, "run_suite", never)
    assert cli.main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"suite {argv[0]!r} needs {named}" in captured.err


def test_run_suite_rejects_values_below_their_least_value():
    with pytest.raises(ValueError, match="max_len >= 3"):
        run_suite(SuiteSpec("ar-project", params={"N_max": 2, "max_len": 2}))
    with pytest.raises(ValueError, match="n_range >= 0"):
        run_suite(SuiteSpec("tq", params={"n_range": [2, -1]}))
    with pytest.raises(ValueError, match="N_range"):
        run_suite(SuiteSpec("tq", params={"N_range": []}))
    with pytest.raises(ValueError, match="max_r >= 1"):
        run_suite(SuiteSpec("pieri", params={"max_r": 0}))


def test_verify_paper_matrices_honours_draws(capsys):
    assert cli.main(["verify", "paper-matrices", "--draws=2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == [
        "printed 3x3 matrices draw 0", "printed 3x3 matrices draw 1"]
    assert len(run_suite(SuiteSpec("paper-matrices"))["checks"]) == 5


@pytest.mark.parametrize("argv, named", [
    (["--N=0", "--M=1"], "N=0"),
    (["--N=3", "--M=-1"], "M=-1"),
    (["--N=3", "--M=1", "--seeds=-2"], "seeds=-2"),
])
def test_cli_bethe_rejects_degenerate_inputs(argv, named, capsys):
    assert cli.main(["bethe", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


@pytest.fixture
def fresh_parsers():
    """The CLI's cached parsers are dropped before and after the test."""
    def clear():
        cli.build_parser.cache_clear()
        cli._config_parser.cache_clear()
    clear()
    yield clear
    clear()


def mixed_requests(tmp_path):
    conf = tmp_path / "mixed.conf"
    conf.write_text("t=2/7\nx=3/5\n")
    return [
        ["eval", "Q", "--lambda", "[2,1]", "--vars", "1/2,1/3", "--t", "1/5"],
        ["eval", "er", "--vars", "1/2,1/3", "--r", "2"],
        ["matrix", "q", "--N", "2", "--n", "2", "--t", "2/7", "--x", "3/5"],
        ["verify", "paper-matrices", "--json"],
        ["verify", "lascoux", "--seed", "3"],
        ["eval", "P", "--lambda", "oops", "--vars", "1/2", "--t", "1/5"],
        ["matrix", "lambda", "--bogus", "1"],
        ["eval", "Q", "--lambda", "[1]"],
        ["matrix", "lambda", "--N", "2", "--config", str(conf)],
        ["matrix", "lambda", "--config"],
        ["bethe", "--N", "2", "--M", "1", "--seeds", "4"],
        ["gaudin", "--U", "1/3", "--V", "1/2", "--t", "-1/2"],
        ["--help"],
        ["verify", "--help"],
        ["nonsense"],
    ]


def served(argv, capsys):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_builds_its_parsers_once_per_process(monkeypatch, capsys, tmp_path, fresh_parsers):
    # a subclass standing in for argparse.ArgumentParser would recurse
    # (argparse calls super(ArgumentParser, self)), so the constructor is wrapped
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    requests = mixed_requests(tmp_path)
    served(requests[0], capsys)
    # the main parser, one parser per subcommand and the --config pre-parser
    assert len(built) == 7
    built.clear()
    for argv in requests * 3:
        served(argv, capsys)
    assert built == []


def test_cli_requests_in_one_process_match_fresh_parsers(capsys, tmp_path, fresh_parsers):
    requests = mixed_requests(tmp_path)
    shared = [served(argv, capsys) for argv in requests + requests[::-1]]
    fresh = []
    for argv in requests:
        fresh_parsers()
        fresh.append(served(argv, capsys))
    assert shared == fresh + fresh[::-1]
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 2, 2, 2, 0, 2, 0, 0, 0, 0, 2]
    assert fresh[1][1] == "1/6\n"
    assert "usage: integrable-lab verify" in fresh[13][1]


def test_cli_reads_the_seed_variable_on_each_call(monkeypatch, capsys):
    seeds = []
    for value in ("3", "11", None):
        if value is None:
            monkeypatch.delenv("INTEGRABLE_LAB_SEED")
        else:
            monkeypatch.setenv("INTEGRABLE_LAB_SEED", value)
        code, out, _ = served(["verify", "paper-matrices", "--json"], capsys)
        assert code == 0
        seeds.append(json.loads(out)["seed"])
    assert seeds == [3, 11, 0]


def test_cli_malformed_seed_variable_is_a_usage_error_where_read(monkeypatch, capsys):
    monkeypatch.setenv("INTEGRABLE_LAB_SEED", "abc")
    for argv in (["verify", "paper-matrices"], ["bethe", "--N", "2", "--M", "1"]):
        code, out, err = served(argv, capsys)
        assert code == 2 and not out
        assert err == "error: INTEGRABLE_LAB_SEED must be an integer, not 'abc'\n"
    # eval reads no seed, and a typed --seed leaves the variable unread
    code, out, _ = served(["eval", "Q", "--lambda", "[1]", "--vars", "1/2", "--t", "1/3"], capsys)
    assert code == 0 and out == "1/3\n"
    assert served(["verify", "paper-matrices", "--seed", "1"], capsys)[0] == 0


def test_sweep_seeds_runs_the_suite_params_of_a_config_file(tmp_path, monkeypatch, capsys):
    # the CLI's key=value lines, each a param or a verify flag of the suite,
    # "a:b" a range: tq runs at N_range 1-2 and n_range 0-2; a key the
    # suite does not read is a usage error before any run
    path = Path(__file__).resolve().parent.parent / "tools" / "sweep_seeds.py"
    spec = importlib.util.spec_from_file_location("sweep_seeds", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    ran = []

    def recording(spec):
        ran.append(spec)
        return run_suite(spec)

    monkeypatch.setattr(sweep, "run_suite", recording)
    config = tmp_path / "sector.cfg"
    config.write_text("# tq at small sizes\nN_range=1:3\nn=[0, 1, 2]\ndraws=1\n")
    assert sweep.main(["tq", "--config", str(config), "--seeds", "0:2"]) == 0
    assert capsys.readouterr().out.startswith("2 runs, 0 failing")
    assert [(s.name, s.seed, s.params) for s in ran] == [
        ("tq", seed, {"N_range": range(1, 3), "n_range": [0, 1, 2], "draws": 1})
        for seed in (0, 1)]
    ran.clear()
    for line in ("pairs=[(2, 2)]", "draws=0", "draws=one"):
        config.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            sweep.main(["tq", "--config", str(config), "--seeds", "0:2"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
    assert ran == []
