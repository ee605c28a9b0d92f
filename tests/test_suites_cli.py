import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from integrable_lab import baxter_q, cli, hall_littlewood
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
    # the suite enumerates strips below each lam; the pairs are those of
    # the scan over every pair of partitions, lam/lam included
    seen = []

    class Recording(hall_littlewood.PieriTable):
        def coeff(self, kind, lam, mu):
            if kind == "phi":
                seen.append((lam, mu))
            return super().coeff(kind, lam, mu)

    monkeypatch.setattr(hall_littlewood, "PieriTable", Recording)
    report = run_suite(SuiteSpec("adjoint", params={"max_weight": 6}))
    assert report["checks"][0]["status"] == "pass"
    parts = partition_basis(6).states
    scan = {(lam, mu) for lam in parts for mu in parts if is_horizontal_strip(lam, mu)}
    assert len(seen) == len(set(seen))
    assert set(seen) == scan


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
    _, expect = baxter_q.tq_check(N, n, x, t)
    assert check["failures"] == [{"N": N, "n": n, **f} for f in expect]
    r, c, v = entry(real(N, n, x, t))
    labels = occupation_basis(N, n).labels()
    assert {"N": N, "n": n, "degree": 1, "row": labels[r], "col": labels[c],
            "lhs": format_scalar(t * v + d), "rhs": format_scalar(t * (v + d))} \
        in check["failures"]
    # a passing report has no failures key
    monkeypatch.setattr(baxter_q, "build_qmatrix", real)
    assert cli.main(argv) == 0
    assert "failures" not in json.loads(capsys.readouterr().out)["checks"][0]


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
