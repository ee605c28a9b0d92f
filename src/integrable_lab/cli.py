"""Command-line entry point.

Subcommands: verify (run a named identity suite), eval (evaluate a
polynomial), matrix (dump an operator in the documented JSON schema),
bethe (solve a small root system), gaudin (truncated sum vs determinant).

All parameters are exact rational strings; the only floats anywhere are
the Bethe solver tolerances.  Exit codes: 0 pass, 1 identity failure
(including a suite that raised), 2 usage error.  A flag that the chosen
suite (`verify`) or kind (`eval`, `matrix`) does not read is a usage
error, and so is a `verify` value that would leave a check nothing to
assert.  INTEGRABLE_LAB_SEED overrides the default seed; `verify` and
`bethe` read it on each call, and a value that is not an integer is a
usage error.  A flat key=value config file (`--config file`) can supply
any flag that takes a value, required ones included: each line is passed
to the parser as `--key=value` ahead of the typed flags, so a typed flag
wins.  A key naming no such flag, and a missing or malformed file, are
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import traceback

from .baxter_q import build_qmatrix
from .bethe import bethe_solve, periodic_eigen_residual
from .gaudin import gaudin_det, gaudin_sum
from .graded import matrix_dump
from .hall_littlewood import (
    complete_q_coeffs,
    elementary_e_coeffs,
    hl_P,
    hl_Q,
    hl_R,
    skew_P,
    skew_Q_omega,
)
from .lattice import build_lax, periodic_transfer, single_site_basis
from .partitions import (
    occupation_basis,
    parse_partition,
    partition_basis,
)
from .scalars import format_scalar, parse_scalar
from .suites import SUITE_NAMES, SuiteSpec, run_suite, suite_flags, suite_params
from .vertex_ops import build_gamma

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# integer flags of `verify`: every flag some suite reads (suites.suite_flags)
VERIFY_FLAGS = tuple(dict.fromkeys(flag for name in SUITE_NAMES for flag in suite_flags(name)))

# the flags each `eval` and `matrix` kind reads, each with its default
# (None: required); `matrix lax` reads --s for the spin_s family only
EVAL_FLAGS = {
    "P": {"lambda": "[]", "vars": None, "t": None},
    "Q": {"lambda": "[]", "vars": None, "t": None},
    "R": {"mu": None, "vars": None, "t": None},
    "skew": {"lambda": "[]", "mu": "[]", "vars": None, "t": None, "family": "P"},
    "qr": {"vars": None, "t": None, "r": 1},
    "er": {"vars": None, "r": 1},
}
MATRIX_FLAGS = {
    "lambda": {"N": 2, "n": 2, "t": "1/3", "x": "2"},
    "q": {"N": 2, "n": 2, "t": "1/3", "x": "2"},
    "gamma": {"D": 4, "t": "1/3", "family": "L", "sign": "-"},
    "lax": {"cap": 4, "t": "1/3", "family": "qboson", "s": "0"},
}


def _parse_vars(text: str):
    return [parse_scalar(v) for v in text.split(",") if v.strip()]


def _parse_mu(text: str):
    text = text.strip()
    if text[:1] + text[-1:] in ("()", "[]"):
        text = text[1:-1]
    return tuple(int(v) for v in text.split(",") if v.strip())


def _load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


@functools.cache
def _config_parser():
    pre = argparse.ArgumentParser(prog="integrable-lab", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    return pre


def _config_flags(argv) -> list:
    """The lines of the `--config` file among argv, as `--key=value` tokens
    (none without the flag).  Raises OSError or ValueError for a file that
    cannot be read."""
    path = _config_parser().parse_known_args(argv)[0].config
    if path is None:
        return []
    return [f"--{key}={val}" for key, val in _load_config(path).items()]


def _reject_unread(args, what: str, flags, reads) -> None:
    """ValueError naming every flag among `flags` given to `what` (typed or
    from the config file) that is not among `reads`."""
    unread = [f"--{flag}" for flag in flags
              if getattr(args, flag) is not None and flag not in reads]
    if unread:
        known = ", ".join(f"--{flag}" for flag in reads) or "none"
        raise ValueError(f"{what} does not read {', '.join(unread)} (its flags: {known})")


def _read_flags(args, what: str, table: dict, reads: dict) -> None:
    """Reject every flag of `table` given to `what` that is not in `reads`,
    then set each flag of `reads` left unset to its default; one without a
    default raises ValueError."""
    _reject_unread(args, what, dict.fromkeys(f for kind in table.values() for f in kind), reads)
    for flag, default in reads.items():
        if getattr(args, flag) is None:
            if default is None:
                raise ValueError(f"{what} needs --{flag}")
            setattr(args, flag, default)


def _seed(args) -> int:
    """--seed if given, else INTEGRABLE_LAB_SEED, else 0; ValueError for a
    variable that is not an integer."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("INTEGRABLE_LAB_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"INTEGRABLE_LAB_SEED must be an integer, not {env!r}") from None


def cmd_verify(args) -> int:
    """Usage errors (an unknown suite, a flag the suite does not read, a
    value that would leave a check nothing to assert) exit 2 before the
    suite starts; an exception raised inside the suite is a failed check
    and exits 1."""
    reads = suite_flags(args.suite)  # KeyError (exit 2) for an unknown suite
    _reject_unread(args, f"suite {args.suite!r}", VERIFY_FLAGS, reads)
    spec = SuiteSpec(args.suite, seed=_seed(args),
                     params={reads[flag]: getattr(args, flag) for flag in reads
                             if getattr(args, flag) is not None})
    suite_params(spec)  # ValueError (exit 2) for a value below its least value
    try:
        report = run_suite(spec)
    except Exception as exc:  # the suite ran and broke: a failure, not misuse
        traceback.print_exc(file=sys.stderr)
        print(f"error: suite {args.suite!r} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_FAIL
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"suite {report['suite']} (seed {report['seed']}): {report['status'].upper()}")
        for check in report["checks"]:
            line = f"  [{check['status'].upper():4}] {check['name']}"
            if check.get("detail"):
                line += f"  ({check['detail']})"
            print(line)
    return EXIT_PASS if report["status"] == "pass" else EXIT_FAIL


def cmd_eval(args) -> int:
    kind = args.kind
    _read_flags(args, f"eval {kind}", EVAL_FLAGS, EVAL_FLAGS[kind])
    vals = _parse_vars(args.vars)
    t = None if args.t is None else parse_scalar(args.t)
    if kind in ("P", "Q"):
        lam = parse_partition(getattr(args, "lambda"))
        value = hl_P(lam, vals, t) if kind == "P" else hl_Q(lam, vals, t)
    elif kind == "R":
        value = hl_R(_parse_mu(args.mu), vals, t)
    elif kind == "skew":
        fn = skew_P if args.family == "P" else skew_Q_omega
        value = fn(parse_partition(getattr(args, "lambda")), parse_partition(args.mu), vals, t)
    elif args.r < 0:
        raise ValueError(f"--r must be a nonnegative degree, got {args.r}")
    elif kind == "qr":
        value = complete_q_coeffs(vals, t, args.r)[args.r]
    else:
        value = elementary_e_coeffs(vals, args.r)[args.r]
    print(format_scalar(value))
    return EXIT_PASS


def cmd_matrix(args) -> int:
    which = args.which
    reads = dict(MATRIX_FLAGS[which])
    if which == "lax" and args.family != "spin_s":
        del reads["s"]  # only the spin-s Lax reads s
    _read_flags(args, f"matrix {which}", MATRIX_FLAGS, reads)
    t = parse_scalar(args.t)
    if which in ("lambda", "q"):
        basis = occupation_basis(args.N, args.n)
        build, title = (periodic_transfer, "transfer") if which == "lambda" else \
            (build_qmatrix, "qmatrix")
        op = build(basis, parse_scalar(args.x), t)
        meta = {"display_note": "the 3x3 example appears in reversed basis order"}
        dump = matrix_dump(op, basis, f"{title} N={args.N} n={args.n}", meta)
    elif which == "gamma":
        basis = partition_basis(args.D)
        vop = build_gamma(args.family, args.sign, basis, t)
        dump = matrix_dump(vop.op, basis, f"gamma {vop.family}{args.sign} D={args.D}")
    else:
        family = args.family
        if family not in ("qboson", "spin_s"):
            raise ValueError(f"matrix lax takes --family qboson or spin_s, not {family!r}")
        basis = single_site_basis(args.cap)
        params = {"t": t, "s": parse_scalar(args.s)} if family == "spin_s" else {"t": t}
        lax = build_lax(family, basis, params)
        dump = {
            "name": f"lax {family}",
            "basis": basis.labels(),
            "entries": {f"{i}{j}": matrix_dump(lax[i][j], basis, f"L[{i}][{j}]")["entries"]
                        for i in range(2) for j in range(2)},
        }
    print(json.dumps(dump, indent=2, sort_keys=True))
    return EXIT_PASS


def cmd_bethe(args) -> int:
    system = bethe_solve(args.N, args.M, parse_scalar(args.t), parse_scalar(args.s),
                         parse_scalar(args.x), seeds=args.seeds, seed=_seed(args))
    out = system.to_json()
    if args.M > 0 and system.roots:
        out["eigen_residual"] = periodic_eigen_residual(system, complex(0.37))
    print(json.dumps(out, indent=2, sort_keys=True))
    ok = bool(system.roots) or args.M == 0
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_gaudin(args) -> int:
    t = parse_scalar(args.t)
    s = parse_scalar(args.s)
    U = _parse_vars(args.U)
    V = _parse_vars(args.V)
    n = len(U)
    val, tail = gaudin_sum(n, U, V, t, s, args.truncation)
    det = gaudin_det(n, U, V, t)
    gap = val - det if val >= det else det - val
    ok = gap <= tail
    print(json.dumps({
        "n": n,
        "sum": format_scalar(val),
        "determinant": format_scalar(det),
        "tail_bound": format_scalar(tail),
        "within_bound": ok,
    }, indent=2, sort_keys=True))
    return EXIT_PASS if ok else EXIT_FAIL


@functools.cache
def build_parser():
    """The parser of every subcommand, built on first use and then shared.
    It holds no per-call state: `_seed` resolves the seed default, and
    `main` looks up the command's function on each call."""
    parser = argparse.ArgumentParser(
        prog="integrable-lab",
        description="Exact checks for q-boson/Toda transfer matrices, "
                    "Hall-Littlewood polynomials, Baxter Q-matrices and Bethe systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named identity suite", allow_abbrev=False)
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--config")
    for flag in VERIFY_FLAGS:
        p_verify.add_argument(f"--{flag}", type=int, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a polynomial exactly", allow_abbrev=False)
    # every kind-specific flag defaults to None: EVAL_FLAGS holds the defaults
    p_eval.add_argument("kind", choices=list(EVAL_FLAGS))
    p_eval.add_argument("--lambda")
    p_eval.add_argument("--mu")
    p_eval.add_argument("--vars", required=True, help="comma-separated rationals")
    p_eval.add_argument("--t", help="required by every kind but er")
    p_eval.add_argument("--r", type=int)
    p_eval.add_argument("--family", choices=["P", "Qomega"], help="skew only")
    p_eval.add_argument("--config")

    p_matrix = sub.add_parser("matrix", help="dump an operator as JSON", allow_abbrev=False)
    # every flag defaults to None: MATRIX_FLAGS holds the defaults
    p_matrix.add_argument("which", choices=list(MATRIX_FLAGS))
    p_matrix.add_argument("--N", type=int)
    p_matrix.add_argument("--n", type=int)
    p_matrix.add_argument("--D", type=int)
    p_matrix.add_argument("--cap", type=int)
    p_matrix.add_argument("--t")
    p_matrix.add_argument("--x")
    p_matrix.add_argument("--s", help="lax --family spin_s only")
    p_matrix.add_argument("--family", help="gamma: L|R (default L); lax: qboson|spin_s")
    p_matrix.add_argument("--sign", choices=["+", "-"])
    p_matrix.add_argument("--config")

    p_bethe = sub.add_parser("bethe", help="solve a small Bethe system", allow_abbrev=False)
    p_bethe.add_argument("--N", type=int, required=True)
    p_bethe.add_argument("--M", type=int, required=True)
    p_bethe.add_argument("--t", default="1/3")
    p_bethe.add_argument("--s", default="0")
    p_bethe.add_argument("--x", default="1")
    p_bethe.add_argument("--seeds", type=int, default=20)
    p_bethe.add_argument("--seed", type=int)
    p_bethe.add_argument("--config")

    p_gaudin = sub.add_parser("gaudin", help="truncated scalar product vs determinant",
                              allow_abbrev=False)
    p_gaudin.add_argument("--U", required=True, help="comma-separated rationals")
    p_gaudin.add_argument("--V", required=True)
    p_gaudin.add_argument("--t", default="2/7")
    p_gaudin.add_argument("--s", default="0")
    p_gaudin.add_argument("--truncation", type=int, default=60)
    p_gaudin.add_argument("--config")

    return parser


def _attach_negative_values(argv):
    """["--t", "-1/2"] -> ["--t=-1/2"]: argparse reads a token that starts
    with "-" and is not a plain number as an option, so a negative rational
    given as its own token would leave its flag without a value."""
    out = []
    for token in argv:
        if out and re.match(r"-[\d.]", token) and re.fullmatch(r"--\w+", out[-1]):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        # config keys follow the subcommand and precede the typed flags
        args = parser.parse_args(argv[:1] + _config_flags(argv[1:]) + argv[1:])
    except (OSError, ValueError) as exc:
        print(f"error: config file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    command = globals()[f"cmd_{args.command}"]  # looked up per call, not bound in the parser
    try:
        return command(args)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
