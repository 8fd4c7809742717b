"""Command-line surface: the parser and the dispatcher.

Subcommands: enumerate, omega, solve, verify; each accepts only the flags it
reads and loads only the modules it runs.  The parser builds only the
command, and the verify suite, that argv names, and main then loads the
module that runs it: `commands` for enumerate, omega and solve,
`greencheck` for verify thm55 and `suites` for the other verify suites.
Exit codes: 0 on success, 1 on verification failure or a wkostka.Failure
(a solver error or a tripped guard bound), 2 on a wkostka.UsageError (bad
usage or input).  Every error is one `error:` line on stderr.

Importing this module loads argparse and the package root, which holds the
guard bounds, the solve blocks and the two error bases, and no other
wkostka module.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import (BLOCKS, COSET_K_BOUND, WREATH_ORACLE_BOUND, Failure,
               UsageError)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def __getattr__(name: str):
    """solve_to_json, read from commands on first use (PEP 562), so that
    importing this module does not compile it."""
    if name != "solve_to_json":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import commands
    return getattr(commands, name)


def _emit(payload: str, out_path: str | None):
    """Write payload to out_path, or else to stdout, ending in a newline."""
    end = "" if payload.endswith("\n") else "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(payload)
                fh.write(end)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path!r}: "
                             f"{exc.strerror}") from exc
        return
    try:
        sys.stdout.write(payload)
        sys.stdout.write(end)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone; stdout now leads to os.devnull, so that the
        # interpreter's last flush of what is still buffered cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# Suite -> (the function that runs it, as "module.function" in this
# package, which returns a greencheck.VerifyReport; and {flag: (default,
# least)} for each flag it reads besides --out); a least of None takes any
# value.
SUITES = {
    "fixtures": ("suites._suite_fixtures", {}),
    "lemma59": ("suites._suite_lemma59", {"--n": (4, 0), "--r": (4, 1)}),
    "thm55": ("greencheck._suite_thm55",
              {"--n": (2, 0), "--r": (3, 1), "--q": (None, 2)}),
    "oracle": ("suites._suite_oracle",
               {"--n": (None, 0), "--r": (None, 1),
                "--wreath-bound": (WREATH_ORACLE_BOUND, 1)}),
    "symmetry": ("suites._suite_symmetry", {"--n": (3, 0), "--r": (3, 1)}),
    "classical-r1": ("suites._suite_classical", {"--n": (4, 1)}),
    "orders": ("suites._suite_orders", {"--n": (3, 0), "--r": (2, 1),
                                        "--seed": (0, None),
                                        "--samples": (5, 1)}),
}


def _load(target: str):
    """The function target names, "module.function" in this package; the
    module is imported on first use."""
    module, name = target.split(".")
    module = f"{__package__}.{module}"
    __import__(module)
    return getattr(sys.modules[module], name)


# -- argument parsing -----------------------------------------------------------


# The argparse keywords of each flag, spelled once; a verify suite's flag
# takes its default from SUITES.
_FLAGS = {
    "--n": dict(type=int),
    "--r": dict(type=int),
    "--order": dict(default="default", help="default | fixture:ID | file:PATH"),
    "--format": dict(choices=("json", "csv", "latex"), default="json"),
    "--out": dict(default=None),
    "--coset-bound": dict(type=int, default=COSET_K_BOUND),
    "--wreath-bound": dict(type=int, default=WREATH_ORACLE_BOUND),
    "--seed": dict(type=int),
    "--samples": dict(type=int),
    "--q": dict(type=int, nargs="+"),
}


class _Parser(argparse.ArgumentParser):
    """Its errors are UsageErrors: one `error:` line and exit 2, with no
    usage block."""

    def error(self, message):
        raise UsageError(message)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """One sub-parser per command and per verify suite.  A command's sets
    run, the "module.function" that runs it; each sets least, {flag: least
    value} of the flags it checks.

    When argv's first word is a command and, after verify, its second word
    a suite, only the parsers on that path are built: argparse reads the
    first word as the command and the second as the suite, so they are the
    ones that run.  For any other argv (none, a leading flag, an unknown
    word, a bare verify) the whole tree is, so that help pages and choice
    errors list every choice."""
    paths = [(c,) for c in ("enumerate", "omega", "solve")] + \
        [("verify", suite) for suite in SUITES]
    path = next((p for p in paths if tuple(argv or ())[:len(p)] == p), None)

    def built(*names) -> bool:
        return path is None or path[:len(names)] == names

    parser = _Parser(
        prog="wkostka",
        description="Exact Kostka functions for the complex reflection "
                    "groups G(r,1,n)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, least, *flags):
        if not built(name):
            return
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=f"commands.cmd_{name}",
                       least={"--n": 0, "--r": 1, **least})
        for flag in ("--n", "--r"):
            p.add_argument(flag, required=True, **_FLAGS[flag])
        for flag in ("--order", "--format", "--out", *flags):
            p.add_argument(flag, **_FLAGS[flag])
        if name == "solve":
            p.add_argument("--emit", default=None,
                           help="comma list of " + ",".join(BLOCKS))
            # Read by bench/traced.py, which builds Omega itself.
            p.set_defaults(method="cosets", wreath_bound=WREATH_ORACLE_BOUND)

    guards = {"--coset-bound": 1}
    command("enumerate", "list P_{n,r} with statistics", {})
    command("omega", "build the fake-degree matrix", guards, *guards)
    command("solve", "triangular factorization", guards, *guards)
    if not built("verify"):
        return parser
    p_verify = sub.add_parser("verify", help="run a verification suite")
    suites = p_verify.add_subparsers(dest="suite", required=True)
    for suite, (_, flags) in SUITES.items():
        if not built("verify", suite):
            continue
        p = suites.add_parser(suite)
        p.set_defaults(least={f: least for f, (_, least) in flags.items()
                              if least is not None})
        p.add_argument("--out", **_FLAGS["--out"])
        for flag, (default, _) in flags.items():
            p.add_argument(flag, **{**_FLAGS[flag], "default": default})
    return parser


def _check_least(args):
    """Every value of each flag in args.least is at least its least value."""
    for flag, least in args.least.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and \
                min(value if isinstance(value, list) else [value]) < least:
            raise UsageError(f"{flag} must be at least {least}")


def main(argv=None) -> int:
    """Run the command argv names; a command returns its output, a verify
    suite its report."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        _check_least(args)
        if args.command != "verify":
            _emit(_load(args.run)(args), args.out)
            return EXIT_OK
        report = _load(SUITES[args.suite][0])(args)
        _emit(report.to_json(), args.out)
        return EXIT_OK if report.passed else EXIT_FAIL
    except SystemExit as exc:  # --help; the parser's errors raise UsageError
        return exc.code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
