"""Command-line surface.

Subcommands: enumerate, omega, solve, verify, orders; each accepts only the
flags it reads.  Exit codes: 0 on success, 1 on verification failure, solver
error or a tripped guard bound, 2 on usage or input errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import factor, fixtures, greencheck, omega as omega_mod, rpart
from .exact import LaurentPoly, PolyMatrix
from .rpart import OrderedIndex, RPartition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _resolve_order(args) -> OrderedIndex:
    """The total order on P_{n,r} that --n, --r and --order name."""
    n, r, spec = args.n, args.r, args.order
    if n is None or r is None:
        raise UsageError(f"{args.command} needs --n and --r")
    if spec == "default":
        return rpart.default_total_order(n, r)
    if spec.startswith("fixture:"):
        fid = spec.split(":", 1)[1]
        order = fixtures.load_fixture(fid, r if fid == "n1rk" else None).order
    elif spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path, encoding="utf-8") as fh:
                items = [RPartition.parse(line.strip()) for line in fh
                         if line.strip()]
        except OSError as exc:
            raise UsageError(f"cannot read order file {path!r}: "
                             f"{exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"order file {path!r} is not UTF-8 text") from exc
        order = OrderedIndex(tuple(items))
    else:
        raise UsageError(f"bad order spec {spec!r}")
    if set(order.items) != set(rpart.enumerate_rpartitions(n, r)):
        raise UsageError(f"order {spec!r} does not list P_{{n,r}} "
                         f"for n={n}, r={r}")
    return order


def _size(value, default: int, least: int, flag: str) -> int:
    """A size flag: default when it is absent, and at least least."""
    if value is None:
        return default
    if value < least:
        raise UsageError(f"{flag} must be at least {least}")
    return value


def _emit(payload: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path!r}: "
                             f"{exc.strerror}") from exc
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _matrix_strings(rows) -> list:
    return [[str(e) for e in row] for row in rows]


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _latex(columns: str, head: list, rows, caption: str | None = None) -> str:
    """A tabular: the column spec, a ruled header row, then rows of cells."""
    lines = [f"% {caption}"] if caption else []
    lines += [r"\begin{tabular}{" + columns + "}",
              " & ".join(head) + r" \\ \hline"]
    lines += [" & ".join(row) + r" \\" for row in rows]
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


def _csv_matrix(order, rows) -> str:
    return _csv([[""] + [str(mu) for mu in order.items]] +
                [[str(lam)] + [str(e) for e in row]
                 for lam, row in zip(order.items, rows)])


def _latex_matrix(order, rows, caption: str) -> str:
    return _latex("c|" + "c" * len(order),
                  [""] + [f"${mu}$" for mu in order.items],
                  [[f"${lam}$"] + [f"${e.to_latex()}$" for e in row]
                   for lam, row in zip(order.items, rows)],
                  caption)


# -- enumerate ----------------------------------------------------------------


def cmd_enumerate(args) -> int:
    order = _resolve_order(args)
    rows = []
    for lam in order.items:
        rows.append({
            "rpartition": str(lam),
            "weight": list(lam.weight().parts),
            "n_value": lam.n_value(),
            "a_value": lam.a_value(),
            "tau": str(lam.tau()),
            "transpose": str(lam.transpose()),
            "dim_x": rpart.dim_x(lam),
        })
    if args.format == "json":
        payload = json.dumps({"n": args.n, "r": args.r,
                              "n_star": rpart.n_star(args.n, args.r),
                              "rows": rows}, indent=2)
    elif args.format == "csv":
        flat = [{**row, "weight": " ".join(str(x) for x in row["weight"])}
                for row in rows]
        payload = _csv([list(flat[0])] + [list(row.values()) for row in flat])
    else:
        payload = _latex(
            "c|ccccc",
            [r"$\lambda$", "weight", r"$n(\lambda)$", r"$a(\lambda)$",
             r"$\tau(\lambda)$", r"$\dim X_\lambda$"],
            [[f"${row['rpartition']}$", str(row["weight"]),
              str(row["n_value"]), str(row["a_value"]), f"${row['tau']}$",
              str(row["dim_x"])] for row in rows])
    _emit(payload, args.out)
    return EXIT_OK


# -- omega --------------------------------------------------------------------


def omega_to_json(om) -> dict:
    return {"n": om.n, "r": om.r,
            "order": [str(lam) for lam in om.order.items],
            "entries": _matrix_strings(om.entries.rows)}


def omega_from_json(data: dict):
    order = OrderedIndex(tuple(RPartition.parse(s) for s in data["order"]))
    rows = [[LaurentPoly.parse(s) for s in row] for row in data["entries"]]
    return omega_mod.OmegaMatrix(order, PolyMatrix(order, rows),
                                 data["n"], data["r"], "json")


def _omega(args, order, method: str):
    return omega_mod.omega_matrix(args.n, args.r, order, method,
                                  coset_n_bound=args.coset_bound,
                                  wreath_bound=args.wreath_bound)


def cmd_omega(args) -> int:
    order = _resolve_order(args)
    om = _omega(args, order, args.method)
    if args.format == "json":
        payload = json.dumps(omega_to_json(om), indent=2)
    elif args.format == "csv":
        payload = _csv_matrix(order, om.entries.rows)
    else:
        payload = _latex_matrix(order, om.entries.rows,
                                f"omega for n={args.n}, r={args.r}")
    _emit(payload, args.out)
    return EXIT_OK


# -- solve ---------------------------------------------------------------------


# Block -> (its value in a FactorizationResult, and the csv and latex column
# headings of a diagonal block).  The rest are matrices; csv and latex show
# an IC block's raw matrix, JSON its flags too.
_BLOCK_TABLE = {
    "omega": (lambda res: res.omega.entries.rows, None),
    "p-minus": (lambda res: res.p_minus.rows, None),
    "p-plus": (lambda res: res.p_plus.rows, None),
    "lambda": (lambda res: res.lam, ("xi", r"$\xi_{\lambda,\lambda}$")),
    "theta": (lambda res: res.theta, ("theta", r"$\theta_\lambda$")),
    "lambda-prime": (lambda res: res.lambda_prime,
                     ("xi_prime", r"$\xi'_{\lambda,\lambda}$")),
    "p-plus-modified": (lambda res: res.p_plus_modified.rows, None),
    "ic-minus": (lambda res: res.ic_minus, None),
    "ic-plus": (lambda res: res.ic_plus, None),
}
BLOCKS = tuple(_BLOCK_TABLE)


def _selected(res, blocks):
    """(name, value, heading) of each block in blocks, in BLOCKS order."""
    for name, (read, heading) in _BLOCK_TABLE.items():
        if name in blocks:
            yield name, read(res), heading


def _ic_block(ic) -> dict:
    data = {"raw": _matrix_strings(ic.raw),
            "ok": [list(row) for row in ic.ok],
            "in_s": [[str(e) if e is not None else None for e in row]
                     for row in ic.in_s]}
    if ic.column_asserted is not None:
        data["column_asserted"] = list(ic.column_asserted)
    return data


def solve_to_json(res, blocks) -> dict:
    data = {"n": res.omega.n, "r": res.omega.r,
            "order": [str(lam) for lam in res.order.items],
            "a_values": list(res.a_values)}
    for name, value, heading in _selected(res, blocks):
        if isinstance(value, factor.IcMatrix):
            value = _ic_block(value)
        elif heading:
            value = [str(x) for x in value]
        else:
            value = _matrix_strings(value)
        data[name.replace("-", "_")] = value
    return data


def _csv_block(res, name: str, value, heading) -> str:
    if heading is None:
        return f"# {name}\n" + _csv_matrix(res.order, value)
    return _csv([["rpartition", "a_value", heading[0]]] +
                [[str(lam), a, str(x)]
                 for lam, a, x in zip(res.order.items, res.a_values, value)])


def _latex_block(res, name: str, value, heading) -> str:
    if heading is None:
        caption = f"{name} for n={res.omega.n}, r={res.omega.r}"
        return _latex_matrix(res.order, value, caption)
    return _latex("c|c|c", [r"$\lambda$", r"$a(\lambda)$", heading[1]],
                  [[f"${lam}$", str(a), f"${x.to_latex()}$"]
                   for lam, a, x in zip(res.order.items, res.a_values, value)])


def cmd_solve(args) -> int:
    order = _resolve_order(args)
    blocks = args.emit.split(",") if args.emit is not None else BLOCKS
    for b in blocks:
        if b not in BLOCKS:
            raise UsageError(f"unknown block {b!r}; choose from {', '.join(BLOCKS)}")
    res = factor.solve_factorization(_omega(args, order, args.method))
    if args.format == "json":
        payload = json.dumps(solve_to_json(res, blocks), indent=2)
    else:
        render = _csv_block if args.format == "csv" else _latex_block
        payload = "\n".join(
            render(res, name, value.raw if isinstance(value, factor.IcMatrix)
                   else value, heading)
            for name, value, heading in _selected(res, blocks))
    _emit(payload, args.out)
    return EXIT_OK


# -- verify ---------------------------------------------------------------------


def _suite_fixtures(args) -> greencheck.VerifyReport:
    report = greencheck.VerifyReport("fixtures", {})
    jobs = [("n1r3", None), ("n2r3", None), ("n3r3", None)] + \
        [("n1rk", r) for r in range(2, 7)]
    for fid, r in jobs:
        fx = fixtures.load_fixture(fid, r)
        rec = fixtures.reconstruction_check(fx)
        sub = fixtures.check_fixture(fx)
        report.checked += rec.checked + sub.checked
        for v in rec.violations + sub.violations:
            v = dict(v)
            v["fixture_id"] = f"{fid}" + (f"(r={r})" if r else "")
            report.violations.append(v)
    return report


def _suite_lemma59(args) -> greencheck.VerifyReport:
    n_max = _size(args.n, 4, 0, "--n")
    r_max = _size(args.r, 4, 1, "--r")
    report = greencheck.VerifyReport("lemma59", {"n_max": n_max, "r_max": r_max})
    for n in range(0, n_max + 1):
        for r in range(1, r_max + 1):
            for sub in (greencheck.lemma59_check(n, r),
                        greencheck.identity_5113_check(n, r)):
                report.checked += sub.checked
                report.violations.extend(sub.violations)
    return report


def _suite_thm55(args) -> greencheck.VerifyReport:
    if args.q and min(args.q) < 2:
        raise UsageError("--q takes field orders, each at least 2")
    mode = "numeric" if args.q else "symbolic"
    return greencheck.thm55_check(_size(args.n, 2, 0, "--n"),
                                  _size(args.r, 3, 1, "--r"), mode,
                                  args.q or (2, 3, 4))


def _suite_oracle(args) -> greencheck.VerifyReport:
    if args.n is None and args.r is None:
        pairs = ((1, 3), (1, 4), (2, 3), (2, 4), (3, 3))
    elif args.n is None or args.r is None:
        raise UsageError("the oracle suite needs both --n and --r (or neither)")
    else:
        pairs = ((args.n, args.r),)
    report = greencheck.VerifyReport("oracle", {"instances": list(map(list, pairs))})
    for n, r in pairs:
        omega_mod._check_oracle_bound(n, r, args.wreath_bound)
        items = rpart.enumerate_rpartitions(n, r)
        for lam in items:
            for mu in items:
                a = omega_mod.omega_entry_cosets(lam, mu, r)
                b = omega_mod.omega_entry_bruteforce(lam, mu, r)
                report.checked += 1
                if a != b:
                    report.violations.append(
                        {"n": n, "r": r, "lam": str(lam), "mu": str(mu),
                         "cosets": str(a), "wreath": str(b)})
    return report


def _suite_symmetry(args) -> greencheck.VerifyReport:
    n_max = _size(args.n, 3, 0, "--n")
    r_max = _size(args.r, 3, 1, "--r")
    report = greencheck.VerifyReport("symmetry", {"n_max": n_max, "r_max": r_max})
    entry = omega_mod.omega_entry_cosets
    for r in range(1, r_max + 1):
        for n in range(0, n_max + 1):
            items = rpart.enumerate_rpartitions(n, r)
            for lam in items:
                for mu in items:
                    report.checked += 1
                    if entry(lam, mu, r) != entry(lam.transpose(), mu.transpose(), r):
                        report.violations.append(
                            {"kind": "transpose", "n": n, "r": r,
                             "lam": str(lam), "mu": str(mu)})
                    if r <= 2:
                        report.checked += 1
                        if entry(lam, mu, r) != entry(mu, lam, r):
                            report.violations.append(
                                {"kind": "r<=2 symmetry", "n": n, "r": r,
                                 "lam": str(lam), "mu": str(mu)})
            if r <= 2:
                order = rpart.default_total_order(n, r)
                om = omega_mod.omega_matrix(n, r, order)
                res = factor.solve_factorization(om)
                report.checked += 1
                if res.p_minus.rows != res.p_plus.rows:
                    report.violations.append(
                        {"kind": "P- != P+ at r<=2", "n": n, "r": r})
    return report


def _suite_classical(args) -> greencheck.VerifyReport:
    n_max = _size(args.n, 4, 1, "--n")
    report = greencheck.VerifyReport("classical-r1", {"n_max": n_max})
    for n in range(1, n_max + 1):
        order = rpart.default_total_order(n, 1)
        om = omega_mod.omega_matrix(n, 1, order)
        res = factor.solve_factorization(om)
        for i, lam in enumerate(order.items):
            for j, mu in enumerate(order.items):
                want = factor.classical_modified_kostka(lam, mu)
                report.checked += 1
                if res.p_minus.rows[i][j] != want:
                    report.violations.append(
                        {"n": n, "lam": str(lam), "mu": str(mu),
                         "solver": str(res.p_minus.rows[i][j]),
                         "charge_oracle": str(want)})
    return report


def _order_sensitivity(n: int, r: int, args) -> factor.OrderSensitivityReport:
    """Order sensitivity over the sampled linear extensions, each taken once
    in order of first draw."""
    orders = rpart.sample_linear_extensions(n, r, args.samples, args.seed)
    return factor.order_sensitivity(
        n, r, {tuple(o.items): o for o in orders}.values())


def _suite_orders(args) -> greencheck.VerifyReport:
    n = _size(args.n, 3, 0, "--n")
    r = _size(args.r, 1, 1, "--r")
    rep = _order_sensitivity(n, r, args)
    report = greencheck.VerifyReport(
        "orders", {"n": n, "r": r, "samples": args.samples,
                   "distinct_orders": rep.orders_used, "seed": args.seed})
    report.checked = rep.orders_used
    if r <= 2 and not rep.fully_stable:
        for v in rep.comparable_mismatches + rep.incomparable_mismatches:
            report.violations.append(dict(v))
    report.params["comparable_mismatches"] = list(rep.comparable_mismatches)
    report.params["incomparable_mismatches"] = list(rep.incomparable_mismatches)
    return report


# Suite -> (its function, the flags it reads besides --out).
SUITES = {
    "fixtures": (_suite_fixtures, ()),
    "lemma59": (_suite_lemma59, ("--n", "--r")),
    "thm55": (_suite_thm55, ("--n", "--r", "--q")),
    "oracle": (_suite_oracle, ("--n", "--r", "--wreath-bound")),
    "symmetry": (_suite_symmetry, ("--n", "--r")),
    "classical-r1": (_suite_classical, ("--n",)),
    "orders": (_suite_orders, ("--n", "--r", "--seed", "--samples")),
}
_SUITE_FLAGS = tuple(dict.fromkeys(f for _, reads in SUITES.values()
                                   for f in reads))


def cmd_verify(args) -> int:
    if not args.suite:
        raise UsageError("verify needs a suite name")
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; "
                         f"choose from {', '.join(SUITES)}")
    suite, reads = SUITES[args.suite]
    # The parser leaves an absent suite flag None; it takes its default here.
    for flag in _SUITE_FLAGS:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, _FLAGS[flag]["default"])
        elif flag not in reads:
            raise UsageError(f"verify {args.suite} does not read {flag}")
    report = suite(args)
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_orders(args) -> int:
    n = _size(args.n, 2, 0, "--n")
    r = _size(args.r, 3, 1, "--r")
    rep = _order_sensitivity(n, r, args)
    payload = json.dumps({
        "n": n, "r": r, "samples": args.samples, "seed": args.seed,
        "distinct_orders": rep.orders_used,
        "comparable_mismatches": list(rep.comparable_mismatches),
        "incomparable_mismatches": list(rep.incomparable_mismatches),
        "comparable_stable": rep.comparable_stable,
    }, indent=2)
    _emit(payload, args.out)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


# The flags that more than one subcommand reads, and the verify suite flags,
# each spelled once.
_FLAGS = {
    "--n": dict(type=int, default=None),
    "--r": dict(type=int, default=None),
    "--order": dict(default="default", help="default | fixture:ID | file:PATH"),
    "--format": dict(choices=("json", "csv", "latex"), default="json"),
    "--out": dict(default=None),
    "--coset-bound": dict(type=int, default=omega_mod.COSET_K_BOUND),
    "--wreath-bound": dict(type=int, default=omega_mod.WREATH_ORACLE_BOUND),
    "--method": dict(choices=("cosets", "wreath"), default="cosets"),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=int, default=5),
    "--q": dict(type=int, nargs="+", default=None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkostka",
        description="Exact Kostka functions for the complex reflection "
                    "groups G(r,1,n)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    table = ("--n", "--r", "--order", "--format", "--out")
    bounds = ("--coset-bound", "--wreath-bound")
    command("enumerate", cmd_enumerate, "list P_{n,r} with statistics", *table)
    p_omega = command("omega", cmd_omega, "build the fake-degree matrix",
                      *table, *bounds, "--method")
    p_solve = command("solve", cmd_solve, "triangular factorization",
                      *table, *bounds, "--method")
    p_solve.add_argument("--emit", default=None,
                         help="comma list of " + ",".join(BLOCKS))
    p_verify = command("verify", cmd_verify, "run a verification suite",
                       "--out")
    p_verify.add_argument("suite", nargs="?", default=None,
                          help=" | ".join(SUITES))
    for flag in _SUITE_FLAGS:
        p_verify.add_argument(flag, **{**_FLAGS[flag], "default": None})
    command("orders", cmd_orders, "order-sensitivity report",
            "--n", "--r", "--out", "--seed", "--samples")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (UsageError, rpart.RPartitionError, fixtures.FixtureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (omega_mod.OmegaError, factor.FactorizationError,
            greencheck.GreenCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
