"""Command-line surface.

Subcommands: enumerate, omega, solve, verify, orders.  Exit codes: 0 on
success, 1 on verification failure, 2 on usage or input errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import factor, fixtures, greencheck, omega as omega_mod, rpart
from .exact import LaurentPoly
from .rpart import OrderedIndex, RPartition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _resolve_order(spec: str, n: int, r: int) -> OrderedIndex:
    if spec == "default":
        return rpart.default_total_order(n, r)
    if spec.startswith("fixture:"):
        fid = spec.split(":", 1)[1]
        fx = fixtures.load_fixture(fid, r if fid == "n1rk" else None)
        if fx.n != n or fx.r != r:
            raise UsageError(f"fixture {fid} is for (n,r)=({fx.n},{fx.r})")
        return fx.order
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path) as fh:
                items = [RPartition.parse(line.strip()) for line in fh
                         if line.strip()]
        except OSError as exc:
            raise UsageError(f"cannot read order file {path!r}: "
                             f"{exc.strerror}") from exc
        return OrderedIndex(tuple(items))
    raise UsageError(f"bad order spec {spec!r}")


def _size(value, default: int, least: int, flag: str) -> int:
    """A size flag: default when it is absent, and at least least."""
    if value is None:
        return default
    if value < least:
        raise UsageError(f"{flag} must be at least {least}")
    return value


def _emit(payload: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _matrix_strings(rows) -> list:
    return [[str(e) for e in row] for row in rows]


def _csv_matrix(order, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([""] + [str(mu) for mu in order.items])
    for lam, row in zip(order.items, rows):
        writer.writerow([str(lam)] + [str(e) for e in row])
    return buf.getvalue()


def _latex_matrix(order, rows, caption: str) -> str:
    lines = [f"% {caption}", r"\begin{tabular}{c|" + "c" * len(order) + "}"]
    lines.append(" & " + " & ".join(f"${mu}$" for mu in order.items) + r" \\ \hline")
    for lam, row in zip(order.items, rows):
        cells = " & ".join(f"${e.to_latex() if isinstance(e, LaurentPoly) else e}$"
                           for e in row)
        lines.append(f"${lam}$ & {cells} " + r"\\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


# -- enumerate ----------------------------------------------------------------


def cmd_enumerate(args) -> int:
    order = _resolve_order(args.order, args.n, args.r)
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
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            row = dict(row)
            row["weight"] = " ".join(str(x) for x in row["weight"])
            writer.writerow(row)
        payload = buf.getvalue()
    else:
        lines = [r"\begin{tabular}{c|ccccc}",
                 r"$\lambda$ & weight & $n(\lambda)$ & $a(\lambda)$ & "
                 r"$\tau(\lambda)$ & $\dim X_\lambda$ \\ \hline"]
        for row in rows:
            lines.append(f"${row['rpartition']}$ & {row['weight']} & "
                         f"{row['n_value']} & {row['a_value']} & "
                         f"${row['tau']}$ & {row['dim_x']} " + r"\\")
        lines.append(r"\end{tabular}")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)
    return EXIT_OK


# -- omega --------------------------------------------------------------------


def omega_to_json(om) -> dict:
    return {"n": om.n, "r": om.r,
            "order": [str(lam) for lam in om.order.items],
            "entries": _matrix_strings(om.entries.rows)}


def omega_from_json(data: dict):
    order = OrderedIndex(tuple(RPartition.parse(s) for s in data["order"]))
    from .exact import PolyMatrix
    rows = [[LaurentPoly.parse(s) for s in row] for row in data["entries"]]
    return omega_mod.OmegaMatrix(order, PolyMatrix(order, rows),
                                 data["n"], data["r"], "json")


def cmd_omega(args) -> int:
    order = _resolve_order(args.order, args.n, args.r)
    verdict = None
    if args.method == "both":
        om = omega_mod.omega_matrix(args.n, args.r, order, "cosets",
                                    coset_n_bound=args.coset_bound,
                                    wreath_bound=args.wreath_bound)
        om2 = omega_mod.omega_matrix(args.n, args.r, order, "wreath",
                                     coset_n_bound=args.coset_bound,
                                     wreath_bound=args.wreath_bound)
        verdict = "equal" if om.entries == om2.entries else "DIFFER"
    else:
        om = omega_mod.omega_matrix(args.n, args.r, order, args.method,
                                    coset_n_bound=args.coset_bound,
                                    wreath_bound=args.wreath_bound)
    if args.format == "json":
        data = omega_to_json(om)
        if verdict:
            data["verdict"] = verdict
        payload = json.dumps(data, indent=2)
    elif args.format == "csv":
        payload = _csv_matrix(order, om.entries.rows)
    else:
        payload = _latex_matrix(order, om.entries.rows,
                                f"omega for n={args.n}, r={args.r}")
    _emit(payload, args.out)
    if verdict == "DIFFER":
        return EXIT_FAIL
    return EXIT_OK


# -- solve ---------------------------------------------------------------------


BLOCKS = ("omega", "p-minus", "p-plus", "lambda", "theta", "lambda-prime",
          "p-plus-modified", "ic-minus", "ic-plus")


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
    if "omega" in blocks:
        data["omega"] = _matrix_strings(res.omega.entries.rows)
    if "p-minus" in blocks:
        data["p_minus"] = _matrix_strings(res.p_minus.rows)
    if "p-plus" in blocks:
        data["p_plus"] = _matrix_strings(res.p_plus.rows)
    if "lambda" in blocks:
        data["lambda"] = [str(x) for x in res.lam]
    if "theta" in blocks:
        data["theta"] = [str(x) for x in res.theta]
    if "lambda-prime" in blocks:
        data["lambda_prime"] = [str(x) for x in res.lambda_prime]
    if "p-plus-modified" in blocks:
        data["p_plus_modified"] = _matrix_strings(res.p_plus_modified.rows)
    if "ic-minus" in blocks:
        data["ic_minus"] = _ic_block(res.ic_minus)
    if "ic-plus" in blocks:
        data["ic_plus"] = _ic_block(res.ic_plus)
    return data


def cmd_solve(args) -> int:
    order = _resolve_order(args.order, args.n, args.r)
    method = args.method if args.method != "both" else "cosets"
    om = omega_mod.omega_matrix(args.n, args.r, order, method,
                                coset_n_bound=args.coset_bound,
                                wreath_bound=args.wreath_bound)
    res = factor.solve_factorization(om)
    blocks = args.emit.split(",") if args.emit else list(BLOCKS)
    for b in blocks:
        if b not in BLOCKS:
            raise UsageError(f"unknown block {b!r}; choose from {', '.join(BLOCKS)}")
    if args.format == "json":
        payload = json.dumps(solve_to_json(res, blocks), indent=2)
    elif args.format == "csv":
        chunks = []
        if "lambda" in blocks:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["rpartition", "a_value", "xi"])
            for lam, a, xi in zip(order.items, res.a_values, res.lam):
                writer.writerow([str(lam), a, str(xi)])
            chunks.append(buf.getvalue())
        for name, rows in (("p-minus", res.p_minus.rows),
                           ("p-plus", res.p_plus.rows)):
            if name in blocks:
                chunks.append(f"# {name}\n" + _csv_matrix(order, rows))
        payload = "\n".join(chunks)
    else:
        chunks = []
        if "lambda" in blocks:
            lines = [r"\begin{tabular}{c|c|c}",
                     r"$\lambda$ & $a(\lambda)$ & $\xi_{\lambda,\lambda}$ \\ \hline"]
            for lam, a, xi in zip(order.items, res.a_values, res.lam):
                lines.append(f"${lam}$ & {a} & ${xi.to_latex()}$ " + r"\\")
            lines.append(r"\end{tabular}")
            chunks.append("\n".join(lines) + "\n")
        for name, rows in (("p-minus", res.p_minus.rows),
                           ("p-plus", res.p_plus.rows)):
            if name in blocks:
                chunks.append(_latex_matrix(order, rows,
                                            f"{name} for n={args.n}, r={args.r}"))
        payload = "\n".join(chunks)
    _emit(payload, args.out)
    return EXIT_OK


# -- verify ---------------------------------------------------------------------


SUITES = ("fixtures", "lemma59", "thm55", "oracle", "symmetry",
          "classical-r1", "orders")


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


def _suite_oracle(args) -> greencheck.VerifyReport:
    if args.n is None and args.r is None:
        pairs = ((1, 3), (1, 4), (2, 3), (2, 4), (3, 3))
    elif args.n is None or args.r is None:
        raise UsageError("the oracle suite needs both --n and --r (or neither)")
    else:
        pairs = ((args.n, args.r),)
    report = greencheck.VerifyReport("oracle", {"instances": list(map(list, pairs))})
    for n, r in pairs:
        items = rpart.enumerate_rpartitions(n, r)
        for lam in items:
            for mu in items:
                a = omega_mod.omega_entry_cosets(lam, mu, r)
                b = omega_mod.omega_entry_bruteforce(lam, mu, r,
                                                     bound=args.wreath_bound)
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
    for r in range(1, r_max + 1):
        for n in range(0, n_max + 1):
            items = rpart.enumerate_rpartitions(n, r)
            entry = {}
            for lam in items:
                for mu in items:
                    entry[(lam, mu)] = omega_mod.omega_entry_cosets(lam, mu, r)
            for lam in items:
                for mu in items:
                    report.checked += 1
                    if entry[(lam, mu)] != entry[(lam.transpose(), mu.transpose())]:
                        report.violations.append(
                            {"kind": "transpose", "n": n, "r": r,
                             "lam": str(lam), "mu": str(mu)})
                    if r <= 2:
                        report.checked += 1
                        if entry[(lam, mu)] != entry[(mu, lam)]:
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


def _suite_orders(args) -> greencheck.VerifyReport:
    n = _size(args.n, 3, 0, "--n")
    r = _size(args.r, 1, 1, "--r")
    orders = rpart.sample_linear_extensions(n, r, args.samples, args.seed)
    seen, unique_orders = set(), []
    for o in orders:
        key = tuple(o.items)
        if key not in seen:
            seen.add(key)
            unique_orders.append(o)
    rep = factor.order_sensitivity(n, r, unique_orders)
    report = greencheck.VerifyReport(
        "orders", {"n": n, "r": r, "samples": args.samples,
                   "distinct_orders": len(unique_orders), "seed": args.seed})
    report.checked = len(unique_orders)
    if r <= 2 and not rep.fully_stable:
        for v in rep.comparable_mismatches + rep.incomparable_mismatches:
            report.violations.append(dict(v))
    report.params["comparable_mismatches"] = list(rep.comparable_mismatches)
    report.params["incomparable_mismatches"] = list(rep.incomparable_mismatches)
    return report


def cmd_verify(args) -> int:
    suite = args.suite
    if suite == "fixtures":
        report = _suite_fixtures(args)
    elif suite == "lemma59":
        n_max = _size(args.n, 4, 0, "--n")
        r_max = _size(args.r, 4, 1, "--r")
        report = greencheck.VerifyReport("lemma59", {"n_max": n_max, "r_max": r_max})
        for n in range(0, n_max + 1):
            for r in range(1, r_max + 1):
                for sub in (greencheck.lemma59_check(n, r),
                            greencheck.identity_5113_check(n, r)):
                    report.checked += sub.checked
                    report.violations.extend(sub.violations)
    elif suite == "thm55":
        mode = "numeric" if args.q else "symbolic"
        report = greencheck.thm55_check(_size(args.n, 2, 0, "--n"),
                                        _size(args.r, 3, 1, "--r"), mode,
                                        args.q or (2, 3, 4))
    elif suite == "oracle":
        report = _suite_oracle(args)
    elif suite == "symmetry":
        report = _suite_symmetry(args)
    elif suite == "classical-r1":
        report = _suite_classical(args)
    elif suite == "orders":
        report = _suite_orders(args)
    else:
        raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_orders(args) -> int:
    n = _size(args.n, 2, 0, "--n")
    r = _size(args.r, 3, 1, "--r")
    orders = rpart.sample_linear_extensions(n, r, args.samples, args.seed)
    seen, unique_orders = set(), []
    for o in orders:
        key = tuple(o.items)
        if key not in seen:
            seen.add(key)
            unique_orders.append(o)
    rep = factor.order_sensitivity(n, r, unique_orders)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkostka",
        description="Exact Kostka functions for the complex reflection "
                    "groups G(r,1,n)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--order", default="default",
                       help="default | fixture:ID | file:PATH")
        p.add_argument("--format", choices=("json", "csv", "latex"),
                       default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--method", choices=("cosets", "wreath", "both"),
                       default="cosets")
        p.add_argument("--coset-bound", type=int, default=omega_mod.COSET_N_BOUND)
        p.add_argument("--wreath-bound", type=int,
                       default=omega_mod.WREATH_ORACLE_BOUND)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=5)

    p_enum = sub.add_parser("enumerate", help="list P_{n,r} with statistics")
    common(p_enum)
    p_enum.set_defaults(fn=cmd_enumerate, need_n=True)

    p_omega = sub.add_parser("omega", help="build the fake-degree matrix")
    common(p_omega)
    p_omega.set_defaults(fn=cmd_omega, need_n=True)

    p_solve = sub.add_parser("solve", help="triangular factorization")
    common(p_solve)
    p_solve.add_argument("--emit", default=None,
                         help="comma list of " + ",".join(BLOCKS))
    p_solve.set_defaults(fn=cmd_solve, need_n=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument("suite", nargs="?", default=None)
    p_verify.add_argument("--suite", dest="suite_flag", default=None)
    p_verify.add_argument("--q", type=int, nargs="+", default=None)
    p_verify.set_defaults(fn=cmd_verify, need_n=False)

    p_orders = sub.add_parser("orders", help="order-sensitivity report")
    common(p_orders)
    p_orders.set_defaults(fn=cmd_orders, need_n=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            args.suite = args.suite_flag or args.suite
            if not args.suite:
                raise UsageError("verify needs a suite name")
        if getattr(args, "need_n", False):
            if args.n is None or args.r is None:
                raise UsageError(f"{args.command} needs --n and --r")
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (rpart.RPartitionError, fixtures.FixtureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (omega_mod.OmegaError, factor.FactorizationError,
            greencheck.GreenCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
