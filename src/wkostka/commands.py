"""The enumerate, omega and solve commands: the order their flags name, the
value they compute, and its JSON, CSV or LaTeX form.  Each returns its
output for cli to write, and only these three commands load this module.
Only _omega imports omega, and only a fixture order imports fixtures, so
enumerate loads rpart alone."""
from __future__ import annotations

import io
import json

from . import BLOCKS, UsageError, rpart
from .rpart import OrderedIndex, RPartition


def _resolve_order(args) -> OrderedIndex:
    """The total order on P_{n,r} that --n, --r and --order name."""
    n, r, spec = args.n, args.r, args.order
    if spec == "default":
        return rpart.default_total_order(n, r)
    if spec.startswith("fixture:"):
        from .fixtures import load_fixture
        fid = spec.split(":", 1)[1]
        order = load_fixture(fid, r if fid == "n1rk" else None).order
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
    if (order.n, order.r) != (n, r):
        raise UsageError(f"order {spec!r} does not list P_{{n,r}} "
                         f"for n={n}, r={r}")
    return order


def _matrix_strings(rows) -> list:
    return [[str(e) for e in row] for row in rows]


def _csv(rows) -> str:
    import csv
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


def _latex_matrix(order, rows, name: str) -> str:
    """The matrix rows over order, captioned "name for n=.., r=.."."""
    return _latex("c|" + "c" * len(order),
                  [""] + [f"${mu}$" for mu in order.items],
                  [[f"${lam}$"] + [f"${e.to_latex()}$" for e in row]
                   for lam, row in zip(order.items, rows)],
                  f"{name} for n={order.n}, r={order.r}")


# -- enumerate ----------------------------------------------------------------


def cmd_enumerate(args) -> str:
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
        return json.dumps({"n": args.n, "r": args.r,
                           "n_star": rpart.n_star(args.n, args.r),
                           "rows": rows}, indent=2)
    if args.format == "csv":
        flat = [{**row, "weight": " ".join(str(x) for x in row["weight"])}
                for row in rows]
        return _csv([list(flat[0])] + [list(row.values()) for row in flat])
    return _latex(
        "c|ccccc",
        [r"$\lambda$", "weight", r"$n(\lambda)$", r"$a(\lambda)$",
         r"$\tau(\lambda)$", r"$\dim X_\lambda$"],
        [[f"${row['rpartition']}$", str(row["weight"]),
          str(row["n_value"]), str(row["a_value"]), f"${row['tau']}$",
          str(row["dim_x"])] for row in rows])


# -- omega --------------------------------------------------------------------


def omega_to_json(om) -> dict:
    return {"n": om.index.n, "r": om.index.r,
            "order": [str(lam) for lam in om.index.items],
            "entries": _matrix_strings(om.rows)}


def _omega(args):
    """Omega over the order args name.  The coset guard is checked first, as
    building an order compares every pair of the K r-partitions."""
    from . import omega as omega_mod
    omega_mod._check_coset_bound(rpart.count_rpartitions(args.n, args.r),
                                 args.coset_bound)
    return omega_mod.omega_matrix(args.n, args.r, _resolve_order(args),
                                  coset_n_bound=args.coset_bound)


def cmd_omega(args) -> str:
    om = _omega(args)
    if args.format == "json":
        return json.dumps(omega_to_json(om), indent=2)
    if args.format == "csv":
        return _csv_matrix(om.index, om.rows)
    return _latex_matrix(om.index, om.rows, "omega")


# -- solve ---------------------------------------------------------------------


# Block -> (its value in a FactorizationResult, and the csv and latex column
# headings of a diagonal block), paired by position with BLOCKS.  The rest
# are matrices; csv and latex show an IC block's raw matrix, JSON its flags
# too.
_BLOCK_TABLE = dict(zip(BLOCKS, (
    (lambda res: res.omega.rows, None),
    (lambda res: res.p_minus.rows, None),
    (lambda res: res.p_plus.rows, None),
    (lambda res: res.lam, ("xi", r"$\xi_{\lambda,\lambda}$")),
    (lambda res: res.theta, ("theta", r"$\theta_\lambda$")),
    (lambda res: res.lambda_prime, ("xi_prime", r"$\xi'_{\lambda,\lambda}$")),
    (lambda res: res.p_plus_modified.rows, None),
    (lambda res: res.ic_minus, None),
    (lambda res: res.ic_plus, None),
), strict=True))


def _selected(res, blocks):
    """(name, value, heading) of each block in blocks, in BLOCKS order."""
    for name, (read, heading) in _BLOCK_TABLE.items():
        if name in blocks:
            yield name, read(res), heading


def _ic_block(ic) -> dict:
    data = {"raw": _matrix_strings(ic.raw),
            "ok": [[e is not None for e in row] for row in ic.in_s],
            "in_s": [[str(e) if e is not None else None for e in row]
                     for row in ic.in_s]}
    if ic.column_asserted is not None:
        data["column_asserted"] = list(ic.column_asserted)
    return data


def solve_to_json(res, blocks) -> dict:
    from .factor import IcMatrix
    order = res.omega.index
    data = {"n": order.n, "r": order.r,
            "order": [str(lam) for lam in order.items],
            "a_values": list(res.a_values)}
    for name, value, heading in _selected(res, blocks):
        if isinstance(value, IcMatrix):
            value = _ic_block(value)
        elif heading:
            value = [str(x) for x in value]
        else:
            value = _matrix_strings(value)
        data[name.replace("-", "_")] = value
    return data


def _csv_block(res, name: str, value, heading) -> str:
    if heading is None:
        return f"# {name}\n" + _csv_matrix(res.omega.index, value)
    return _csv([["rpartition", "a_value", heading[0]]] +
                [[str(lam), a, str(x)] for lam, a, x
                 in zip(res.omega.index.items, res.a_values, value)])


def _latex_block(res, name: str, value, heading) -> str:
    if heading is None:
        return _latex_matrix(res.omega.index, value, name)
    return _latex("c|c|c", [r"$\lambda$", r"$a(\lambda)$", heading[1]],
                  [[f"${lam}$", str(a), f"${x.to_latex()}$"] for lam, a, x
                   in zip(res.omega.index.items, res.a_values, value)])


def cmd_solve(args) -> str:
    blocks = args.emit.split(",") if args.emit is not None else BLOCKS
    for b in blocks:
        if b not in BLOCKS:
            raise UsageError(f"unknown block {b!r}; choose from {', '.join(BLOCKS)}")
    from . import factor
    res = factor.solve_factorization(_omega(args))
    if args.format == "json":
        return json.dumps(solve_to_json(res, blocks), indent=2)
    render = _csv_block if args.format == "csv" else _latex_block
    return "\n".join(
        render(res, name, value.raw if isinstance(value, factor.IcMatrix)
               else value, heading)
        for name, value, heading in _selected(res, blocks))
