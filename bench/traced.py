"""Traced in-process run of one benchmark workload.

    PYTHONPATH=src python3 bench/traced.py solve --n 3 --r 4
    PYTHONPATH=src python3 bench/traced.py verify thm55 --n 3 --r 3

The arguments are the workload's `wkostka` arguments, parsed by the CLI's own
parser.  The run wraps the entry point of every layer with a timing span or a
counter, calls the same public functions the CLI calls, and prints one JSON
line: the per-layer metrics and the sha256 of the bytes the CLI would have
written to stdout.  Nothing inside `src/` is edited; every wrapper replaces
the name the caller looks up, in the caller's module.
"""
from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from wkostka import cli, exact, factor, greencheck, omega, rpart, symgrp

# Modules whose lru_caches are summed into "<module>.cache_entries".
CACHE_MODULES = (rpart, exact, symgrp, omega, factor)

# Span name -> metric names for its total time, self time and call count.
SPAN_METRICS = {
    "rpart.order": ("rpart.order_s", None, None),
    "symgrp.double_cosets": ("symgrp.double_cosets_s", None, None),
    "symgrp.intersection": ("symgrp.intersection_s", None,
                            "symgrp.intersection_calls"),
    "omega.matrix": ("omega.matrix_s", "omega.matrix_self_s", None),
    "factor.solve": ("factor.solve_s", "factor.eliminate_self_s", None),
    "factor.reconstruct": ("factor.reconstruct_s", None, None),
    "factor.derive": ("factor.derive_s", None, None),
    "exact.poly_gcd": ("exact.poly_gcd_s", None, "exact.poly_gcd_calls"),
    "greencheck.thm55": ("greencheck.thm55_s", None, None),
    "greencheck.inner_product": ("greencheck.inner_product_s", None,
                                 "greencheck.inner_products"),
    "cli.serialize": ("cli.serialize_s", None, None),
}

# Counters that only count calls; they carry no timer, to keep them cheap.
COUNTERS = ("symgrp.double_cosets", "symgrp.coset_members", "omega.entries",
            "exact.exact_div_calls", "exact.rf_constructions",
            "exact.laurent_muls")


class Trace:
    """Spans and counters of one run.

    A span's self time is its duration minus the time covered by the spans
    that ran inside it.
    """

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._open = []  # child time accumulated by each open span

    def span(self, name, fn, observe=None):
        """fn wrapped in a span; observe(result) runs after the clock stops."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                inner = self._open.pop()
                self.total[name] += took
                self.self_time[name] += took - inner
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += took
            if observe is not None:
                observe(result)
            return result
        return wrapper

    def counted(self, name, fn, observe=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result
        return wrapper


def _replace(owner, name, make):
    setattr(owner, name, make(getattr(owner, name)))


def lru_caches(module) -> list:
    """The lru_cache-wrapped functions defined at module level in module."""
    return [obj for obj in vars(module).values()
            if hasattr(obj, "cache_info")
            and getattr(obj, "__module__", None) == module.__name__]


def growth(values) -> tuple:
    """(largest |exponent|, largest coefficient bit length) over Laurent
    polynomials or rational functions (numerator and denominator)."""
    degree = bits = 0
    for v in values:
        polys = (v.num, v.den) if isinstance(v, exact.RationalFunction) else (v,)
        for p in polys:
            for e, c in p.items():
                degree = max(degree, abs(e))
                bits = max(bits, abs(c.numerator).bit_length(),
                           c.denominator.bit_length())
    return degree, bits


def contingency_tables(items) -> int:
    """Sum over the weight pairs (m, m') of the number of
    contingency matrices with those margins: the work count of a coset
    kernel built from rpart.enumerate_contingency."""
    weights = sorted({lam.weight().parts for lam in items})
    return sum(len(rpart.enumerate_contingency(rpart.Composition(m),
                                               rpart.Composition(mp)))
               for m in weights for mp in weights)


class TracedRun:
    """One workload run in this process with every layer wrapped."""

    def __init__(self):
        self.trace = Trace()
        self.items = ()
        self.entries = []
        self.result = None
        self.caches = {mod.__name__.split(".")[-1]: lru_caches(mod)
                       for mod in CACHE_MODULES}

    def install(self):
        tr = self.trace

        def note_cosets(cosets):
            tr.counts["symgrp.double_cosets"] += len(cosets)
            tr.counts["symgrp.coset_members"] += sum(dc.size for dc in cosets)

        for mod in (omega, greencheck):
            _replace(mod, "double_cosets",
                     lambda fn: tr.span("symgrp.double_cosets", fn, note_cosets))
            _replace(mod, "intersection_elements",
                     lambda fn: tr.span("symgrp.intersection", fn))
        # solve reaches Omega entries through omega_matrix, which looks the
        # entry function up in omega; thm55 calls greencheck's binding.
        _replace(omega, "omega_entry_cosets",
                 lambda fn: tr.counted("omega.entries", fn, self.entries.append))
        _replace(greencheck, "omega_entry_cosets",
                 lambda fn: tr.span("omega.matrix", tr.counted(
                     "omega.entries", fn, self.entries.append)))
        _replace(greencheck, "enumerate_rpartitions",
                 lambda fn: tr.span("rpart.order", fn, self._keep_items))
        _replace(greencheck, "green_inner_product",
                 lambda fn: tr.span("greencheck.inner_product", fn))
        _replace(factor, "_verify_reconstruction",
                 lambda fn: tr.span("factor.reconstruct", fn))
        for name in ("theta_diag", "lambda_prime", "modified_pplus",
                     "ic_minus_matrix", "ic_plus_candidate"):
            _replace(factor, name, lambda fn: tr.span("factor.derive", fn))
        _replace(exact, "poly_gcd", lambda fn: tr.span("exact.poly_gcd", fn))
        _replace(exact, "exact_div",
                 lambda fn: tr.counted("exact.exact_div_calls", fn))
        _replace(exact.RationalFunction, "__init__",
                 lambda fn: tr.counted("exact.rf_constructions", fn))
        mul = tr.counted("exact.laurent_muls", exact.LaurentPoly.__mul__)
        exact.LaurentPoly.__mul__ = exact.LaurentPoly.__rmul__ = mul

    def _keep_items(self, items):
        self.items = tuple(items)

    def solve(self, args) -> str:
        tr = self.trace
        if args.order != "default" or args.method != "cosets" \
                or args.format != "json" or args.emit or args.out:
            raise SystemExit("traced solve supports the default order, "
                             "the coset method and JSON to stdout only")
        order = tr.span("rpart.order", rpart.default_total_order,
                        self._keep_items)(args.n, args.r)
        om = tr.span("omega.matrix", omega.omega_matrix)(
            args.n, args.r, order, "cosets", coset_n_bound=args.coset_bound,
            wreath_bound=args.wreath_bound)
        self.result = tr.span("factor.solve", factor.solve_factorization)(om)
        return tr.span("cli.serialize", lambda res: json.dumps(
            cli.solve_to_json(res, cli.BLOCKS), indent=2))(self.result)

    def thm55(self, args) -> str:
        tr = self.trace
        if args.q or args.out:
            raise SystemExit("traced thm55 supports the symbolic mode to "
                             "stdout only")
        self.result = tr.span("greencheck.thm55", greencheck.thm55_check)(
            args.n or 2, args.r or 3, "symbolic", (2, 3, 4))
        return tr.span("cli.serialize", self.result.to_json)()

    def metrics(self, total_s: float, output: bytes) -> dict:
        tr = self.trace
        out = {}
        for span, (total_name, self_name, calls_name) in SPAN_METRICS.items():
            out[total_name] = tr.total.get(span, 0.0)
            if self_name:
                out[self_name] = tr.self_time.get(span, 0.0)
            if calls_name:
                out[calls_name] = tr.calls.get(span, 0)
        for name in COUNTERS:
            out[name] = tr.counts.get(name, 0)
        out["rpart.K"] = len(self.items)
        out["rpart.contingency_tables"] = contingency_tables(self.items)
        out["omega.max_degree"], out["omega.max_coeff_bits"] = \
            growth(self.entries)
        res = self.result
        if isinstance(res, factor.FactorizationResult):
            lam_growth = growth(res.lam)
            p_growth = growth(e for m in (res.p_minus, res.p_plus)
                              for row in m.rows for e in row)
            checked = 0
        else:
            lam_growth = p_growth = (0, 0)
            checked = res.checked
        out["factor.lambda_max_degree"], out["factor.lambda_max_coeff_bits"] = \
            lam_growth
        out["factor.p_max_degree"], out["factor.p_max_coeff_bits"] = p_growth
        out["greencheck.checked"] = checked
        for module, caches in self.caches.items():
            out[f"{module}.cache_entries"] = sum(c.cache_info().currsize
                                                 for c in caches)
        out["cli.output_bytes"] = len(output)
        out["trace.total_s"] = total_s
        return out


def cli_bytes(payload: str) -> bytes:
    """What cli._emit writes to stdout for payload."""
    if not payload.endswith("\n"):
        payload += "\n"
    return payload.encode()


def main(argv) -> int:
    src = Path(cli.__file__).resolve().parent.parent
    if src != (Path.cwd() / "src").resolve():
        raise SystemExit(f"wkostka was imported from {src}, not ./src")
    args = cli.build_parser().parse_args(argv)
    run = TracedRun()
    run.install()
    start = time.perf_counter()
    if args.command == "solve":
        payload = run.solve(args)
    elif args.command == "verify" and args.suite == "thm55":
        payload = run.thm55(args)
    else:
        raise SystemExit(f"no traced run for {' '.join(argv)}")
    total_s = time.perf_counter() - start
    output = cli_bytes(payload)
    print(json.dumps({"output_sha256": hashlib.sha256(output).hexdigest(),
                      "metrics": run.metrics(total_s, output)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
