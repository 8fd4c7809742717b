"""The verify suites but thm55, whose body sits beside its check in
greencheck so that `verify thm55` compiles none of these.  Each suite takes
the parsed flags and returns a greencheck.VerifyReport, and imports the
modules that only it runs."""
from __future__ import annotations

from . import COSET_K_BOUND, UsageError, greencheck, omega as omega_mod, rpart
from .rpart import RPartition


def _suite_fixtures(args):
    from . import fixtures
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


def _suite_lemma59(args):
    report = greencheck.VerifyReport("lemma59",
                                     {"n_max": args.n, "r_max": args.r})
    for n in range(0, args.n + 1):
        for r in range(1, args.r + 1):
            for sub in (greencheck.lemma59_check(n, r),
                        greencheck.identity_5113_check(n, r)):
                report.checked += sub.checked
                report.violations.extend(sub.violations)
    return report


def _suite_oracle(args):
    from . import wreath
    if args.n is None and args.r is None:
        pairs = ((1, 3), (1, 4), (2, 3), (2, 4), (3, 3), (3, 4), (4, 3),
                 (6, 2), (3, 5))
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
                b = wreath.omega_entry_bruteforce(lam, mu, r)
                report.checked += 1
                if a != b:
                    report.violations.append(
                        {"n": n, "r": r, "lam": str(lam), "mu": str(mu),
                         "cosets": str(a), "wreath": str(b)})
    return report


# Each symmetry of Omega as (kind, image): Omega_(lam,mu) = Omega_image.
# Transposition transposes both; conjugation swaps them and takes the
# complex-conjugate characters (component j moves to -j mod r, so
# components 1..r-1 are reversed); rotation tensors both with delta
# (component j moves to j + 1 mod r), the identity at r = 1.
_SYMMETRIES = (
    ("transpose", lambda lam, mu: (lam.transpose(), mu.transpose())),
    ("conjugation", lambda lam, mu: tuple(
        RPartition(p.parts[:1] + p.parts[:0:-1]) for p in (mu, lam))),
    ("rotation", lambda lam, mu: tuple(
        RPartition(p.parts[-1:] + p.parts[:-1]) for p in (lam, mu))))


def _suite_symmetry(args):
    from . import factor
    report = greencheck.VerifyReport("symmetry",
                                     {"n_max": args.n, "r_max": args.r})
    # The direct route on both sides: omega_entry_cosets maps both to one
    # orbit representative, so it would make every twist check vacuous.
    entry = omega_mod._omega_entry_direct
    for r in range(1, args.r + 1):
        kinds = _SYMMETRIES if r > 1 else _SYMMETRIES[:2]
        for n in range(0, args.n + 1):
            items = rpart.enumerate_rpartitions(n, r)
            for lam in items:
                for mu in items:
                    for kind, image in kinds:
                        report.checked += 1
                        if entry(lam, mu, r) != entry(*image(lam, mu), r):
                            report.violations.append(
                                {"kind": kind, "n": n, "r": r,
                                 "lam": str(lam), "mu": str(mu)})
            if r <= 2:
                order = rpart.default_total_order(n, r)
                res = factor.solve_factorization(
                    omega_mod.omega_matrix(n, r, order))
                report.checked += 1
                if res.p_minus.rows != res.p_plus.rows:
                    report.violations.append(
                        {"kind": "P- != P+ at r<=2", "n": n, "r": r})
    return report


def _suite_classical(args):
    from . import charge, factor
    report = greencheck.VerifyReport("classical-r1", {"n_max": args.n})
    for n in range(1, args.n + 1):
        order = rpart.default_total_order(n, 1)
        res = factor.solve_factorization(omega_mod.omega_matrix(n, 1, order))
        for i, lam in enumerate(order.items):
            for j, mu in enumerate(order.items):
                want = charge.classical_modified_kostka(lam, mu)
                report.checked += 1
                if res.p_minus.rows[i][j] != want:
                    report.violations.append(
                        {"n": n, "lam": str(lam), "mu": str(mu),
                         "solver": str(res.p_minus.rows[i][j]),
                         "charge_oracle": str(want)})
    return report


def _suite_orders(args):
    """Order sensitivity over the sampled linear extensions, each taken once
    in order of first draw.  A mismatch fails the suite only at r <= 2,
    where P+- cannot depend on the order.  The coset route's guard is
    checked before any order is drawn, as in commands._omega."""
    from . import factor
    n, r, samples = args.n, args.r, args.samples
    omega_mod._check_coset_bound(rpart.count_rpartitions(n, r), COSET_K_BOUND)
    orders = {tuple(o.items): o for o in
              rpart.sample_linear_extensions(n, r, samples, args.seed)}
    comparable, incomparable = factor.order_sensitivity(orders.values())
    report = greencheck.VerifyReport(
        "orders", {"n": n, "r": r, "samples": samples,
                   "distinct_orders": len(orders), "seed": args.seed,
                   "comparable_mismatches": comparable,
                   "incomparable_mismatches": incomparable},
        checked=len(orders))
    if r <= 2:
        report.violations = comparable + incomparable
    return report
