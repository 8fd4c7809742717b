"""Regression fixtures: the worked examples transcribed into data files.

Each fixture carries the explicitly printed tables for one (n, r) instance
in its own hardcoded total order.  Known misprints in the source tables are
kept verbatim under the "errata" key together with the value forced by the
factorization's uniqueness; the checker demands that everything else match
bit-exactly and that erratum cells match their forced values.
"""
from __future__ import annotations

import json
from importlib import resources

from .exact import LaurentPoly
from .factor import (FactorizationResult, reconstruction_mismatches,
                     solve_factorization)
from .greencheck import VerifyReport
from .omega import omega_matrix
from .record import Record
from .rpart import OrderedIndex, RPartition

FIXTURE_IDS = ("n1r3", "n1rk", "n2r3", "n3r3")


class FixtureError(ValueError):
    pass


class Fixture(Record):
    """One fixture: order is an OrderedIndex, the tables are lists of
    LaurentPoly rows (None where the source prints none), errata a dict."""

    __slots__ = ("id", "n", "r", "order", "a_values",
                 "p_minus",           # lower-triangle rows of LaurentPoly
                 "p_plus",
                 "xi",                # diagonal of LaurentPoly
                 "omega",             # full square of LaurentPoly
                 "theta", "lambda_prime", "p_plus_modified",
                 "p_minus_modified", "ic_minus_printed", "ic_plus_printed",
                 "ic_plus_candidate", "errata")
    _defaults = {**dict.fromkeys(__slots__[5:-1]), "errata": {}}


def _parse_tri(rows, size) -> list:
    out = []
    for i, row in enumerate(rows):
        if len(row) != i + 1:
            raise FixtureError(f"triangle row {i} has length {len(row)}")
        parsed = [LaurentPoly.parse(s) for s in row]
        parsed += [LaurentPoly.zero()] * (size - len(parsed))
        out.append(parsed)
    if len(out) != size:
        raise FixtureError("triangle does not cover the order")
    return out


def load_fixture(fixture_id: str, r: int | None = None) -> Fixture:
    """Load one of the bundled fixtures; n1rk takes the target r."""
    if fixture_id == "n1rk":
        if r is None or r < 2:
            raise FixtureError("the general-r fixture needs r >= 2")
        return _n1rk_fixture(r)
    if fixture_id not in FIXTURE_IDS:
        raise FixtureError(f"unknown fixture {fixture_id!r}")
    raw = json.loads(resources.files("wkostka.data")
                     .joinpath(f"{fixture_id}.json").read_text())
    order = OrderedIndex(tuple(RPartition.parse(s) for s in raw["order"]))
    size = len(order)
    fx = Fixture(id=raw["id"], n=raw["n"], r=raw["r"], order=order,
                 a_values=list(raw["a_values"]),
                 errata=raw.get("errata", {}))
    if "omega" in raw:
        fx.omega = [[LaurentPoly.parse(s) for s in row] for row in raw["omega"]]
    for key in ("p_minus", "p_plus", "p_minus_modified", "ic_minus_printed",
                "ic_plus_printed", "ic_plus_candidate", "p_plus_modified"):
        if key in raw:
            setattr(fx, key, _parse_tri(raw[key], size))
    for key in ("xi", "theta", "lambda_prime"):
        if key in raw:
            setattr(fx, key, [LaurentPoly.parse(s) for s in raw[key]])
    return fx


def _n1rk_fixture(r: int) -> Fixture:
    """The general-r closed forms for n = 1, materialized at a given r."""
    from .rpart import default_total_order
    order = default_total_order(1, r)
    t = LaurentPoly.t_power
    p_minus = [[t(r - i)] * i for i in range(1, r + 1)]
    p_plus = []
    for i in range(1, r + 1):
        row = [LaurentPoly.zero()] * i
        row[i - 1] = t(r - i)
        if i >= 2:
            row[0] = t(i - 2)
        p_plus.append(row)
    xi = [LaurentPoly.one()] + [t(2 * i - 2) - t(2 * i - 2 - r)
                                for i in range(2, r + 1)]
    theta = [LaurentPoly.one()] + [t(r - 2 * (i - 1)) for i in range(2, r + 1)]
    lam_prime = [LaurentPoly.one()] + [t(r) - 1] * (r - 1)
    ic_minus = [[LaurentPoly.one()] * i for i in range(1, r + 1)]
    ic_plus = []
    for i in range(1, r + 1):
        row = [LaurentPoly.zero()] * i
        row[0] = LaurentPoly.one()
        row[i - 1] = LaurentPoly.one()
        ic_plus.append(row)
    return Fixture(id="n1rk", n=1, r=r, order=order,
                   a_values=[r - i for i in range(1, r + 1)],
                   p_minus=p_minus, p_plus=p_plus, xi=xi, theta=theta,
                   lambda_prime=lam_prime,
                   ic_minus_printed=ic_minus, ic_plus_printed=ic_plus)


def _tri_iter(size):
    for i in range(size):
        for j in range(i + 1):
            yield i, j


def _cell(rows, at):
    return rows[at] if isinstance(at, int) else rows[at[0]][at[1]]


def check_fixture(fx: Fixture, result: FactorizationResult | None = None) -> VerifyReport:
    """Compare a fixture against a freshly solved factorization.

    Verbatim mismatches outside the documented errata are violations;
    erratum cells must instead match their recorded forced values.
    """
    report = VerifyReport("fixtures", {"id": fx.id, "n": fx.n, "r": fx.r})
    if result is None:
        om = omega_matrix(fx.n, fx.r, fx.order)
        result = solve_factorization(om)
    size = len(fx.order)
    diag = range(size)
    square = [(i, j) for i in range(size) for j in range(size)]
    tri = list(_tri_iter(size))
    # Table -> {cell: (printed value, value forced by uniqueness)}.
    errata = {
        "a_values": {int(k): (v["printed"], v["consistent"])
                     for k, v in fx.errata.get("a_values", {}).items()},
        "xi": {int(k): (LaurentPoly.parse(v["printed"]),
                        LaurentPoly.parse(v["consistent"]))
               for k, v in fx.errata.get("xi", {}).items()},
    }

    def mismatch(table, where, got, want):
        report.violations.append({"table": table, "at": where,
                                  "computed": str(got), "fixture": str(want)})

    for name, fixture_side, computed_side, cells in (
            ("a_values", fx.a_values, result.a_values, diag),
            ("omega", fx.omega, result.omega.entries.rows, square),
            ("p_minus", fx.p_minus, result.p_minus.rows, tri),
            ("p_plus", fx.p_plus, result.p_plus.rows, tri),
            ("xi", fx.xi, result.lam, diag),
            ("theta", fx.theta, result.theta, diag),
            ("lambda_prime", fx.lambda_prime, result.lambda_prime, diag),
            ("p_plus_modified", fx.p_plus_modified,
             result.p_plus_modified.rows, tri),
            ("p_minus_modified", fx.p_minus_modified, result.ic_minus.raw, tri),
            ("ic_minus", fx.ic_minus_printed, result.ic_minus.raw, tri),
            ("ic_plus_candidate", fx.ic_plus_candidate, result.ic_plus.raw,
             tri)):
        if fixture_side is None:
            continue
        table_errata = errata.get(name, {})
        for at in cells:
            report.checked += 1
            got = _cell(computed_side, at)
            want = _cell(fixture_side, at)
            if at in table_errata:
                printed, forced = table_errata[at]
                if got != forced or want != printed:
                    mismatch(f"{name}(erratum)", at, got, want)
            elif got != want:
                mismatch(name, at, got, want)
            elif name == "ic_minus" and not _cell(result.ic_minus.ok, at):
                mismatch("ic_minus(flag)", at, "not in Z>=0[t^r]", "flag")

    # The candidate must match the printed IC+ matrix exactly where the
    # source tables coincide (n = 1) and differ somewhere where they do not.
    if fx.ic_plus_printed is not None:
        diffs = 0
        for i, j in _tri_iter(size):
            if result.ic_plus.raw[i][j] != fx.ic_plus_printed[i][j]:
                diffs += 1
        report.checked += 1
        expect_diff = fx.id == "n2r3"
        if expect_diff and diffs == 0:
            report.violations.append(
                {"table": "ic_plus_printed",
                 "at": "matrix",
                 "computed": "candidate equals the printed IC+ matrix",
                 "fixture": "the source observes they differ"})
        if not expect_diff and diffs:
            report.violations.append(
                {"table": "ic_plus_printed", "at": "matrix",
                 "computed": f"{diffs} entries differ",
                 "fixture": "candidate should equal the printed IC+ matrix"})
    return report


def reconstruction_check(fx: Fixture) -> VerifyReport:
    """Internal transcription guard: P- Lambda tP+ rebuilt from the fixture's
    own tables must equal the fixture's omega (when printed).  Every cell is
    checked, by the solver's packed identity; each mismatch is reported."""
    report = VerifyReport("fixture-reconstruction", {"id": fx.id})
    if fx.omega is None or fx.p_minus is None or fx.p_plus is None or fx.xi is None:
        return report
    report.checked = len(fx.xi) ** 2
    for i, j in reconstruction_mismatches(fx.p_minus, fx.xi, fx.p_plus,
                                          fx.omega):
        report.violations.append({"at": (i, j), "omega": str(fx.omega[i][j])})
    return report
