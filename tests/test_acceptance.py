"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime against the stated budget."""
import itertools
import time
from fractions import Fraction
from math import factorial

import pytest

from wkostka.charge import classical_modified_kostka
from wkostka.exact import LaurentPoly
from wkostka.factor import solve_factorization
from wkostka.fixtures import (check_fixture, load_fixture,
                              reconstruction_check)
from wkostka.greencheck import (identity_5113_check, lemma59_check,
                                thm55_check)
from wkostka.omega import (_omega_entry_direct, omega_entry_cosets,
                           omega_matrix)
from wkostka.rpart import (Composition, RPartition, default_total_order,
                           dim_x, dim_xm_unip, enumerate_contingency,
                           enumerate_rpartitions, partitions)
from wkostka.symgrp import centralizer_order, double_cosets, mn_character
from wkostka.wreath import omega_entry_bruteforce, rho_character, zeta_coords


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS {self.name} [{self.elapsed:.2f}s / "
                  f"budget {self.seconds}s]")
            assert self.elapsed < self.seconds, \
                f"{self.name} exceeded its runtime budget"
        return False


def test_criterion_1_section_7_1_exact():
    with Budget("criterion 1: n=1 r=3 tables bit-exact", 1.0):
        fx = load_fixture("n1r3")
        assert reconstruction_check(fx).passed
        om = omega_matrix(1, 3, fx.order)
        res = solve_factorization(om)
        rep = check_fixture(fx, res)
        assert rep.passed, rep.violations
        # bit-exactness under the canonical grammar
        assert [[str(e) for e in row] for row in om.rows] == \
            [["t^4", "t^2", "t^3"], ["t^3", "t^4", "t^2"],
             ["t^2", "t^3", "t^4"]]
        assert [str(x) for x in res.lam] == ["1", "t^2 - t^-1", "t^4 - t"]


def test_criterion_2_general_r_closed_forms():
    with Budget("criterion 2: n=1, r=2..6 closed forms", 5.0):
        for r in range(2, 7):
            fx = load_fixture("n1rk", r)
            res = solve_factorization(omega_matrix(1, r, fx.order))
            rep = check_fixture(fx, res)
            assert rep.passed, (r, rep.violations)


def test_criterion_3_section_7_3_exact():
    with Budget("criterion 3: n=2 r=3 fixture order", 10.0):
        fx = load_fixture("n2r3")
        res = solve_factorization(omega_matrix(2, 3, fx.order))
        rep = check_fixture(fx, res)
        assert rep.passed, rep.violations
        # the candidate differs from the printed IC+ matrix somewhere
        diffs = sum(1 for i in range(9) for j in range(i + 1)
                    if res.ic_plus.raw[i][j] != fx.ic_plus_printed[i][j])
        assert diffs >= 1


def test_criterion_4_section_7_4_exact():
    with Budget("criterion 4: n=3 r=3 fixture order", 60.0):
        fx = load_fixture("n3r3")
        res = solve_factorization(omega_matrix(3, 3, fx.order))
        rep = check_fixture(fx, res)
        assert rep.passed, rep.violations[:5]
        # spot bit-exactness of the long table rows
        i = fx.order.position(RPartition.parse("(1;1;1)"))
        assert str(res.p_minus.rows[i][0]) == "t^12 + 2t^9 + 2t^6 + t^3"
    print("NOTE criterion 4: three cells of the transcribed a/xi sub-table "
          "are documented source errata (see the fixture errata block and "
          "tests/test_fixtures.py); every other printed value matches "
          "verbatim.")


@pytest.mark.parametrize("n,r", [(1, 3), (1, 4), (2, 3), (2, 4), (3, 3),
                                 (3, 2), (4, 2), (2, 5), (3, 4), (4, 3),
                                 (6, 2), (3, 5)])
def test_criterion_5_dual_route_oracle(n, r):
    with Budget(f"criterion 5: dual-route oracle ({n},{r})", 600.0):
        for lam in enumerate_rpartitions(n, r):
            for mu in enumerate_rpartitions(n, r):
                assert omega_entry_cosets(lam, mu, r) == \
                    omega_entry_bruteforce(lam, mu, r), (lam, mu)


def test_criterion_6_lemma59_exhaustive():
    with Budget("criterion 6: exponent identities n<=4 r<=4", 60.0):
        for n in range(0, 5):
            for r in range(1, 5):
                rep = lemma59_check(n, r)
                assert rep.passed, rep.violations[:3]
                rep2 = identity_5113_check(n, r)
                assert rep2.passed, rep2.violations[:3]


def test_criterion_7_bridge_identity():
    with Budget("criterion 7: bridge identity", 300.0):
        assert thm55_check(1, 3, "symbolic").passed
        assert thm55_check(2, 3, "symbolic").passed
        assert thm55_check(3, 3, "numeric", (2, 3, 4)).passed


STRUCT_MATRIX = [(0, 2), (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2),
                 (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]


def test_criterion_8_structural_invariants():
    with Budget("criterion 8: structural invariants", 300.0):
        for n, r in STRUCT_MATRIX:
            order = default_total_order(n, r)
            om = omega_matrix(n, r, order)
            res = solve_factorization(om)  # verifies reconstruction exactly
            k = len(order)
            for i in range(k):
                for j in range(k):
                    entry = om.rows[i][j]
                    assert entry.has_nonneg_int_coeffs()
                    if j > i:
                        assert res.p_minus.rows[i][j].is_zero
                        assert res.p_plus.rows[i][j].is_zero
                assert res.p_minus.rows[i][i] == \
                    LaurentPoly.t_power(res.a_values[i])
                assert res.p_plus.rows[i][i] == \
                    LaurentPoly.t_power(res.a_values[i])
            items = order.items
            for lam in items:
                for mu in items:
                    # The partner through the direct route: the matrix reads
                    # both entries off one orbit representative.
                    assert om.entry(lam, mu) == _omega_entry_direct(
                        lam.transpose(), mu.transpose(), r)
            if r <= 2:
                for lam in items:
                    for mu in items:
                        assert om.entry(lam, mu) == om.entry(mu, lam)
                assert res.p_minus.rows == res.p_plus.rows


def test_criterion_9_classical_limit():
    with Budget("criterion 9: r=1 charge-statistic oracle n<=5", 300.0):
        for n in range(1, 6):
            order = default_total_order(n, 1)
            res = solve_factorization(omega_matrix(n, 1, order))
            for i, lam in enumerate(order.items):
                for j, mu in enumerate(order.items):
                    if j > i:
                        assert res.p_minus.rows[i][j].is_zero
                        continue
                    assert res.p_minus.rows[i][j] == \
                        classical_modified_kostka(lam, mu), (n, lam, mu)


def test_criterion_10_property_suites():
    with Budget("criterion 10: property suites", 300.0):
        # character-table orthogonality, n <= 6
        for n in range(1, 7):
            parts = tuple(partitions(n))
            for lam in parts:
                for mu in parts:
                    total = Fraction(0)
                    for rho in parts:
                        total += Fraction(
                            mn_character(lam, rho) * mn_character(mu, rho),
                            centralizer_order(rho))
                    assert total == (1 if lam == mu else 0)
        # double-coset completeness and label bijection, n <= 6
        for n in range(1, 7):
            comps = [Composition(c) for c in
                     itertools.product(range(n + 1), repeat=3) if sum(c) == n]
            for m, mp in itertools.product(comps, repeat=2):
                dcs = double_cosets(n, m, mp)
                assert sum(dc.size for dc in dcs) == factorial(n)
                assert {dc.label.rows for dc in dcs} == \
                    {h.rows for h in enumerate_contingency(m, mp)}
        # transpose twist of the irreducible characters, n <= 3, r <= 3
        for n in range(1, 4):
            for r in range(1, 4):
                classes = enumerate_rpartitions(n, r)
                for lam in classes:
                    tlam = lam.transpose()
                    for rho in classes:
                        # sgn on the class: (-1)^(n - number of cycles)
                        eps = (-1) ** (n - sum(map(len, rho.parts)))
                        twisted = [eps * c for c in rho_character(lam, rho)]
                        assert rho_character(tlam, rho) == \
                            zeta_coords(twisted, r)
        # dimension-gap identity, exhaustive n <= 4, r <= 4
        for n in range(0, 5):
            for r in range(1, 5):
                for lam in enumerate_rpartitions(n, r):
                    assert dim_xm_unip(lam.weight()) - dim_x(lam) == \
                        2 * lam.n_value()
