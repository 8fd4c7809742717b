"""Triangular factorization, IC transforms, order sensitivity, charge oracle."""
import re

import pytest

from wkostka.exact import LaurentPoly, RationalFunction
from wkostka.factor import (FactorizationError, charge,
                            classical_kostka_polynomial,
                            classical_modified_kostka, order_sensitivity,
                            semistandard_tableaux, solve_factorization,
                            unmodify_kostka)
from wkostka.omega import OmegaMatrix, omega_matrix
from wkostka.rpart import (RPartition, default_total_order,
                           sample_linear_extensions)


def P(s):
    return LaurentPoly.parse(s)


def RP(s):
    return RPartition.parse(s)


def _solve(n, r, order=None):
    order = order or default_total_order(n, r)
    return solve_factorization(omega_matrix(n, r, order))


class TestSection71:
    def test_displayed_equation(self):
        res = _solve(1, 3)
        assert [[str(e) for e in row] for row in res.p_minus.rows] == \
            [["t^2", "0", "0"], ["t", "t", "0"], ["1", "1", "1"]]
        assert [str(x) for x in res.lam] == ["1", "t^2 - t^-1", "t^4 - t"]
        assert [[str(e) for e in row] for row in res.p_plus.rows] == \
            [["t^2", "0", "0"], ["1", "t", "0"], ["t", "0", "1"]]

    def test_theta_and_lambda_prime(self):
        res = _solve(1, 3)
        assert [str(x) for x in res.theta] == ["1", "t", "t^-1"]
        assert [str(x) for x in res.lambda_prime] == ["1", "t^3 - 1", "t^3 - 1"]
        assert [[str(e) for e in row] for row in res.p_plus_modified.rows] == \
            [["t^2", "0", "0"], ["1", "1", "0"], ["t", "0", "t"]]


class TestStructure:
    @pytest.mark.parametrize("n,r", [(0, 2), (1, 1), (1, 4), (2, 2), (2, 3),
                                     (3, 2), (3, 3), (4, 1)])
    def test_triangular_with_monomial_diagonal(self, n, r):
        res = _solve(n, r)
        k = len(res.order)
        for i in range(k):
            for j in range(k):
                for mat in (res.p_minus, res.p_plus):
                    if j > i:
                        assert mat.rows[i][j].is_zero
                assert res.p_minus.rows[i][i] == \
                    LaurentPoly.t_power(res.a_values[i])
                assert res.p_plus.rows[i][i] == \
                    LaurentPoly.t_power(res.a_values[i])

    @pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_p_minus_equals_p_plus_for_small_r(self, n, r):
        res = _solve(n, r)
        assert res.p_minus.rows == res.p_plus.rows

    def test_integer_coefficients(self):
        for n, r in ((2, 3), (3, 3), (2, 4)):
            res = _solve(n, r)
            for mat in (res.p_minus, res.p_plus):
                for row in mat.rows:
                    for e in row:
                        assert e.has_int_coeffs()

    def test_zero_pattern_respects_dominance(self):
        from wkostka.rpart import dominance_leq
        res = _solve(2, 3)
        for i, lam in enumerate(res.order.items):
            for j, mu in enumerate(res.order.items):
                if not res.p_minus.rows[i][j].is_zero and i != j:
                    assert not dominance_leq(lam, mu)


class TestIcTransforms:
    def test_ic_minus_diagonal_is_one(self):
        res = _solve(2, 3)
        for i in range(len(res.order)):
            assert res.ic_minus.raw[i][i] == P("1")
            assert res.ic_minus.ok[i][i]
            assert res.ic_minus.in_s[i][i] == P("1")

    def test_ic_minus_n1_all_ones(self):
        for r in (2, 3, 4, 5):
            res = _solve(1, r)
            for i in range(r):
                for j in range(r):
                    want = P("1") if j <= i else P("0")
                    assert res.ic_minus.raw[i][j] == want

    def test_ic_minus_known_entry(self):
        order = _total_order_23()
        res = _solve(2, 3, order)
        lam, mu = RP("(-;1;1)"), RP("(-;-;11)")
        i, j = order.position(lam), order.position(mu)
        assert res.ic_minus.raw[i][j] == P("t^3 + 1")
        assert res.ic_minus.in_s[i][j] == P("t + 1")  # s + 1 in s = t^3

    def test_ic_plus_hypothesis_column_flags(self):
        order = _total_order_23()
        res = _solve(2, 3, order)
        for j, nu in enumerate(order.items):
            w = nu.weight().parts
            assert res.ic_plus.column_asserted[j] == (w[0] == 0)

    def test_unmodify(self):
        assert unmodify_kostka(P("t^3"), 3) == P("1")
        assert unmodify_kostka(P("1"), 1) == P("t")
        k = P("t^2 + t")
        assert unmodify_kostka(unmodify_kostka(k, 5), 5) == k


def _total_order_23():
    from wkostka.rpart import OrderedIndex
    return OrderedIndex(tuple(RP(s) for s in
                              ["(-;-;11)", "(-;11;-)", "(-;-;2)", "(11;-;-)",
                               "(-;1;1)", "(1;-;1)", "(-;2;-)", "(1;1;-)",
                               "(2;-;-)"]))


class TestChargeOracle:
    def test_charge_values(self):
        assert charge((1, 2, 3)) == 3
        assert charge((3, 1, 2)) == 2
        assert charge((2, 1, 3)) == 1
        assert charge((1, 1, 2)) == 1
        assert charge((2, 1, 1)) == 0

    def test_ssyt_counts_are_kostka_numbers(self):
        assert sum(1 for _ in semistandard_tableaux((2, 1), (1, 1, 1))) == 2
        assert sum(1 for _ in semistandard_tableaux((2, 2), (2, 1, 1))) == 1
        assert sum(1 for _ in semistandard_tableaux((1, 1), (2,))) == 0

    def test_known_kostka_foulkes(self):
        assert classical_kostka_polynomial((3,), (1, 1, 1)) == P("t^3")
        assert classical_kostka_polynomial((3,), (2, 1)) == P("t")
        assert classical_kostka_polynomial((2, 1), (1, 1, 1)) == P("t^2 + t")
        assert classical_kostka_polynomial((2, 1), (2, 1)) == P("1")
        assert classical_kostka_polynomial((2, 2), (2, 1, 1)) == P("t")
        assert classical_kostka_polynomial((1, 1, 1), (1, 1, 1)) == P("1")
        assert classical_kostka_polynomial((2, 2), (1, 1, 1, 1)) == \
            P("t^4 + t^2")

    def test_specialization_at_one_counts_tableaux(self):
        from wkostka.rpart import partitions
        for n in range(1, 6):
            for lam in partitions(n):
                for mu in partitions(n):
                    count = sum(1 for _ in semistandard_tableaux(lam, mu))
                    assert classical_kostka_polynomial(lam, mu).eval_at(1) == count

    def test_classical_known_example(self):
        lam, mu = RP("(2)"), RP("(11)")
        assert classical_modified_kostka(lam, mu) == P("1")
        assert unmodify_kostka(P("1"), mu.a_value()) == P("t")


class TestClassicalAgreement:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_solver_matches_charge_oracle(self, n):
        res = _solve(n, 1)
        for i, lam in enumerate(res.order.items):
            for j, mu in enumerate(res.order.items):
                want = classical_modified_kostka(lam, mu) if j <= i else P("0")
                if j > i:
                    continue
                assert res.p_minus.rows[i][j] == want, (lam, mu)


class TestOrderSensitivity:
    def test_unique_extension_n1(self):
        orders = sample_linear_extensions(1, 3, 3, 7)
        rep = order_sensitivity(1, 3, orders)
        assert rep.fully_stable

    @pytest.mark.parametrize("n,r,seed", [(2, 1, 1), (3, 1, 2), (4, 1, 3),
                                          (2, 2, 4), (3, 2, 5)])
    def test_classical_order_independence(self, n, r, seed):
        orders = sample_linear_extensions(n, r, 6, seed)
        dedup = []
        seen = set()
        for o in orders:
            if tuple(o.items) not in seen:
                seen.add(tuple(o.items))
                dedup.append(o)
        rep = order_sensitivity(n, r, dedup)
        assert rep.comparable_stable
        assert rep.fully_stable

    def test_r3_comparable_entries_observed_stable(self):
        orders = sample_linear_extensions(2, 3, 8, 11)
        dedup = {tuple(o.items): o for o in orders}
        rep = order_sensitivity(2, 3, list(dedup.values()))
        assert rep.orders_used >= 2
        # no claim from the source; record the observation that comparable
        # pairs did not move on this sample
        assert rep.comparable_stable


class TestSolverErrors:
    def test_reconstruction_guard(self):
        om = omega_matrix(1, 2, default_total_order(1, 2))
        res = solve_factorization(om)
        recon = [[RationalFunction.zero()] * 2 for _ in range(2)]
        for i in range(2):
            for j in range(2):
                acc = RationalFunction.zero()
                for l in range(2):
                    acc = acc + (RationalFunction(res.p_minus.rows[i][l])
                                 * res.lam[l] * res.p_plus.rows[j][l])
                recon[i][j] = acc
        for i in range(2):
            for j in range(2):
                assert recon[i][j] == RationalFunction(om.entries.rows[i][j])

    def test_bad_matrix_rejected(self):
        from wkostka.exact import PolyMatrix
        order = default_total_order(1, 2)
        zero = LaurentPoly.zero()
        bad = OmegaMatrix(order, PolyMatrix(
            order, [[zero, zero], [zero, zero]]), 1, 2, "test")
        with pytest.raises(FactorizationError):
            solve_factorization(bad)

    def test_non_laurent_entry_rejected(self):
        # Omega_(2,1) / pivot = 1 / (t + 1) leaves the Laurent ring
        from wkostka.exact import PolyMatrix
        order = default_total_order(1, 2)
        one = LaurentPoly.one()
        corner = P("t + 1").shift(order.items[0].a_value())
        bad = OmegaMatrix(order, PolyMatrix(
            order, [[corner, LaurentPoly.zero()], [one, one]]), 1, 2, "test")
        entry = f"P- entry ({order.items[1]}, {order.items[0]})"
        with pytest.raises(FactorizationError, match=re.escape(entry)):
            solve_factorization(bad)
