"""Triangular factorization, IC transforms, order sensitivity, charge oracle,
and the packed reconstruction check against its two oracles."""
import random
import re
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from literal_elimination import literal_elimination
from literal_reconstruction import laurent_mismatches, matrix_low_mismatches
from wkostka import cli, factor, omega
from wkostka.exact import LaurentPoly, PolyMatrix, RationalFunction
from wkostka.charge import (charge, classical_kostka_polynomial,
                            classical_modified_kostka, semistandard_tableaux,
                            unmodify_kostka)
from wkostka.factor import (FactorizationError, order_sensitivity,
                            solve_factorization)
from wkostka.omega import omega_matrix
from wkostka.rpart import (RPartition, default_total_order, dominance_leq,
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
                        assert all(type(c) is int for c in e.coeffs)

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
            assert res.ic_minus.in_s[i][i] is not None
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
        assert order_sensitivity(1, 3, orders) == ([], [])

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
        comparable, incomparable = order_sensitivity(n, r, dedup)
        assert comparable == []
        assert incomparable == []

    def test_r3_comparable_entries_observed_stable(self):
        orders = sample_linear_extensions(2, 3, 8, 11)
        dedup = {tuple(o.items): o for o in orders}
        comparable, _ = order_sensitivity(2, 3, list(dedup.values()))
        assert len(dedup) >= 2
        # no claim from the source; record the observation that comparable
        # pairs did not move on this sample
        assert comparable == []

    def test_a_seeded_difference_is_sorted_by_dominance(self, monkeypatch):
        """A P- entry that differs between two solves is listed as
        comparable at a dominance-comparable pair and as incomparable at
        (-;2), (11;-), which dominance does not order."""
        order = default_total_order(2, 2)
        comparable_pair = (RP("(2;-)"), RP("(11;-)"))
        incomparable_pair = (RP("(-;2)"), RP("(11;-)"))
        assert dominance_leq(*comparable_pair[::-1])
        assert not dominance_leq(*incomparable_pair) and \
            not dominance_leq(*incomparable_pair[::-1])
        solve = factor.solve_factorization
        solved = []

        class Seeded:
            """The second solve's P-, one more at both pairs."""
            def entry(self, lam, mu):
                value = solved[1].p_minus.entry(lam, mu)
                return value + 1 if (lam, mu) in (comparable_pair,
                                                  incomparable_pair) else value

        def seeded(om):
            solved.append(solve(om))
            if len(solved) == 1:
                return solved[0]
            return SimpleNamespace(p_minus=Seeded(), p_plus=solved[1].p_plus)

        monkeypatch.setattr(factor, "solve_factorization", seeded)
        comparable, incomparable = order_sensitivity(2, 2, [order, order])

        def record(lam, mu):
            value = solved[0].p_minus.entry(lam, mu)
            return {"row": str(lam), "col": str(mu), "sign": "minus",
                    "values": sorted([str(value), str(value + 1)])}

        assert comparable == [record(*comparable_pair)]
        assert incomparable == [record(*incomparable_pair)]

    def test_every_order_is_checked(self, monkeypatch):
        orders = list({tuple(o.items): o for o in
                       sample_linear_extensions(2, 3, 8, 11)}.values())
        checked = []
        check = factor._verify_reconstruction

        def counted(order, *args):
            checked.append(order)
            check(order, *args)

        monkeypatch.setattr(factor, "_verify_reconstruction", counted)
        order_sensitivity(2, 3, orders)
        assert len(orders) >= 2 and checked == orders


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
                assert recon[i][j] == RationalFunction(om.rows[i][j])

    def test_bad_matrix_rejected(self):
        om = _vanishing_pivot_omega()
        pivot = f"vanishing pivot at index 0 ({om.index.items[0]})"
        with pytest.raises(FactorizationError, match=re.escape(pivot)):
            solve_factorization(om)

    def test_non_laurent_entry_rejected(self):
        om = _non_laurent_omega()
        items = om.index.items
        entry = f"P- entry ({items[1]}, {items[0]})"
        with pytest.raises(FactorizationError, match=re.escape(entry)):
            solve_factorization(om)


def _vanishing_pivot_omega():
    order = default_total_order(1, 2)
    zero = LaurentPoly.zero()
    return PolyMatrix(order, [[zero, zero], [zero, zero]])


def _non_laurent_omega():
    # Omega_(2,1) / pivot = 1 / (t + 1) leaves the Laurent ring
    order = default_total_order(1, 2)
    one = LaurentPoly.one()
    corner = P("t + 1").shift(order.items[0].a_value())
    return PolyMatrix(order, [[corner, LaurentPoly.zero()], [one, one]])


# -- the packed elimination and its Laurent-polynomial oracle ------------------


def _factors(res):
    """P- rows, xi and P+ rows of a solved factorization, as lists."""
    pm, (xi,), pp, _ = _tables(res)
    return [pm, xi, pp]


def _noted_widths(monkeypatch) -> list:
    """The widths at which solve_factorization runs the elimination, noted
    as it runs."""
    widths = []
    eliminate = factor._eliminate

    def noted(order, rows, bits):
        widths.append(bits)
        return eliminate(order, rows, bits)

    monkeypatch.setattr(factor, "_eliminate", noted)
    return widths


def _synthetic_omega(order, p_minus, xi, p_plus):
    """Omega = P- diag(xi) transpose(P+), a PolyMatrix over order."""
    k = len(xi)
    rows = [[sum((p_minus[i][l] * xi[l] * p_plus[j][l]
                  for l in range(min(i, j) + 1)), LaurentPoly.zero())
             for j in range(k)] for i in range(k)]
    return PolyMatrix(order, rows)


def _unitriangular(order, below):
    """Lower-triangular rows with diagonal t^a(lambda) and below(i, j)
    under it."""
    a = [lam.a_value() for lam in order.items]
    k = len(a)
    return [[LaurentPoly.t_power(a[i]) if i == j else
             below(i, j) if j < i else LaurentPoly.zero()
             for j in range(k)] for i in range(k)]


_SMALL_ORDERS = {(n, r): default_total_order(n, r)
                 for n, r in ((1, 1), (1, 3), (2, 2), (3, 1), (2, 3))}


def _laurent_values(coefficients):
    return st.builds(
        lambda low, cs: LaurentPoly({low + i: c for i, c in enumerate(cs)}),
        st.integers(-6, 6), st.lists(coefficients, max_size=4))


class TestPackedElimination:
    @pytest.mark.parametrize("n,r", [(n, r) for n in range(5)
                                     for r in range(1, 4)]
                             + [(2, 5), (3, 4), (5, 2), (4, 4)])
    def test_matches_the_laurent_oracle(self, n, r):
        om = omega_matrix(n, r, default_total_order(n, r))
        assert _factors(solve_factorization(om)) == \
            list(literal_elimination(om))

    @given(st.sampled_from(sorted(_SMALL_ORDERS)), st.data(),
           st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_recovers_synthetic_factors(self, size, data, xi_fractions,
                                        p_fractions):
        # Integral factors are recovered.  A Fraction in xi or P+- makes the
        # solver raise: Omega is then non-integral, or P+- leave
        # Z[t, t^-1].  The Laurent loop, which divides over Q, still
        # recovers them.
        order = _SMALL_ORDERS[size]
        k = len(order)

        def values(fractions):
            coefficients = st.integers(-9, 9)
            if fractions:
                coefficients = st.one_of(coefficients, st.fractions(
                    min_value=-4, max_value=4, max_denominator=6))
            return _laurent_values(coefficients)

        table = data.draw(st.lists(values(p_fractions), min_size=2 * k * k,
                                   max_size=2 * k * k))
        xi = data.draw(st.lists(values(xi_fractions).filter(
            lambda p: not p.is_zero), min_size=k, max_size=k))
        p_minus = _unitriangular(order, lambda i, j: table[i * k + j])
        p_plus = _unitriangular(order, lambda i, j: table[k * k + i * k + j])
        om = _synthetic_omega(order, p_minus, xi, p_plus)
        assert list(literal_elimination(om)) == [p_minus, xi, p_plus]
        if all(type(c) is int for rows in (p_minus, [xi], p_plus)
               for row in rows for p in row for c in p.coeffs):
            assert _factors(solve_factorization(om)) == [p_minus, xi, p_plus]
        else:
            with pytest.raises(FactorizationError):
                solve_factorization(om)

    def test_a_half_in_p_minus_is_named(self):
        # Omega is integral, but P-_(1,0) = 1/2 is not.
        order = _SMALL_ORDERS[1, 3]
        p_minus = _unitriangular(order, lambda i, j: LaurentPoly.const(
            Fraction(1, 2)) if (i, j) == (1, 0) else LaurentPoly.zero())
        p_plus = _unitriangular(order, lambda i, j: LaurentPoly.zero())
        xi = [P("2"), P("t"), P("1")]
        om = _synthetic_omega(order, p_minus, xi, p_plus)
        assert all(type(c) is int for row in om.rows for p in row
                   for c in p.coeffs)
        items = order.items
        entry = f"P- entry ({items[1]}, {items[0]}) is not a Laurent polynomial"
        with pytest.raises(FactorizationError, match=re.escape(entry)):
            solve_factorization(om)

    def test_a_half_in_omega_is_named(self):
        # xi_0 = 1/2 makes Omega_(0,0) = t^(2 a_0) / 2, which raises before
        # any elimination.
        order = _SMALL_ORDERS[1, 3]
        identity = _unitriangular(order, lambda i, j: LaurentPoly.zero())
        xi = [LaurentPoly.const(Fraction(1, 2)), P("t"), P("1")]
        om = _synthetic_omega(order, identity, xi, identity)
        lam = order.items[0]
        with pytest.raises(FactorizationError) as exc:
            solve_factorization(om)
        assert str(exc.value) == \
            f"Omega entry ({lam}, {lam}) is not integral: {om.entry(lam, lam)}"

    @pytest.mark.parametrize("bad", [_vanishing_pivot_omega,
                                     _non_laurent_omega])
    def test_oracle_rejects_with_the_same_message(self, bad):
        messages = []
        for solve in (solve_factorization, literal_elimination):
            with pytest.raises(FactorizationError) as exc:
                solve(bad())
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_recovers_factors_with_80_bit_inner_sums(self):
        # Coefficients near 2^40 give inner sums past 2^80.
        order = _SMALL_ORDERS[2, 3]
        big = 2 ** 40
        p_minus = _unitriangular(order, lambda i, j: LaurentPoly(
            {j - i: big + 3 * i, j: -big - j}))
        p_plus = _unitriangular(order, lambda i, j: LaurentPoly(
            {i: big - 5 * j, -j: 7}))
        xi = [LaurentPoly({-i: big + i, 2: 1}) for i in range(len(order))]
        om = _synthetic_omega(order, p_minus, xi, p_plus)
        assert _factors(solve_factorization(om)) == [p_minus, xi, p_plus]

    def test_outputs_wider_than_the_first_width_are_retried(self, monkeypatch):
        # P-_(1,0) = P+_(1,0) = c and xi_1 = t^(-2 a_1) (1 - c^2) make
        # Omega_(1,1) = 1; with column 1 of P+- zero below the diagonal,
        # Omega's coefficients stay below 2^31 while xi_1 needs 42 bits, so
        # the first width, 32, fails and 64 succeeds.
        order = _SMALL_ORDERS[2, 2]
        k = len(order)
        a1 = order.items[1].a_value()
        c = 2 ** 20
        rng = random.Random(0)

        def below(i, j):
            if (i, j) == (1, 0):
                return LaurentPoly.const(c)
            if j == 1:
                return LaurentPoly.zero()
            return LaurentPoly({e: rng.randint(-3, 3) for e in range(2)})

        p_minus = _unitriangular(order, below)
        p_plus = _unitriangular(order, below)
        xi = [LaurentPoly.const(1), LaurentPoly.t_power(-2 * a1, 1 - c * c)] \
            + [LaurentPoly.const(rng.randint(1, 5)) for _ in range(k - 2)]
        om = _synthetic_omega(order, p_minus, xi, p_plus)
        assert max(abs(x) for row in om.rows for p in row
                   for x in p.coeffs) < 2 ** 31
        widths = _noted_widths(monkeypatch)
        assert _factors(solve_factorization(om)) == [p_minus, xi, p_plus]
        assert widths == [32, 64]

    def test_a_corrupted_omega_entry_fails_at_both_widths(self, monkeypatch,
                                                          capsys):
        # Omega_(3,3) + 1 at (2,3): the elimination fails at 32 and 64 bits,
        # and wkostka solve exits 1 with one error line.
        order = _SMALL_ORDERS[2, 3]
        corner = order.items[3]
        entry = omega.omega_entry_cosets

        def corrupted(lam, mu, r):
            value = entry(lam, mu, r)
            return value + 1 if lam == mu == corner else value

        monkeypatch.setattr(omega, "omega_entry_cosets", corrupted)
        widths = _noted_widths(monkeypatch)
        with pytest.raises(FactorizationError):
            solve_factorization(omega_matrix(2, 3, order))
        assert widths == [32, 64]
        assert cli.main(["solve", "--n", "2", "--r", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("c", [2 ** 31 - 1, 2 ** 31, -2 ** 31,
                                   -2 ** 31 - 1, 2 ** 100])
    def test_omega_coefficient_at_the_width_edge(self, c):
        order = _SMALL_ORDERS[1, 1]
        om = _synthetic_omega(order, [[P("1")]], [LaurentPoly({-2: c, 3: 1})],
                              [[P("1")]])
        assert _factors(solve_factorization(om))[1] == \
            [LaurentPoly({-2: c, 3: 1})]


# -- the packed reconstruction check and its two oracles ----------------------


@lru_cache(maxsize=None)
def _solved(n, r):
    return _solve(n, r)


def _tables(res):
    """Mutable copies of P-, xi, P+ and Omega of a solved factorization."""
    xi = [x.try_to_laurent() for x in res.lam]
    return [[list(row) for row in res.p_minus.rows], [xi],
            [list(row) for row in res.p_plus.rows],
            [list(row) for row in res.omega.rows]]


def _outcomes(tables):
    """The cells, row by row, that the packed check, the matrix-low check
    and the Laurent loop each reject in tables."""
    pm, (xi,), pp, omega = tables
    return [list(route(pm, xi, pp, omega))
            for route in (factor.reconstruction_mismatches,
                          matrix_low_mismatches, laurent_mismatches)]


def _check_args(order, tables):
    """The arguments of factor._verify_reconstruction for tables."""
    pm, (xi,), pp, omega = tables
    return (order, PolyMatrix(order, pm), tuple(xi), PolyMatrix(order, pp),
            PolyMatrix(order, omega))


def _rejected(order, tables):
    """The cells the three routes of _outcomes reject, after asserting that
    they agree and that _verify_reconstruction raises at the first."""
    packed, matrix_low, loop = _outcomes(tables)
    assert packed == matrix_low == loop
    args = _check_args(order, tables)
    if not packed:
        factor._verify_reconstruction(*args)
        return packed
    i, j = packed[0]
    message = f"reconstruction failed at ({order.items[i]}, {order.items[j]})"
    with pytest.raises(FactorizationError, match=re.escape(message)):
        factor._verify_reconstruction(*args)
    return packed


def _bump(p, e, delta=1):
    return p + LaurentPoly.t_power(e, delta)


class TestReconstructionCheck:
    @pytest.mark.parametrize("n,r", [(0, 3), (1, 3), (2, 3), (3, 2), (2, 4),
                                     (3, 3)])
    def test_both_accept_the_solved_tables(self, n, r):
        res = _solved(n, r)
        assert _rejected(res.order, _tables(res)) == []

    def test_perturbed_p_plus_coefficient(self):
        res = _solved(3, 3)
        tables = _tables(res)
        pp = tables[2]
        col = 5
        row = next(b for b in range(col + 1, len(pp)) if not pp[b][col].is_zero)
        pp[row][col] = _bump(pp[row][col], pp[row][col].min_exp)
        # P+_(row,col) first enters the cell (col, row), through l = col
        assert _rejected(res.order, tables)[0] == (col, row)

    def test_perturbed_p_minus_entry_far_above_the_lowest(self):
        # P-_(3,0) starts at t^12 and every P- entry at t^0 or above: the
        # check packs it about its own low, where a matrix-low packing
        # carries twelve zero digits into each of its products.
        res = _solved(3, 3)
        tables = _tables(res)
        pm = tables[0]
        lowest = min(p.min_exp for row in pm for p in row if not p.is_zero)
        assert pm[3][0].min_exp - lowest >= 10
        pm[3][0] = _bump(pm[3][0], pm[3][0].min_exp, -1)
        assert _rejected(res.order, tables)[0] == (3, 0)

    def test_perturbed_xi_coefficient(self):
        res = _solved(3, 3)
        tables = _tables(res)
        xi = tables[1][0]
        xi[7] = _bump(xi[7], xi[7].max_exp, -1)
        assert _rejected(res.order, tables)[0] == (7, 7)

    def test_perturbed_top_omega_coefficient(self):
        res = _solved(3, 3)
        tables = _tables(res)
        omega = tables[3]
        i, j = 4, 9
        assert not omega[i][j].is_zero
        omega[i][j] = _bump(omega[i][j], omega[i][j].max_exp)
        assert _rejected(res.order, tables) == [(i, j)]

    def test_omega_term_below_every_product(self):
        res = _solved(3, 3)
        tables = _tables(res)
        omega = tables[3]
        lowest = min(p.min_exp for row in omega for p in row if not p.is_zero)
        omega[6][2] = _bump(omega[6][2], lowest - 5)
        assert _rejected(res.order, tables) == [(6, 2)]

    def test_a_zero_omega_cell_made_nonzero(self):
        # With P+- the identity pattern t^a on the diagonal, every cell off
        # it has no nonzero product and a zero Omega.
        order = _SMALL_ORDERS[2, 2]
        diagonal = _unitriangular(order, lambda i, j: LaurentPoly.zero())
        xi = [LaurentPoly({-1: 2, 4: -3})] * len(order)
        om = _synthetic_omega(order, diagonal, xi, diagonal)
        omega = [list(row) for row in om.rows]
        assert omega[3][1].is_zero
        tables = [diagonal, [xi], diagonal, omega]
        assert _rejected(order, tables) == []
        omega[3][1] = LaurentPoly.t_power(5)
        assert _rejected(order, tables) == [(3, 1)]

    @pytest.mark.parametrize("p_minus, xi", [
        (((1, 0), (17, 1)), (1, 1)), (((0, 0), (1, 1)), (17, 1))],
        ids=("P-", "xi"))
    def test_the_width_counts_every_norm(self, p_minus, xi):
        """Cell (1, 0) is the constant 17 on the left and t + 1 in Omega.
        The width is 7 bits; at 4 bits, the width left when the 17's norm
        is dropped, t + 1 packs to 17 and the cells would agree."""
        const = LaurentPoly.const
        pm = [[const(c) for c in row] for row in p_minus]
        identity = [[const(1), const(0)], [const(0), const(1)]]
        omega = [[const(p_minus[0][0] * xi[0]), const(0)],
                 [P("t + 1"), const(1)]]
        assert list(factor.reconstruction_mismatches(
            pm, [const(c) for c in xi], identity, omega)) == [(1, 0)]

    def test_a_carry_between_digits_is_caught(self):
        # t^(e+1) - 2^w t^e vanishes at t = 2^w.  The packing width grows
        # with Omega's norm, so no w slips through.
        res = _solved(2, 3)
        for w in range(1, 64):
            tables = _tables(res)
            p = tables[3][2][5]
            tables[3][2][5] = p + LaurentPoly({p.min_exp + 1: 1,
                                               p.min_exp: -2 ** w})
            assert _rejected(res.order, tables) == [(2, 5)]

    def test_non_integral_tables(self):
        """A 1/2 in any one table raises one line naming its cell, from the
        check and from _verify_reconstruction alike."""
        res = _solved(2, 3)
        for which, name, i, j in ((0, "P-", 3, 1), (1, "xi", 0, 4),
                                  (2, "P+", 5, 2), (3, "Omega", 3, 1)):
            tables = _tables(res)
            tables[which][i][j] = _bump(tables[which][i][j], 2,
                                        Fraction(1, 2))
            pm, (xi,), pp, omega = tables
            message = f"{name} cell ({i}, {j}) is not integral: " \
                f"{tables[which][i][j]}"
            with pytest.raises(FactorizationError) as exc:
                list(factor.reconstruction_mismatches(pm, xi, pp, omega))
            assert str(exc.value) == message
            with pytest.raises(FactorizationError) as exc:
                factor._verify_reconstruction(*_check_args(res.order, tables))
            assert str(exc.value) == message

    @given(st.integers(0, 3), st.integers(0, 8), st.integers(0, 8),
           st.integers(-14, 14), st.sampled_from([-3, -1, 1, 2, 2 ** 70]))
    @settings(max_examples=60, deadline=None)
    def test_packed_check_agrees_with_the_oracle(self, which, i, j, e, delta):
        res = _solved(2, 3)
        tables = _tables(res)
        rows = tables[which]
        if which == 1:
            i = 0
        rows[i][j] = _bump(rows[i][j], e, delta)
        _rejected(res.order, tables)
