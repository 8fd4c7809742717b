"""Green-function inner products and the exponent/bridge identities."""
import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wkostka
import wkostka.greencheck as greencheck
import wkostka.omega as omega_mod
from wkostka.exact import RationalFunction
from wkostka.greencheck import (MINUS, PLUS, GreenCheckError, a_exponent,
                                b_O, green_inner_product, identity_5113_check,
                                lemma59_check, thm55_check)
from wkostka.omega import a_O, omega_entry_cosets
from wkostka.rpart import (Composition, ContingencyMatrix, RPartition,
                           compositions, enumerate_contingency,
                           enumerate_rpartitions, n_star, partitions)

import literal_green
from literal_cosets import green_by_literal_cosets
from literal_green import green_by_fraction_sum


def RP(s):
    return RPartition.parse(s)


def _h(rows):
    return ContingencyMatrix(tuple(tuple(r) for r in rows))


def _with_weight(m):
    """The r-partitions of weight m."""
    return [RPartition(parts) for parts in
            itertools.product(*(tuple(partitions(k)) for k in m.parts))]


class TestAExponent:
    def test_diagonal_matrix(self):
        h = _h([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
        assert a_exponent((MINUS, PLUS), h) == 2 + 3

    def test_single_entry_cases(self):
        r = 3
        for s in range(1, r + 1):        # column: lambda-side slot
            for sp in range(1, r + 1):   # row: mu-side slot
                rows = [[0] * r for _ in range(r)]
                rows[sp - 1][s - 1] = 1
                val = a_exponent((MINUS, PLUS), _h(rows))
                assert val == (1 if s <= sp <= r - 1 else 0)

    def test_minus_minus_dominates(self):
        for m, mp in (((2, 1, 0), (1, 1, 1)), ((1, 1, 1), (1, 1, 1))):
            for h in enumerate_contingency(Composition(m), Composition(mp)):
                assert a_exponent((MINUS, MINUS), h) >= \
                    a_exponent((MINUS, PLUS), h)
                assert a_exponent((MINUS, MINUS), h) >= \
                    a_exponent((PLUS, MINUS), h)
                assert a_exponent((PLUS, MINUS), h) >= \
                    a_exponent((PLUS, PLUS), h)

    def test_bad_pair(self):
        with pytest.raises(GreenCheckError):
            a_exponent(("-", "?"), _h([[1]]))


class TestInnerProduct:
    def test_diagonal_slot2(self):
        lam = RP("(-;1;-)")
        assert green_inner_product(lam, lam, (MINUS, PLUS)) == \
            RationalFunction.t_power(1)

    def test_off_diagonal_sign(self):
        # sign (-1)^(p_-(m) + p_+(m')) = -1 here; the a-exponent is 0
        lam, mu = RP("(-;-;1)"), RP("(-;1;-)")
        assert green_inner_product(lam, mu, (MINUS, PLUS)) == \
            RationalFunction(-1)

    def test_diagonal_minus_minus(self):
        # single coset with h concentrated at (2,2): the block-prefix
        # exponent counts i in [2, r-1], and the sign square is positive
        for r in (2, 3, 4):
            parts = [()] * r
            parts[1] = (1,)
            lam = RPartition(tuple(parts))
            assert green_inner_product(lam, lam, (MINUS, MINUS)) == \
                RationalFunction.t_power(r - 2)

    def test_symbolic_matches_numeric_at_5(self):
        for lam in (RP("(-;1;1)"), RP("(2;-;-)"), RP("(-;-;11)")):
            for mu in (RP("(1;-;1)"), RP("(-;11;-)")):
                sym = green_inner_product(lam, mu, (MINUS, PLUS))
                num = green_by_literal_cosets(lam, mu, (MINUS, PLUS),
                                              q=Fraction(5))
                assert sym.eval_at(5) == num

    @pytest.mark.parametrize("n,r", [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
                                     (3, 1), (3, 2), (3, 3)])
    def test_kernel_matches_literal_cosets(self, n, r):
        items = enumerate_rpartitions(n, r)
        for lam, mu in itertools.product(items, repeat=2):
            for pair in itertools.product((MINUS, PLUS), repeat=2):
                for kw in ({}, {"power": r}):
                    assert green_inner_product(lam, mu, pair, **kw) == \
                        green_by_literal_cosets(lam, mu, pair, **kw)
                assert green_inner_product(lam, mu, pair).eval_at(4) == \
                    green_by_literal_cosets(lam, mu, pair, q=Fraction(4))

    @pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (2, 3), (3, 3), (1, 4),
                                     (4, 2), (2, 4)])
    def test_integer_sum_matches_the_fraction_sum(self, n, r):
        """The sum over Z divided once equals the sum in Q[t, t^-1], value
        and coefficient types both: an int where a coefficient is integral,
        a Fraction otherwise."""
        items = enumerate_rpartitions(n, r)
        for lam, mu in itertools.product(items, repeat=2):
            for pair in itertools.product((MINUS, PLUS), repeat=2):
                for power in {1, 2, r}:
                    got = green_inner_product(lam, mu, pair, power)
                    want = green_by_fraction_sum(lam, mu, pair, power)
                    assert (got.low, got.coeffs) == (want.low, want.coeffs)
                    assert list(map(type, got.coeffs)) == \
                        list(map(type, want.coeffs))

    def test_integer_sum_keeps_fractions(self, monkeypatch):
        """With a 'character' that is 1 on the types with at most one cycle
        per block and 0 elsewhere, the sums are partial sums of 1/z weights,
        which need not be integral: both routes give the same Fractions."""

        def cycles_only(lam, types):
            return int(all(len(rho) <= 1 for rho in types))

        for module in (greencheck, literal_green):
            monkeypatch.setattr(module, "block_character", cycles_only)
        fractions = 0
        for lam, mu in itertools.product(enumerate_rpartitions(3, 2),
                                         repeat=2):
            got = green_inner_product(lam, mu, (MINUS, PLUS), 2)
            want = green_by_fraction_sum(lam, mu, (MINUS, PLUS), 2)
            assert (got.low, got.coeffs) == (want.low, want.coeffs)
            assert list(map(type, got.coeffs)) == list(map(type, want.coeffs))
            fractions += Fraction in map(type, got.coeffs)
        assert fractions

    def test_power_raises_base(self):
        lam = RP("(-;1;-)")
        assert green_inner_product(lam, lam, (MINUS, PLUS), power=3) == \
            RationalFunction.t_power(3)

    def test_numeric_value_keeps_power(self):
        # Over the field of order q^power: t^power at t = q, not t at t = q.
        lam = RP("(-;1;-)")
        res = green_inner_product(lam, lam, (MINUS, PLUS), power=3)
        assert res.eval_at(4) == 64 == green_by_literal_cosets(
            lam, lam, (MINUS, PLUS), q=4, power=3)


class TestLemma59:
    @pytest.mark.parametrize("n,r", [(1, 2), (1, 4), (1, 6), (2, 3), (3, 3)])
    def test_no_violations(self, n, r):
        rep = lemma59_check(n, r)
        assert rep.passed and rep.checked > 0

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_data_up_to_n6(self, data):
        """N* - a(lam) - a(tau mu) + a_O(h) = r b_O(lam, mu, h) on random
        weights, contingency tables and r-partitions with n <= 6, r <= 4;
        the exhaustive checks stop at n = 4."""
        r = data.draw(st.integers(1, 4), label="r")
        n = data.draw(st.integers(0, 6), label="n")
        weights = [Composition(c) for c in compositions(n, r)]
        m = data.draw(st.sampled_from(weights), label="m")
        mp = data.draw(st.sampled_from(weights), label="m'")
        h = data.draw(st.sampled_from(enumerate_contingency(m, mp)), label="h")
        lam = data.draw(st.sampled_from(_with_weight(m)), label="lam")
        mu = data.draw(st.sampled_from(_with_weight(mp)), label="mu")
        assert n_star(n, r) - lam.a_value() - mu.tau().a_value() + a_O(h, r) \
            == r * b_O(lam, mu, h)

    @pytest.mark.parametrize("n,r", [(2, 3), (3, 3), (2, 4)])
    def test_bare_identity(self, n, r):
        rep = identity_5113_check(n, r)
        assert rep.passed and rep.checked > 0

    @pytest.mark.parametrize("check", [lemma59_check, identity_5113_check],
                             ids=lambda f: f.__name__)
    def test_a_seeded_a_O_fault_is_recorded(self, monkeypatch, check):
        """a_O off by one moves every left-hand side, and each case is
        recorded as a violation."""
        real = greencheck.a_O
        monkeypatch.setattr(greencheck, "a_O", lambda h, r: real(h, r) + 1)
        rep = check(2, 3)
        assert rep.checked > 0 and len(rep.violations) == rep.checked
        assert all(v["lhs"] == v["rhs"] + 1 for v in rep.violations)

    def test_the_lemma_guards_the_kernels_exponent(self, monkeypatch):
        """The kernel powers each coset label by t^(N* + A_O(h)) through
        the a_O that the lemma suite checks: a_O off by one, in omega and in
        greencheck's binding of it, trips the suite and moves every Omega
        entry one power of t off the wreath oracle's."""
        from wkostka.wreath import omega_entry_bruteforce
        real = omega_mod.a_O

        def seeded(h, r):
            return real(h, r) + 1

        wkostka.clear_caches()
        monkeypatch.setattr(omega_mod, "a_O", seeded)
        monkeypatch.setattr(greencheck, "a_O", seeded)
        try:
            rep = lemma59_check(2, 3)
            assert rep.checked > 0 and len(rep.violations) == rep.checked
            items = enumerate_rpartitions(2, 3)
            for lam, mu in itertools.product(items, repeat=2):
                assert omega_entry_cosets(lam, mu, 3) == \
                    omega_entry_bruteforce(lam, mu, 3).shift(1)
        finally:
            monkeypatch.undo()
            wkostka.clear_caches()


class TestThm55:
    def test_symbolic_n1(self):
        rep = thm55_check(1, 3, "symbolic")
        assert rep.passed and rep.checked == 9

    def test_symbolic_n1_r4(self):
        rep = thm55_check(1, 4, "symbolic")
        assert rep.passed and rep.checked == 16

    def test_numeric_n2(self):
        rep = thm55_check(2, 3, "numeric", (2, 5))
        assert rep.passed

    def test_bad_mode(self):
        with pytest.raises(GreenCheckError):
            thm55_check(1, 2, "approximate")

    @pytest.fixture
    def seeded_omega(self, monkeypatch):
        """Every _omega_block with n! added to the lowest coefficient of
        its first block: each Omega entry moves by an integer multiple of a
        character product, so the division by n! stays exact."""
        block = omega_mod._omega_block

        def seeded(m, m_prime, r):
            low, ((cols, rows, cs), *rest) = block(m, m_prime, r)
            return low, ((cols, rows, (cs[0] + factorial(m.n),) + cs[1:]),
                         *rest)

        wkostka.clear_caches()
        monkeypatch.setattr(omega_mod, "_omega_block", seeded)
        yield
        monkeypatch.undo()
        wkostka.clear_caches()

    @pytest.mark.parametrize("mode", ["symbolic", "numeric"])
    def test_seeded_omega_fault_fails(self, seeded_omega, mode):
        # The Green side contracts coset_table itself, so it does not see
        # the fault: the check compares two computations, not one value.
        rep = thm55_check(2, 3, mode, (2,))
        assert rep.checked == 81 and len(rep.violations) == 81

    @pytest.mark.parametrize("mode", ["symbolic", "numeric"])
    def test_seeded_green_fault_fails(self, monkeypatch, mode):
        # The numeric mode evaluates the symbolic sum, so a fault in that
        # sum shows in both modes.
        quotient = greencheck.torus_quotient
        monkeypatch.setattr(
            greencheck, "torus_quotient",
            lambda rho, n, power: quotient(rho, n, power) + (rho == (1, 1)))
        rep = thm55_check(2, 3, mode, (2, 3))
        assert rep.violations and rep.checked == 81
        if mode == "numeric":
            assert {v["q"] for v in rep.violations} == {"2", "3"}

    def test_report_serializes(self):
        import json
        rep = thm55_check(1, 2, "symbolic")
        data = json.loads(rep.to_json())
        assert data["pass"] is True
        assert data["suite"] == "thm55"
