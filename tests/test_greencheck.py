"""Green-function inner products and the exponent/bridge identities."""
import itertools
from fractions import Fraction

import pytest

from wkostka.exact import RationalFunction
from wkostka.greencheck import (MINUS, PLUS, GreenCheckError, a_exponent,
                                green_inner_product, identity_5113_check,
                                lemma59_check, thm55_check)
from wkostka.rpart import (Composition, ContingencyMatrix, RPartition,
                           enumerate_contingency, enumerate_rpartitions)

from literal_cosets import green_by_literal_cosets


def RP(s):
    return RPartition.parse(s)


def _h(rows):
    return ContingencyMatrix(tuple(tuple(r) for r in rows))


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
        res = green_inner_product(lam, lam, (MINUS, PLUS))
        assert res.value == RationalFunction.t_power(1)
        assert (res.p_eps, res.p_eps_prime) == (1, 1)

    def test_off_diagonal_sign(self):
        # sign (-1)^(p_-(m) + p_+(m')) = -1 here; the a-exponent is 0
        lam, mu = RP("(-;-;1)"), RP("(-;1;-)")
        res = green_inner_product(lam, mu, (MINUS, PLUS))
        assert res.value == RationalFunction(-1)

    def test_diagonal_minus_minus(self):
        # single coset with h concentrated at (2,2): the block-prefix
        # exponent counts i in [2, r-1], and the sign square is positive
        for r in (2, 3, 4):
            parts = [()] * r
            parts[1] = (1,)
            lam = RPartition(tuple(parts))
            res = green_inner_product(lam, lam, (MINUS, MINUS))
            assert res.value == RationalFunction.t_power(r - 2)

    def test_symbolic_matches_numeric_at_5(self):
        for lam in (RP("(-;1;1)"), RP("(2;-;-)"), RP("(-;-;11)")):
            for mu in (RP("(1;-;1)"), RP("(-;11;-)")):
                sym = green_inner_product(lam, mu, (MINUS, PLUS)).value
                num = green_inner_product(lam, mu, (MINUS, PLUS),
                                          q=Fraction(5)).value
                assert sym.eval_at(5) == num

    @pytest.mark.parametrize("n,r", [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
                                     (3, 1), (3, 2), (3, 3)])
    def test_kernel_matches_literal_cosets(self, n, r):
        items = enumerate_rpartitions(n, r)
        for lam, mu in itertools.product(items, repeat=2):
            for pair in itertools.product((MINUS, PLUS), repeat=2):
                for kw in ({}, {"power": r}, {"q": Fraction(4)}):
                    got = green_inner_product(lam, mu, pair, **kw)
                    assert got.value == \
                        green_by_literal_cosets(lam, mu, pair, **kw)
                    assert got.symbolic == ("q" not in kw)

    def test_power_raises_base(self):
        lam = RP("(-;1;-)")
        res = green_inner_product(lam, lam, (MINUS, PLUS), power=3)
        assert res.value == RationalFunction.t_power(3)


class TestLemma59:
    @pytest.mark.parametrize("n,r", [(1, 2), (1, 4), (1, 6), (2, 3), (3, 3)])
    def test_no_violations(self, n, r):
        rep = lemma59_check(n, r)
        assert rep.passed and rep.checked > 0

    @pytest.mark.parametrize("n,r", [(2, 3), (3, 3), (2, 4)])
    def test_bare_identity(self, n, r):
        rep = identity_5113_check(n, r)
        assert rep.passed and rep.checked > 0


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

    def test_report_serializes(self):
        import json
        rep = thm55_check(1, 2, "symbolic")
        data = json.loads(rep.to_json())
        assert data["pass"] is True
        assert data["suite"] == "thm55"
