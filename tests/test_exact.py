"""Exact arithmetic layer: Laurent polynomials, Q(t), cyclotomic polynomials."""
import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from literal_gcd import literal_gcd
from literal_parse import literal_parse
from wkostka import exact
from wkostka.exact import (ExactError, LaurentPoly, RationalFunction,
                           exact_div, poly_gcd)
from wkostka.wreath import cyclotomic_polynomial


def P(s):
    return LaurentPoly.parse(s)


class TestLaurentPoly:
    def test_reciprocal_var(self):
        assert P("t^2 - 3t^-1").reciprocal_var() == P("t^-2 - 3t")
        assert P("5").reciprocal_var() == P("5")
        assert LaurentPoly.zero().reciprocal_var().is_zero

    def test_eval_at(self):
        assert P("t^4 - t").eval_at(2) == 14

    def test_shift(self):
        assert P("t^4 - t").shift(-1) == P("t^3 - 1")

    def test_eval_negative_exponent_at_zero(self):
        with pytest.raises(ExactError):
            P("t^-1").eval_at(0)

    def test_canonical_zero(self):
        p = P("t^2 + 3")
        assert (p - p).is_zero
        assert str(p - p) == "0"

    def test_parse_product_form(self):
        assert P("t^-3*(t^9 - 1)") == P("t^6 - t^-3")
        assert P("t^4*(t^3 - 1)*(t^6 - 1)") == \
            P("t^13 - t^10 - t^7 + t^4")

    def test_parse_coefficients(self):
        assert P("2t^9 + t^3").coeff(9) == 2
        assert P("-t + 5").coeff(1) == -1
        assert P("1/2*t^2").coeff(2) == Fraction(1, 2)
        assert P("(t - 1)^2") == P("t^2 - 2t + 1")

    def test_str_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            p = _random_poly(rng)
            assert P(str(p)) == p

    def test_string_order_is_descending(self):
        assert str(P("1 + t^5 - t^-2")) == "t^5 + 1 - t^-2"

    def test_is_poly_in_tr(self):
        assert P("t^6 + t^3 + 1").is_poly_in_tr(3)
        assert not P("t^4 + t").is_poly_in_tr(3)
        assert P("1").is_poly_in_tr(3)
        assert not P("t^-3").is_poly_in_tr(3)

    def test_descale(self):
        assert P("t^6 + t^3 + 1").root_var(3) == P("t^2 + t + 1")

    def test_pow(self):
        assert P("t - 1") ** 3 == P("t^3 - 3t^2 + 3t - 1")
        assert P("t^2") ** -2 == P("t^-4")
        with pytest.raises(ExactError):
            (P("t - 1")) ** -1

    def test_negative_power_of_an_int_coefficient_is_a_fraction(self):
        inv = P("2t") ** -1
        assert inv.items() == ((-1, Fraction(1, 2)),)
        assert type(inv.coeff(-1)) is Fraction
        assert P("-2t^3") ** -2 == P("1/4*t^-6")

    def test_missing_coefficient_is_int_zero(self):
        assert P("t").coeff(5) == 0 and type(P("t").coeff(5)) is int
        assert type(P("t").coeff(1)) is int

    def test_exact_div_over_z_and_over_q(self):
        quot = exact_div(P("2t^2 - 2"), P("t - 1"))
        assert quot == P("2t + 2")
        assert all(type(c) is int for c in quot.coeffs)
        half = exact_div(P("t^2 - 1"), P("2t - 2"))
        assert half.items() == ((1, Fraction(1, 2)), (0, Fraction(1, 2)))
        assert exact_div(P("t^3 + 2t"), P("2t")) == P("1/2*t^2 + 1")
        assert exact_div(P("2t^2 + 1"), P("2t")) == P("t + 1/2*t^-1")
        with pytest.raises(ExactError):
            exact_div(P("2t^2 + 1"), P("2t - 2"))


# sha256 of the printed values of the fixture strings, joined by newlines.
FIXTURE_DIGEST = "ead7e429ecbc82478bfad4d4f057a75e3bc08887dc21208d65ff66fa2cd66f03"


def _fixture_strings():
    """Every polynomial string in the packaged fixtures, in file and JSON
    order: every string leaf except the "id" and the r-partition "order"."""
    def walk(x):
        if isinstance(x, dict):
            for k, v in x.items():
                if k not in ("id", "order"):
                    yield from walk(v)
        elif isinstance(x, list):
            for v in x:
                yield from walk(v)
        elif isinstance(x, str):
            yield x
    data = Path(exact.__file__).with_name("data")
    return [s for f in sorted(data.glob("*.json"))
            for s in walk(json.loads(f.read_text()))]


class TestParseGrammar:
    """What LaurentPoly.parse accepts, with its value, and what it rejects."""

    @pytest.mark.parametrize("text, terms", [
        ("2^-1", {0: Fraction(1, 2)}),
        ("(t - 1)^2", {2: 1, 1: -2, 0: 1}),
        ("t^-1(t - 1)", {0: 1, -1: -1}),
        ("2 t", {1: 2}),
        ("t t", {2: 1}),
        ("1/2*t^2", {2: Fraction(1, 2)}),
        ("+t", {1: 1}),
        ("-2t^3", {3: -2}),
        ("2 3", {0: 6}),
        ("1/2^3", {0: Fraction(1, 8)}),
        ("2(t + 1)^2 t^-1", {1: 2, 0: 4, -1: 2}),
        ("t^ - 2 * 3/4", {-2: Fraction(3, 4)}),
        ("(-t)(t)", {2: -1}),
        ("0^0 + t^0", {0: 2}),
        ("  t  ", {1: 1}),
        ("t - t", {}),
    ])
    def test_accepted(self, text, terms):
        assert P(text) == LaurentPoly(terms)

    @pytest.mark.parametrize("text, token", [
        ("t/2", "'/'"), ("t^2^3", "'^'"), ("1/2/3", "'/'"), ("--t", "'-'"),
        ("t^+1", "'+'"), ("x", "'x'"), ("tt", "'tt'"), ("2*-t", "'-'"),
        ("t^(2)", "'('"), ("1/-2", "'-'"), ("()", "')'"), ("(t))", "')'"),
        ("t $", None), ("(t", None), ("", None), ("+", None), ("t -", None),
        ("t^", None), ("1/0", None), ("0^-1", None),
    ])
    def test_rejected(self, text, token):
        with pytest.raises(ExactError) as err:
            P(text)
        if token:
            assert token in str(err.value)

    def test_fixture_strings_digest(self):
        strings = _fixture_strings()
        assert len(strings) == 877
        text = "\n".join(str(P(s)) for s in strings)
        assert hashlib.sha256(text.encode()).hexdigest() == FIXTURE_DIGEST


_PARSE_ALPHABET = ["t", "0", "1", "2", "7", "(", ")", "+", "-", "*", "/", "^",
                   " ", "x", "$"]


def _grammar_text(rng, depth=2) -> str:
    """A random text of the parse grammar, spaced at random, with one token
    inserted or deleted half of the time."""
    def factor(d):
        pick = rng.randrange(3 if d else 2)
        if pick == 0:
            f = "t"
        elif pick == 1:
            f = str(rng.randint(0, 9))
            if rng.random() < 0.3:
                f += rng.choice(["/", " / "]) + str(rng.randint(0, 9))
        else:
            f = "(" + sum_(d - 1) + ")"
        if rng.random() < 0.3:
            f += "^" + rng.choice(["", "-", " - "]) + str(rng.randint(0, 3))
        return f

    def product(d):
        return rng.choice(["*", " * ", " ", ""]).join(
            factor(d) for _ in range(rng.randint(1, 3)))

    def sum_(d):
        text = rng.choice(["", "+", "-", "- "]) + product(d)
        for _ in range(rng.randrange(3)):
            text += rng.choice([" + ", " - ", "+", "-"]) + product(d)
        return text

    text = sum_(depth)
    if rng.random() < 0.5:
        i = rng.randint(0, len(text))
        if rng.random() < 0.5:
            text = text[:i] + rng.choice(_PARSE_ALPHABET) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def _same_parse(text):
    try:
        want = literal_parse(text)
    except (ExactError, ZeroDivisionError):
        with pytest.raises(ExactError):
            P(text)
        return False
    assert P(text) == want
    return True


class TestParseOracle:
    """LaurentPoly.parse against the parser class it replaced: the same
    texts accepted with the same values, and the rest rejected."""

    # No two digits in a row, so no exponent exceeds 9 and every text is cheap.
    @given(st.lists(st.sampled_from(_PARSE_ALPHABET), max_size=14).map("".join)
           .filter(lambda s: not re.search(r"\d\d", s)))
    @settings(max_examples=500, deadline=None)
    def test_random_token_strings(self, text):
        _same_parse(text)

    def test_random_grammar_texts(self):
        rng = random.Random(24)
        accepted = sum(_same_parse(_grammar_text(rng)) for _ in range(1500))
        assert 400 < accepted < 1400

    def test_fixture_strings(self):
        for s in _fixture_strings():
            assert P(s) == literal_parse(s)


def _random_poly(rng, max_terms=5):
    return LaurentPoly({rng.randint(-6, 6): Fraction(rng.randint(-9, 9),
                                                     rng.randint(1, 4))
                        for _ in range(rng.randint(0, max_terms))})


class TestRingAxioms:
    def test_random_ring_axioms(self):
        rng = random.Random(2024)
        for _ in range(1000):
            a, b, c = (_random_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_eval_is_ring_homomorphism(self):
        rng = random.Random(11)
        for _ in range(300):
            a, b = _random_poly(rng), _random_poly(rng)
            q = Fraction(rng.randint(1, 7), rng.randint(1, 5))
            assert (a * b).eval_at(q) == a.eval_at(q) * b.eval_at(q)
            assert (a + b).eval_at(q) == a.eval_at(q) + b.eval_at(q)

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-6, 6))
    @settings(max_examples=200)
    def test_monomial_product(self, c1, c2, e):
        p = LaurentPoly({e: c1})
        q = LaurentPoly({-e: c2})
        assert (p * q).coeff(0) == c1 * c2


# The sparse exponent -> coefficient dict arithmetic that LaurentPoly used
# before it stored dense coefficients, kept as the oracle for the dense one.
def _ref(terms) -> dict:
    return {e: Fraction(v) for e, v in terms.items() if v}


def _ref_add(a, b) -> dict:
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return _ref(out)


def _ref_mul(a, b) -> dict:
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return _ref(out)


def _ref_items(a) -> tuple:
    return tuple(sorted(a.items(), reverse=True))


def _ref_shift(a, k) -> dict:
    return {e + k: v for e, v in a.items()}


_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
_terms = st.dictionaries(st.integers(-8, 8), _coeffs, max_size=6)
_nonzero_terms = st.dictionaries(st.integers(-8, 8), _coeffs.filter(bool),
                                 min_size=1, max_size=6)


# Polynomials of degree <= 4 (products of two, <= 8) over Z or Q, zero
# among them.
_factors = st.one_of(
    st.just({}),
    st.dictionaries(st.integers(0, 4), st.integers(-9, 9), max_size=5),
    st.dictionaries(st.integers(0, 4), _coeffs, max_size=5)).map(LaurentPoly)


def _is_canonical(p) -> bool:
    """Every coefficient is an int where integral and a Fraction otherwise."""
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in p.coeffs)


class TestIntegralCoefficients:
    @given(_terms, st.lists(st.booleans(), min_size=17, max_size=17), _coeffs)
    @settings(max_examples=150, deadline=None)
    def test_builds_from_fractions_ints_or_both_agree(self, terms, picks, c):
        as_fraction = {e: Fraction(v) for e, v in terms.items()}
        as_int = {e: v.numerator if v.denominator == 1 else v
                  for e, v in terms.items()}
        mixed = {e: as_int[e] if picks[e + 8] else as_fraction[e]
                 for e in terms}
        builds = [LaurentPoly(d) for d in (as_fraction, as_int, mixed)]
        first = builds[0]
        for p in builds:
            assert _is_canonical(p)
            assert p.items() == first.items()
            assert [type(v) for _, v in p.items()] == \
                [type(v) for _, v in first.items()]
            assert str(p) == str(first) and p.to_latex() == first.to_latex()
            assert p == first and hash(p) == hash(first)
            for value in (p * p, p + first, p - first, -p, p * c,
                          p * Fraction(2), p * Fraction(1, 2) * 2,
                          p.shift(3), p.reciprocal_var()):
                assert _is_canonical(value)
        assert LaurentPoly(as_fraction) * Fraction(1, 2) * 2 == first


class TestKroneckerCodec:
    @given(st.integers(-5, 5), st.lists(st.integers(-2 ** 40, 2 ** 40),
                                        max_size=6), st.integers(42, 70))
    @example(3, [], 42)
    def test_unpacked_inverts_packed(self, low, cs, bits):
        p = LaurentPoly({low + i: c for i, c in enumerate(cs)})
        offset, v = exact._packed(p, bits)
        if p.is_zero:
            assert (offset, v) == (exact._NO_LOW, 0)
        else:
            assert offset == bits * p.low
            assert exact._unpacked(v, p.low, bits) == p


class TestDictReference:
    @given(_terms, _terms, _coeffs, st.integers(-5, 5))
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, a, b, c, k):
        p, q = LaurentPoly(a), LaurentPoly(b)
        ra, rb = _ref(a), _ref(b)
        assert p.items() == _ref_items(ra)
        assert (p + q).items() == _ref_items(_ref_add(ra, rb))
        assert (p - q).items() == _ref_items(_ref_add(ra, _ref_mul(rb, {0: -1})))
        assert (-p).items() == _ref_items(_ref_mul(ra, {0: -1}))
        assert (p * q).items() == _ref_items(_ref_mul(ra, rb))
        assert (p * c).items() == _ref_items(_ref_mul(ra, _ref({0: c})))
        assert p.shift(k).items() == _ref_items(_ref_shift(ra, k))
        assert (p == q) == (ra == rb)
        assert hash(p) == hash(_ref_items(ra))
        rebuilt = (p + q) - q
        assert rebuilt == p and hash(rebuilt) == hash(p)

    @given(_terms, _terms, st.sampled_from(["low", "high", "both"]))
    @settings(max_examples=150, deadline=None)
    def test_sums_that_cancel_at_an_end(self, a, middle, ends):
        ra = _ref(a)
        if len(ra) < 2:
            ra = {-3: Fraction(2), 4: Fraction(-1, 3)}
        lo, hi = min(ra), max(ra)
        rb = {e: v for e, v in _ref(middle).items() if lo < e < hi}
        if ends in ("low", "both"):
            rb[lo] = -ra[lo]
        if ends in ("high", "both"):
            rb[hi] = -ra[hi]
        total = LaurentPoly(ra) + LaurentPoly(rb)
        want = _ref_add(ra, rb)
        assert total.items() == _ref_items(want)
        assert total == LaurentPoly(want) and hash(total) == hash(_ref_items(want))
        if not total.is_zero:
            assert (total.min_exp > lo) == (ends != "high")
            assert (total.max_exp < hi) == (ends != "low")
            assert total.min_exp == min(want) and total.max_exp == max(want)
        assert (LaurentPoly(ra) - LaurentPoly(_ref_mul(rb, {0: -1}))) == total

    @given(_nonzero_terms, _nonzero_terms, st.integers(-9, -1),
           st.integers(-9, -1))
    @settings(max_examples=150, deadline=None)
    def test_exact_div_with_negative_exponents(self, q_terms, d_terms,
                                               q_low, d_low):
        rq, rd = _ref(q_terms), _ref(d_terms)
        rq = _ref_shift(rq, q_low - min(rq))
        rd = _ref_shift(rd, d_low - min(rd))
        num = _ref_mul(rq, rd)
        quot = exact_div(LaurentPoly(num), LaurentPoly(rd))
        assert quot.items() == _ref_items(rq)
        assert quot == LaurentPoly(rq) and hash(quot) == hash(_ref_items(rq))
        if len(rd) > 1:
            with pytest.raises(ExactError):
                exact_div(LaurentPoly(_ref_add(num, {min(num) - 1: 1})),
                          LaurentPoly(rd))


class TestRationalFunction:
    def test_exact_still_names_it(self):
        from wkostka import ratfunc
        assert exact.RationalFunction is ratfunc.RationalFunction \
            is RationalFunction
        with pytest.raises(AttributeError):
            exact.no_such_name

    def test_gcd_and_division_are_looked_up_in_exact(self, monkeypatch):
        """A wrapper put on exact.poly_gcd or exact.exact_div, as the traced
        benchmark puts one, sees every call that Q(t) makes."""
        calls = []
        for name in ("poly_gcd", "exact_div"):
            real = getattr(exact, name)
            monkeypatch.setattr(exact, name, lambda *a, real=real, name=name:
                                calls.append(name) or real(*a))
        f = RationalFunction(P("t^9 - 1"), P("t^3 - 1"))
        assert f.try_to_laurent() == P("t^6 + t^3 + 1")
        assert calls == ["poly_gcd", "exact_div", "exact_div"]

    def test_geometric_factor(self):
        f = RationalFunction(P("t^9 - 1"), P("t^3 - 1"))
        assert f.try_to_laurent() == P("t^6 + t^3 + 1")

    def test_true_fraction_rejected(self):
        f = RationalFunction(P("1"), P("t - 1"))
        with pytest.raises(ExactError):
            f.try_to_laurent()

    def test_laurent_round_trip(self):
        p = P("t^2 - t^-1")
        assert RationalFunction(p).try_to_laurent() == p

    def test_int_leading_coefficient_is_inverted_exactly(self):
        f = RationalFunction(P("2t + 2"), P("2t"))
        assert f.num == P("1 + t^-1") and f.den.is_one
        assert f == RationalFunction(P("1 + t^-1"))
        g = RationalFunction(P("1"), P("3t - 3"))
        assert g.num.items() == ((0, Fraction(1, 3)),)
        assert g.den == P("t - 1")

    def test_canonical_denominator(self):
        f = RationalFunction(P("t^2"), P("2t^3 - 2t"))
        assert f.den.items()[0][1] == 1
        assert f.den.min_exp == 0
        assert f == RationalFunction(P("t"), P("2t^2 - 2"))

    def test_field_axioms_random(self):
        rng = random.Random(5)
        for _ in range(200):
            a = RationalFunction(_random_poly(rng), _nonzero(rng))
            b = RationalFunction(_random_poly(rng), _nonzero(rng))
            c = RationalFunction(_random_poly(rng), _nonzero(rng))
            assert (a + b) * c == a * c + b * c
            if not b.is_zero:
                assert (a / b) * b == a

    def test_parse_round_trip(self):
        f = RationalFunction(P("t^2 + 1"), P("t^3 - t - 1"))
        assert RationalFunction.parse(f.to_string()) == f


class TestForeignOperands:
    """A reflected operator returns NotImplemented for an operand it cannot
    coerce, so Python raises its standard TypeError naming the operator."""

    @pytest.mark.parametrize("value", [LaurentPoly.one(),
                                       RationalFunction.one()],
                             ids=["LaurentPoly", "RationalFunction"])
    def test_float_minus_a_value(self, value):
        name = type(value).__name__
        with pytest.raises(TypeError, match=rf"for -: 'float' and '{name}'"):
            2.5 - value

    def test_float_over_a_rational_function(self):
        with pytest.raises(TypeError,
                           match=r"for /: 'float' and 'RationalFunction'"):
            2.5 / RationalFunction.one()

    def test_exact_operands_still_coerce(self):
        f = RationalFunction(P("t"), P("t + 1"))
        assert 1 - P("t") == P("1 - t")
        assert Fraction(1, 2) - P("t") == P("1/2 - t")
        assert 1 - f == RationalFunction(P("1"), P("t + 1"))
        assert P("t") - f == RationalFunction(P("t^2"), P("t + 1"))
        assert 2 / f == RationalFunction(P("2t + 2"), P("t"))
        assert P("t + 1") / f == RationalFunction(P("t^2 + 2t + 1"), P("t"))


def _nonzero(rng):
    while True:
        p = _random_poly(rng)
        if not p.is_zero:
            return p


class TestPolyGcd:
    def test_common_factor(self):
        a = P("(t - 1)*(t^2 + 1)")
        b = P("(t - 1)*(t + 3)")
        assert poly_gcd(a, b) == P("t - 1")

    def test_monic_of_an_int_polynomial(self):
        assert poly_gcd(P("2t + 2"), LaurentPoly.zero()) == P("t + 1")
        assert poly_gcd(LaurentPoly.zero(), P("3t^2")) == P("t^2")
        assert poly_gcd(P("4t^2 - 4"), P("6t + 6")) == P("t + 1")

    def test_negative_exponents_are_refused(self):
        for p, q in ((P("t^-1 + 1"), P("t + 1")), (P("t + 1"), P("2t^-2")),
                     (P("t^-1"), P("t^-1"))):
            with pytest.raises(ExactError):
                poly_gcd(p, q)
        # A zero argument returns the other one monic, exponents unchecked.
        assert poly_gcd(LaurentPoly.zero(), P("2t^-1")) == P("t^-1")

    @given(_factors, _factors, _factors, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_pseudo_remainder_oracle(self, a, b, g, plant):
        p, q = (a * g, b * g) if plant else (a, b)
        got = poly_gcd(p, q)
        assert got == literal_gcd(p, q) and _is_canonical(got)
        assert got.is_zero == (p.is_zero and q.is_zero)
        if not got.is_zero:
            assert got.min_exp >= 0 and got.coeffs[-1] == 1
            exact_div(p, got)
            exact_div(q, got)
            if plant and not g.is_zero:
                exact_div(got, g)

    def test_exact_div(self):
        assert exact_div(P("t^6 - t^-3"), P("t^-3")) == P("t^9 - 1")
        with pytest.raises(ExactError):
            exact_div(P("t^2 + 1"), P("t - 1"))


class TestPhiR:
    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
