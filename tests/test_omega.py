"""Fake-degree matrix: wreath characters, both entry routes, symmetries."""
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkostka.exact import Cyclotomic, ExactError, LaurentPoly
from wkostka.greencheck import thm55_check
from wkostka.omega import (OmegaError, WreathElement, a_O, b_O, bracket,
                           coset_table, delta_value, detV_value,
                           epsilon_value, fake_degree, omega_entry_bruteforce,
                           omega_entry_cosets, omega_matrix, rho_character,
                           torus_quotient, wreath_charpoly, wreath_classes,
                           wreath_elements, wreath_order)
from wkostka.rpart import (Composition, ContingencyMatrix, RPartition,
                           default_total_order, enumerate_rpartitions, n_star)
from wkostka.symgrp import char_perm_det_from_type, double_cosets

from literal_cosets import omega_by_literal_cosets
from literal_wreath import identity, product, rho_by_conjugation


def P(s):
    return LaurentPoly.parse(s)


def RP(s):
    return RPartition.parse(s)


class TestWreathGroup:
    """The group law lives in tests/literal_wreath.py, with the conjugation
    walk that needs it; the library only inverts."""

    def test_identity_and_inverse(self):
        rng = random.Random(1)
        els = list(wreath_elements(3, 3))
        e = identity(3, 3)
        for _ in range(100):
            w = rng.choice(els)
            assert product(w, w.inv()) == e
            assert product(w.inv(), w) == e

    def test_associativity_random(self):
        rng = random.Random(2)
        els = list(wreath_elements(3, 2))
        for _ in range(200):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert product(product(a, b), c) == product(a, product(b, c))

    def test_order(self):
        assert wreath_order(3, 3) == 162
        assert len(list(wreath_elements(2, 4))) == 32

    def test_class_count_matches_rpartitions(self):
        for n, r in ((1, 3), (2, 3), (3, 3), (2, 4)):
            assert len(wreath_classes(n, r)) == len(enumerate_rpartitions(n, r))
            assert sum(size for _, size in wreath_classes(n, r)) == \
                wreath_order(n, r)

    def test_linear_characters(self):
        w = WreathElement((0, 1, 2), (1, 0, 0), 3)
        assert delta_value(w) == Cyclotomic.zeta(3, 1)
        assert epsilon_value(w) == 1
        assert detV_value(w) == Cyclotomic.zeta(3, 1)

    def test_charpoly_identity_element(self):
        w = identity(3, 3)
        assert wreath_charpoly(w).to_laurent() == P("(t - 1)^3")

    def test_charpoly_full_cycle(self):
        w = WreathElement((1, 2, 0), (1, 2, 0), 3)  # colors sum to 0 mod 3
        assert wreath_charpoly(w).to_laurent() == P("t^3 - 1")

    def test_det_is_charpoly_constant(self):
        for w in wreath_elements(2, 3):
            cp = wreath_charpoly(w)
            const = cp.coeffs[0] * (-1) ** w.n
            assert const == detV_value(w)


class TestRhoCharacter:
    @pytest.mark.parametrize("n,r", [(1, 3), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_matches_conjugation_walk(self, n, r):
        """One pass over the block subgroup (Frobenius) against the literal
        walk over W, on every r-partition and every class."""
        for lam in enumerate_rpartitions(n, r):
            for w, _ in wreath_classes(n, r):
                assert rho_character(lam, w) == rho_by_conjugation(lam, w)

    def test_element_must_match(self):
        with pytest.raises(OmegaError):
            rho_character(RP("(1;-;-)"), identity(1, 2))
        with pytest.raises(OmegaError):
            rho_character(RP("(1;-;-)"), identity(2, 3))

    def test_one_dimensionals(self):
        n, r = 2, 3
        triv = RP("(2;-;-)")
        delt = RP("(-;2;-)")
        det_bar = RP("(-;-;11)")
        for w in wreath_elements(n, r):
            d = delta_value(w)
            assert rho_character(triv, w) == Cyclotomic.from_rational(r, 1)
            assert rho_character(delt, w) == d
            assert rho_character(det_bar, w) == d * d * epsilon_value(w)

    def test_slot_characters(self):
        # (5.6.2)-type: the one-row / one-column r-partitions in slot i
        n, r = 2, 3
        for i in range(r):
            lam_parts = [()] * r
            lam_parts[i] = (n,)
            mu_parts = [()] * r
            mu_parts[i] = (1,) * n
            lam, mu = RPartition(tuple(lam_parts)), RPartition(tuple(mu_parts))
            for w, _ in wreath_classes(n, r):
                d = delta_value(w)
                dpow = Cyclotomic.from_rational(r, 1)
                for _ in range(i):
                    dpow = dpow * d
                assert rho_character(lam, w) == dpow
                assert rho_character(mu, w) == dpow * epsilon_value(w)

    def test_transpose_twist(self):
        for n, r in ((1, 3), (2, 3), (3, 3), (2, 2)):
            for lam in enumerate_rpartitions(n, r):
                tlam = lam.transpose()
                for w, _ in wreath_classes(n, r):
                    assert rho_character(tlam, w) == \
                        rho_character(lam, w) * epsilon_value(w)

    def test_conjugate_is_slot_reversal(self):
        # conj(rho^lam)(w) = rho^lam(w^-1) matches the slot-reversed index
        n, r = 2, 3
        for lam in enumerate_rpartitions(n, r):
            rev = RPartition((lam.parts[0],) + tuple(reversed(lam.parts[1:])))
            for w, _ in wreath_classes(n, r):
                assert rho_character(lam, w.inv()) == rho_character(rev, w)

    def test_degree_sum_of_squares(self):
        n, r = 3, 3
        e = identity(n, r)
        total = Fraction(0)
        for lam in enumerate_rpartitions(n, r):
            d = rho_character(lam, e).as_rational()
            total += d * d
        assert total == wreath_order(n, r)


class TestFakeDegree:
    def test_trivial_character(self):
        for n, r in ((1, 3), (2, 3), (2, 2)):
            one = Cyclotomic.from_rational(r, 1)
            assert fake_degree(n, r, lambda w: one) == P("1")

    def test_nonnegative_integer_coefficients(self):
        n, r = 2, 3
        for lam in enumerate_rpartitions(n, r):
            val = fake_degree(n, r, lambda w: rho_character(lam, w))
            assert val.has_nonneg_int_coeffs()
            # graded multiplicity of lam in the coinvariant algebra:
            # total multiplicity equals the degree of the character
            e = identity(n, r)
            assert val.eval_at(1) == rho_character(lam, e).as_rational()

    def test_oracle_bound(self):
        """The wreath route compares n*r^n (3 at (1,3)) with the bound once,
        before it computes any entry; fake_degree itself takes no bound."""
        order = default_total_order(1, 3)
        omega_entry_bruteforce.cache_clear()
        with pytest.raises(OmegaError, match=r"n\*r\^n = 3 > 2"):
            omega_matrix(1, 3, order, "wreath", wreath_bound=2)
        assert omega_entry_bruteforce.cache_info().currsize == 0
        assert len(omega_matrix(1, 3, order, "wreath", wreath_bound=3).order) == 3


class TestBracketExponents:
    def test_bracket(self):
        assert bracket(1, 1, 3) == 2
        assert bracket(3, 2, 3) == 0
        assert bracket(1, 3, 3) == 0

    def test_a_O(self):
        for n in (1, 2, 4):
            h = [[0] * 3 for _ in range(3)]
            h[0][0] = n
            assert a_O(ContingencyMatrix(tuple(map(tuple, h))), 3) == 2 * n
        h = [[0] * 3 for _ in range(3)]
        h[1][2] = 1
        assert a_O(ContingencyMatrix(tuple(map(tuple, h))), 3) == 0
        zero = ContingencyMatrix(((0, 0), (0, 0)))
        assert a_O(zero, 2) == 0

    def test_b_O_single_box(self):
        lam, mu = RP("(-;1;-)"), RP("(-;-;1)")
        h = [[0] * 3 for _ in range(3)]
        h[2][1] = 1  # row margin = weight(mu), col margin = weight(lam)
        hm = ContingencyMatrix(tuple(map(tuple, h)))
        assert b_O(lam, mu, hm) == 0

    def test_b_O_margin_check(self):
        lam, mu = RP("(1;-;-)"), RP("(1;-;-)")
        h = [[0] * 3 for _ in range(3)]
        h[2][2] = 1
        with pytest.raises(OmegaError):
            b_O(lam, mu, ContingencyMatrix(tuple(map(tuple, h))))

    def test_b_O_concentrated(self):
        n, r = 3, 3
        lam = RPartition(((), (), (1,) * n))
        h = [[0] * r for _ in range(r)]
        h[r - 1][r - 1] = n
        hm = ContingencyMatrix(tuple(map(tuple, h)))
        from math import comb
        assert b_O(lam, lam, hm) == comb(n, 2) - 2 * lam.n_value()


OMEGA_7_1 = [["t^4", "t^2", "t^3"],
             ["t^3", "t^4", "t^2"],
             ["t^2", "t^3", "t^4"]]


class TestOmegaEntries:
    def test_section71_entries(self):
        order = default_total_order(1, 3)
        for i, lam in enumerate(order.items):
            for j, mu in enumerate(order.items):
                want = P(OMEGA_7_1[i][j])
                assert omega_entry_cosets(lam, mu, 3) == want
                assert omega_entry_bruteforce(lam, mu, 3) == want

    @pytest.mark.parametrize("n,r", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_dual_route(self, n, r):
        for lam in enumerate_rpartitions(n, r):
            for mu in enumerate_rpartitions(n, r):
                assert omega_entry_cosets(lam, mu, r) == \
                    omega_entry_bruteforce(lam, mu, r)

    @pytest.mark.parametrize("n,r", [(1, 3), (2, 2), (2, 3), (3, 1), (3, 2),
                                     (3, 3), (4, 1), (4, 2)])
    def test_kernel_matches_literal_cosets(self, n, r):
        for lam in enumerate_rpartitions(n, r):
            for mu in enumerate_rpartitions(n, r):
                assert omega_entry_cosets(lam, mu, r) == \
                    omega_by_literal_cosets(lam, mu, r)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel_random_entries(self, data):
        """Random entries up to (n, r) = (4, 3): the kernel against the
        literal double-coset sum, and the transpose symmetry."""
        n = data.draw(st.integers(0, 4), label="n")
        r = data.draw(st.integers(1, 3), label="r")
        items = enumerate_rpartitions(n, r)
        lam = data.draw(st.sampled_from(items), label="lam")
        mu = data.draw(st.sampled_from(items), label="mu")
        value = omega_entry_cosets(lam, mu, r)
        assert value == omega_by_literal_cosets(lam, mu, r)
        assert value == omega_entry_cosets(lam.transpose(), mu.transpose(), r)

    @pytest.mark.parametrize("n,r", [(1, 2), (2, 2), (1, 3), (2, 3)])
    def test_via_a_O_exponent(self, n, r):
        """Alternative assembly: per-coset color exponents a_O with one
        overall t^(N*) twist, never touching the a-function or tau."""
        from wkostka.exact import RationalFunction
        from wkostka.symgrp import (compose, cycle_type, double_cosets,
                                    intersection_elements, inverse,
                                    young_character)
        for lam in enumerate_rpartitions(n, r):
            for mu in enumerate_rpartitions(n, r):
                m, mp = lam.weight(), mu.weight()
                total = RationalFunction.zero()
                for dc in double_cosets(n, m, mp):
                    tpow = a_O(dc.label, r)
                    for x in dc.members:
                        xinv = inverse(x)
                        for y in intersection_elements(m, mp, x):
                            c = young_character(lam, y, m) * young_character(
                                mu, compose(xinv, compose(y, x)), mp)
                            if c:
                                total = total + RationalFunction(
                                    LaurentPoly.t_power(tpow, c),
                                    char_perm_det_from_type(cycle_type(y), r))
                top = LaurentPoly.one()
                for k in range(1, n + 1):
                    top = top * (LaurentPoly.t_power(k * r) - 1)
                scale = factorial(1)
                orders = 1
                for s in m.parts:
                    orders *= factorial(s)
                for s in mp.parts:
                    orders *= factorial(s)
                total = total * RationalFunction(top, orders)
                total = total * RationalFunction.t_power(n_star(n, r))
                assert total.try_to_laurent() == omega_entry_cosets(lam, mu, r)

    def test_transpose_symmetry(self):
        for n, r in ((2, 2), (2, 3), (3, 2)):
            for lam in enumerate_rpartitions(n, r):
                for mu in enumerate_rpartitions(n, r):
                    assert omega_entry_cosets(lam, mu, r) == \
                        omega_entry_cosets(lam.transpose(), mu.transpose(), r)

    def test_symmetric_for_small_r(self):
        for n, r in ((2, 1), (3, 1), (2, 2), (3, 2)):
            for lam in enumerate_rpartitions(n, r):
                for mu in enumerate_rpartitions(n, r):
                    assert omega_entry_cosets(lam, mu, r) == \
                        omega_entry_cosets(mu, lam, r)

    def test_matrix_builder_and_both_methods(self):
        order = default_total_order(1, 3)
        a = omega_matrix(1, 3, order, "cosets")
        b = omega_matrix(1, 3, order, "wreath")
        assert a.entries == b.entries
        with pytest.raises(OmegaError):
            omega_matrix(1, 3, order, "nope")

    def test_coset_bound(self):
        """The coset route compares K = |P_{n,r}| (5 at (1,5)) with the
        bound once, before it computes any entry."""
        order = default_total_order(1, 5)
        omega_entry_cosets.cache_clear()
        with pytest.raises(OmegaError):
            omega_matrix(1, 5, order, coset_n_bound=4)
        assert omega_entry_cosets.cache_info().currsize == 0
        assert len(omega_matrix(1, 5, order, coset_n_bound=5).order) == 5

    def test_one_cache_entry_per_omega_entry(self):
        """The entry cache is keyed by (lam, mu, r) alone, so Omega and the
        Theorem 5.5 check share every entry."""
        omega_entry_cosets.cache_clear()
        omega_matrix(2, 3, default_total_order(2, 3))
        thm55_check(2, 3)
        k = len(enumerate_rpartitions(2, 3))
        assert omega_entry_cosets.cache_info().currsize == 81 == k * k

    def test_one_cache_entry_per_oracle_entry(self):
        """The oracle's entry cache is keyed by (lam, mu, r) alone: a second
        matrix under another bound reuses the same 9 entries."""
        order = default_total_order(1, 3)
        omega_entry_bruteforce.cache_clear()
        omega_matrix(1, 3, order, "wreath")
        omega_matrix(1, 3, order, "wreath", wreath_bound=20001)
        assert omega_entry_bruteforce.cache_info().currsize == 9

    def test_n0_matrix(self):
        order = default_total_order(0, 3)
        om = omega_matrix(0, 3, order)
        assert om.entries.rows[0][0] == P("1")


class TestCosetTable:
    @pytest.mark.parametrize("mt,mpt", [((2, 1, 0), (1, 1, 1)),
                                        ((3, 1), (2, 2)), ((4,), (4,)),
                                        ((1, 2, 1), (2, 0, 2))])
    def test_labels_and_margins(self, mt, mpt):
        """The labels are those of the brute-force double cosets; each
        label's weights sum to 1 (the class equation sum 1/z_rho = 1, once
        per cell); the joined types have the label's margins."""
        m, mp = Composition(mt), Composition(mpt)
        table = coset_table(m, mp)
        assert {h.rows for h, _ in table} == \
            {dc.label.rows for dc in double_cosets(m.n, m, mp)}
        for h, terms in table:
            assert sum(w for *_, w in terms) == 1
            for cols, rows, rho, _ in terms:
                assert tuple(sum(c) for c in cols) == h.col_sums()
                assert tuple(sum(c) for c in rows) == h.row_sums()
                assert sorted(rho) == sorted(x for c in cols for x in c)

    def test_torus_quotient(self):
        assert torus_quotient((2,), 2, 1) == P("t - 1")
        assert torus_quotient((1, 1), 2, 3) == P("t^3 + 1")
        assert torus_quotient((), 0, 3) == P("1")
        with pytest.raises(ExactError):
            torus_quotient((3,), 2, 1)
