"""Fake-degree matrix: wreath characters, both entry routes, symmetries."""
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wkostka.omega as omega_mod
from wkostka.exact import ExactError, LaurentPoly, cyclotomic_polynomial
from wkostka.greencheck import thm55_check
import wkostka
from wkostka.omega import (OmegaError, WreathElement, _class_terms,
                           _omega_block, _omega_entry_direct, _omega_row,
                           _orbit_twist, _twist, _zeta_mul, a_O, b_O,
                           bracket, coset_table, detV_value,
                           fake_degree, omega_entry_bruteforce,
                           omega_entry_cosets,
                           omega_matrix, rho_character, torus_quotient,
                           wreath_classes, wreath_elements, wreath_order,
                           zeta_coords)
from wkostka.rpart import (Composition, ContingencyMatrix, RPartition,
                           default_total_order, enumerate_rpartitions, n_star)
from wkostka.symgrp import char_perm_det_from_type, double_cosets, sign

from literal_cosets import omega_by_literal_cosets
from literal_omega_block import omega_by_fraction_blocks
from literal_wreath import identity, product, rho_by_conjugation


def P(s):
    return LaurentPoly.parse(s)


def RP(s):
    return RPartition.parse(s)


def zeta_power(k, r, c=1):
    """c zeta^k in canonical coordinates."""
    return zeta_coords((0,) * (k % r) + (c,), r)


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
        assert sign(w.sigma) == 1
        assert zeta_coords(detV_value(w.colored_cycle_type(), 3), 3) == (0, 1)
        w = WreathElement((1, 0, 2), (1, 1, 0), 3)  # -zeta^2 = 1 + zeta
        assert sign(w.sigma) == -1
        assert zeta_coords(detV_value(w.colored_cycle_type(), 3), 3) == (1, 1)

    @pytest.mark.parametrize("n,r", [(2, 3), (2, 4), (3, 3)])
    def test_class_quotient_times_charpoly(self, n, r):
        """Each class quotient times det_V(t - w) = prod_cycles (t^l - x^s)
        is prod_(i<=n) (t^(ir) - 1) in Z[C_r][t], the k-th of the r
        LaurentPolys the coefficient of x^k."""
        top = P("1")
        for i in range(1, n + 1):
            top = top * (LaurentPoly.t_power(i * r) - 1)
        want = [top] + [LaurentPoly.zero()] * (r - 1)
        terms = _class_terms(n, r)
        assert len(terms) == len(wreath_classes(n, r))
        for (rep, _), (key, inv_key, _, quot) in zip(wreath_classes(n, r),
                                                     terms):
            assert key == rep.colored_cycle_type()
            assert inv_key == rep.inv().colored_cycle_type()
            prod = list(quot)
            for length, s in key:
                prod = [prod[k].shift(length) - prod[(k - s) % r]
                        for k in range(r)]
            assert prod == want, rep


class TestZetaCoords:
    """Zeta-power vectors, the oracle's value type, reduced modulo Phi_r."""

    def test_zeta_power_wraps(self):
        for r in range(1, 13):
            deg = len(cyclotomic_polynomial(r)) - 1
            for k in range(deg):
                assert zeta_power(k, r) == tuple(int(i == k) for i in range(deg))
            for k in range(3 * r):
                assert zeta_coords((0,) * k + (1,), r) == zeta_power(k, r)

    def test_group_ring_products(self):
        """Q[C_r] -> Q(zeta_r) is a ring map: reducing a cyclic convolution
        equals reducing the plain polynomial product."""
        rng = random.Random(3)
        for r in (3, 4, 5, 6, 8):
            for _ in range(20):
                a = [rng.randint(-4, 4) for _ in range(r)]
                b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(r)]
                plain = (LaurentPoly(dict(enumerate(a)))
                         * LaurentPoly(dict(enumerate(b))))
                assert zeta_coords(_zeta_mul(a, b, r), r) == \
                    zeta_coords([plain.coeff(k) for k in range(2 * r)], r)

    def test_root_sum_vanishes(self):
        for r in (2, 3, 5, 7):
            assert not any(zeta_coords((1,) * r, r))

    def test_phi_vanishes_at_zeta(self):
        for r in range(1, 13):
            assert not any(zeta_coords(cyclotomic_polynomial(r), r))


class TestRhoCharacter:
    @pytest.mark.parametrize("n,r", [(1, 3), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_matches_conjugation_walk(self, n, r):
        """One pass over the block subgroup (Frobenius) against the literal
        walk over W, on every r-partition and every class."""
        for lam in enumerate_rpartitions(n, r):
            for w, _ in wreath_classes(n, r):
                assert rho_character(lam, w) == rho_by_conjugation(lam, w)
                assert len(rho_character(lam, w)) == \
                    len(cyclotomic_polynomial(r)) - 1

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
            s = sum(w.colors)
            assert rho_character(triv, w) == zeta_power(0, r)
            assert rho_character(delt, w) == zeta_power(s, r)
            assert rho_character(det_bar, w) == \
                zeta_power(2 * s, r, sign(w.sigma))

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
                s = i * sum(w.colors)
                assert rho_character(lam, w) == zeta_power(s, r)
                assert rho_character(mu, w) == \
                    zeta_power(s, r, sign(w.sigma))

    def test_transpose_twist(self):
        for n, r in ((1, 3), (2, 3), (3, 3), (2, 2)):
            for lam in enumerate_rpartitions(n, r):
                tlam = lam.transpose()
                for w, _ in wreath_classes(n, r):
                    twisted = [sign(w.sigma) * c
                               for c in rho_character(lam, w)]
                    assert rho_character(tlam, w) == zeta_coords(twisted, r)

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
            d, *rest = rho_character(lam, e)
            assert not any(rest)
            total += d * d
        assert total == wreath_order(n, r)


class TestFakeDegree:
    def test_trivial_character(self):
        for n, r in ((1, 3), (2, 3), (2, 2)):
            assert fake_degree(n, r, lambda key, inv_key: (1,)) == P("1")

    def test_irrational_values_raise(self):
        """The constant zeta is no rational class function: its fake degree
        is zeta, which the Phi_r reduction leaves non-constant."""
        with pytest.raises(OmegaError, match="irrational"):
            fake_degree(2, 3, lambda key, inv_key: (0, 1))

    def test_nonnegative_integer_coefficients(self):
        n, r = 2, 3
        reps = {w.colored_cycle_type(): w for w, _ in wreath_classes(n, r)}
        for lam in enumerate_rpartitions(n, r):
            val = fake_degree(n, r,
                              lambda key, _: rho_character(lam, reps[key]))
            assert val.has_nonneg_int_coeffs()
            # graded multiplicity of lam in the coinvariant algebra:
            # total multiplicity equals the degree of the character
            e = identity(n, r)
            assert (val.eval_at(1), 0) == rho_character(lam, e)

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

    @pytest.mark.parametrize("n,r", [(0, 3), (1, 4), (4, 1), (3, 2), (4, 2),
                                     (2, 3), (3, 3), (2, 4), (2, 5), (3, 4),
                                     (4, 3)])
    def test_reuse_matches_the_direct_route(self, n, r):
        """Every entry read off its orbit's representative equals the one
        computed for the pair itself."""
        items = enumerate_rpartitions(n, r)
        for lam in items:
            for mu in items:
                assert omega_entry_cosets(lam, mu, r) == \
                    _omega_entry_direct(lam, mu, r)

    @pytest.mark.parametrize("n,r", [(3, 1), (3, 2), (2, 3), (3, 4)])
    def test_orbit_representative(self, n, r):
        """The chosen twist gives the least image of the 2r, and the
        representative is its own representative."""
        for lam in enumerate_rpartitions(n, r):
            images = [_twist(lam, k, conj).parts
                      for conj in (False, True) for k in range(r)]
            rep = _twist(lam, *_orbit_twist(lam))
            assert rep.parts == min(images)
            assert _twist(rep, *_orbit_twist(rep)) == rep
        lam = RP("(2;-;-)")
        assert [_twist(lam, k, False) for k in range(3)] == \
            [lam, RP("(-;2;-)"), RP("(-;-;2)")]
        assert _twist(lam, *_orbit_twist(lam)) == RP("(-;-;11)")

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
        assert value == _omega_entry_direct(lam.transpose(), mu.transpose(), r)

    @pytest.mark.parametrize("n,r", [(1, 2), (2, 2), (1, 3), (2, 3)])
    def test_via_a_O_exponent(self, n, r):
        """Alternative assembly: per-coset color exponents a_O with one
        overall t^(N*) twist, never touching the a-function or tau."""
        from wkostka.exact import RationalFunction
        from wkostka.symgrp import (block_character, block_cycle_types,
                                    compose, cycle_type, double_cosets,
                                    intersection_elements, inverse)
        for lam in enumerate_rpartitions(n, r):
            for mu in enumerate_rpartitions(n, r):
                m, mp = lam.weight(), mu.weight()
                total = RationalFunction.zero()
                for dc in double_cosets(n, m, mp):
                    tpow = a_O(dc.label, r)
                    for x in dc.members:
                        xinv = inverse(x)
                        for y in intersection_elements(m, mp, x):
                            z = compose(xinv, compose(y, x))
                            c = block_character(
                                lam, block_cycle_types(y, m)) * \
                                block_character(mu, block_cycle_types(z, mp))
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
        """On the direct route: the reusing one maps both sides to one
        representative, so it could not see a broken symmetry."""
        for n, r in ((2, 2), (2, 3), (3, 2)):
            for lam in enumerate_rpartitions(n, r):
                for mu in enumerate_rpartitions(n, r):
                    assert _omega_entry_direct(lam, mu, r) == \
                        _omega_entry_direct(lam.transpose(), mu.transpose(), r)

    def test_rotation_symmetry(self):
        """Tensoring with delta moves component j to j + 1 mod r, written
        out here apart from _twist."""
        for n, r in ((2, 2), (2, 3), (3, 3), (2, 4)):
            for lam in enumerate_rpartitions(n, r):
                for mu in enumerate_rpartitions(n, r):
                    assert _omega_entry_direct(lam, mu, r) == \
                        _omega_entry_direct(
                            RPartition(lam.parts[-1:] + lam.parts[:-1]),
                            RPartition(mu.parts[-1:] + mu.parts[:-1]), r)

    def test_symmetric_for_small_r(self):
        for n, r in ((2, 1), (3, 1), (2, 2), (3, 2)):
            for lam in enumerate_rpartitions(n, r):
                for mu in enumerate_rpartitions(n, r):
                    assert _omega_entry_direct(lam, mu, r) == \
                        _omega_entry_direct(mu, lam, r)

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

    def test_one_direct_entry_per_orbit(self):
        """At (2,5) the 20 r-partitions fall into 3 orbits of the 10 twists,
        so Omega computes 3 * 20 entries and 45 weight-pair blocks, not 400
        and 225, while omega_entry_cosets still answers all 400."""
        wkostka.clear_caches()
        omega_matrix(2, 5, default_total_order(2, 5))
        assert omega_entry_cosets.cache_info().currsize == 400
        assert _omega_entry_direct.cache_info().currsize == 60
        assert _omega_block.cache_info().currsize == 45

    def test_n0_matrix(self):
        order = default_total_order(0, 3)
        om = omega_matrix(0, 3, order)
        assert om.entries.rows[0][0] == P("1")


class TestIntegerKernel:
    """Each coset entry is the sum over the row types of
    chi^mu(rows) * R_lam(rows), over Z, divided by L exactly."""

    @pytest.fixture
    def fresh_kernel(self):
        wkostka.clear_caches()
        yield
        wkostka.clear_caches()

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 5)
                                     for r in range(1, 4)]
                             + [(2, 5), (3, 4), (5, 2)])
    def test_matches_fraction_contraction(self, n, r):
        """The integer kernel against the per-entry contraction of Q[t]
        blocks that it replaced."""
        items = enumerate_rpartitions(n, r)
        for lam in items:
            for mu in items:
                value = omega_entry_cosets(lam, mu, r)
                assert value == omega_by_fraction_blocks(lam, mu, r)
                assert all(type(c) is int for c in value.coeffs)

    def test_blocks_share_low_and_length(self):
        low, den, blocks = _omega_block(Composition((2, 1, 0)),
                                        Composition((2, 0, 1)), 3)
        assert den == 2  # the label with h_11 = 2 weighs 1/z_(2) = 1/2
        assert len({len(cs) for *_, cs in blocks}) == 1
        assert all(type(c) is int for *_, cs in blocks for c in cs)

    @pytest.mark.parametrize("fault", ["block", "denominator"])
    def test_inexact_sum_raises(self, monkeypatch, fresh_kernel, fault):
        """One coefficient of one block raised by 1, or L doubled, leaves L
        not dividing the sum for the trivial-character entry (whose
        character is 1 on every block and whose value has coefficient 1):
        the entry raises and is never rounded."""
        real = omega_mod._omega_block

        def seeded(m, mp, r):
            low, den, blocks = real(m, mp, r)
            if fault == "denominator":
                return low, 2 * den, blocks
            (cols, rows, cs), *rest = blocks
            return low, den, ((cols, rows, (cs[0] + 1,) + cs[1:]), *rest)

        monkeypatch.setattr(omega_mod, "_omega_block", seeded)
        triv = RP("(2;-;-)")
        with pytest.raises(OmegaError, match="not integral"):
            _omega_entry_direct(triv, triv, 3)


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
