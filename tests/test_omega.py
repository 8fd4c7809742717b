"""Fake-degree matrix: wreath characters, both entry routes, symmetries."""
import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wkostka.omega as omega_mod
from wkostka.exact import ExactError, LaurentPoly
from wkostka.greencheck import GreenCheckError, b_O, thm55_check
import wkostka
from wkostka.omega import (OmegaError, _omega_block, _omega_entry_direct,
                           _omega_row, _orbit_twist, _twist, a_O, bracket,
                           coset_table, omega_entry_cosets, omega_matrix,
                           torus_quotient)
from wkostka.rpart import (Composition, ContingencyMatrix, OrderedIndex,
                           RPartition, RPartitionError, compositions,
                           default_total_order, enumerate_contingency,
                           enumerate_rpartitions, n_star)
from wkostka.symgrp import char_perm_det_from_type, double_cosets, sign
from wkostka.wreath import (_classes, _zeta_mul, cyclotomic_polynomial,
                            detV_value, fake_degree, omega_entry_bruteforce,
                            rho_character, zeta_coords)

from literal_cosets import literal_weights, omega_by_literal_cosets
from literal_omega_block import omega_by_fraction_blocks
from literal_wreath import (WreathElement, identity, product,
                            rho_by_conjugation, wreath_elements)


def P(s):
    return LaurentPoly.parse(s)


def RP(s):
    return RPartition.parse(s)


def zeta_power(k, r, c=1):
    """c zeta^k in canonical coordinates."""
    return zeta_coords((0,) * (k % r) + (c,), r)


def wreath_order(n, r):
    return factorial(n) * r ** n


def representatives(n, r):
    """One element of each class, keyed by its colored cycle type."""
    return {w.colored_cycle_type(): w for w in wreath_elements(n, r)}


def identity_class(n, r):
    return RPartition(((1,) * n,) + ((),) * (r - 1))


def sign_of(rho):
    """epsilon on the class rho: (-1)^(n - number of cycles)."""
    return (-1) ** (rho.n - sum(map(len, rho.parts)))


class TestWreathGroup:
    """The group law lives in tests/literal_wreath.py, with the conjugation
    walk that needs it; the oracle works with the classes alone."""

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
        """Each element's colored cycle type is one r-partition, and the
        centralizer formula gives the number of elements of each."""
        for n, r in ((0, 3), (1, 3), (2, 3), (3, 3), (2, 4), (3, 2), (4, 1)):
            counts = Counter(w.colored_cycle_type()
                             for w in wreath_elements(n, r))
            assert counts == {rho: size for rho, _, size, _ in _classes(n, r)}

    @pytest.mark.parametrize("n,r", [(2, 3), (3, 3), (2, 4)])
    def test_inverse_classes(self, n, r):
        inverse = {rho: inv for rho, inv, *_ in _classes(n, r)}
        for w in wreath_elements(n, r):
            assert inverse[w.colored_cycle_type()] == \
                w.inv().colored_cycle_type()

    def test_linear_characters(self):
        w = WreathElement((0, 1, 2), (1, 0, 0), 3)
        assert sign(w.sigma) == 1
        assert zeta_coords(detV_value(w.colored_cycle_type()), 3) == (0, 1)
        w = WreathElement((1, 0, 2), (1, 1, 0), 3)  # -zeta^2 = 1 + zeta
        assert sign(w.sigma) == -1
        assert zeta_coords(detV_value(w.colored_cycle_type()), 3) == (1, 1)

    @pytest.mark.parametrize("n,r", [(2, 3), (2, 4), (3, 3)])
    def test_class_quotient_times_charpoly(self, n, r):
        """Each class quotient times det_V(t - w) = prod_cycles (t^l - x^s)
        is prod_(i<=n) (t^(ir) - 1) in Z[C_r][t], the k-th of the r
        LaurentPolys the coefficient of x^k."""
        top = P("1")
        for i in range(1, n + 1):
            top = top * (LaurentPoly.t_power(i * r) - 1)
        want = [top] + [LaurentPoly.zero()] * (r - 1)
        for rho, _, _, quot in _classes(n, r):
            prod = list(quot)
            for s, part in enumerate(rho.parts):
                for length in part:
                    prod = [prod[k].shift(length) - prod[(k - s) % r]
                            for k in range(r)]
            assert prod == want, rho


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
    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 4)
                                     for r in range(1, 5)])
    def test_matches_conjugation_walk(self, n, r):
        """The Murnaghan-Nakayama characters against the literal walk over
        W, on every r-partition and every class."""
        reps = representatives(n, r)
        assert len(reps) == len(enumerate_rpartitions(n, r))
        for lam in enumerate_rpartitions(n, r):
            for rho, w in reps.items():
                assert rho_character(lam, rho) == rho_by_conjugation(lam, w)
                assert len(rho_character(lam, rho)) == \
                    len(cyclotomic_polynomial(r)) - 1

    def test_class_must_match(self):
        with pytest.raises(OmegaError):
            rho_character(RP("(1;-;-)"), RP("(1;-)"))
        with pytest.raises(OmegaError):
            rho_character(RP("(1;-;-)"), RP("(2;-;-)"))

    def test_one_dimensionals(self):
        n, r = 2, 3
        triv = RP("(2;-;-)")
        delt = RP("(-;2;-)")
        det_bar = RP("(-;-;11)")
        for w in wreath_elements(n, r):
            s = sum(w.colors)
            rho = w.colored_cycle_type()
            assert rho_character(triv, rho) == zeta_power(0, r)
            assert rho_character(delt, rho) == zeta_power(s, r)
            assert rho_character(det_bar, rho) == \
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
            for rho, w in representatives(n, r).items():
                s = i * sum(w.colors)
                assert rho_character(lam, rho) == zeta_power(s, r)
                assert rho_character(mu, rho) == \
                    zeta_power(s, r, sign(w.sigma))

    def test_transpose_twist(self):
        for n, r in ((1, 3), (2, 3), (3, 3), (2, 2)):
            for lam in enumerate_rpartitions(n, r):
                tlam = lam.transpose()
                for rho in enumerate_rpartitions(n, r):
                    twisted = [sign_of(rho) * c
                               for c in rho_character(lam, rho)]
                    assert rho_character(tlam, rho) == zeta_coords(twisted, r)

    def test_conjugate_is_slot_reversal(self):
        # conj(rho^lam)(w) = rho^lam(w^-1) matches the slot-reversed index
        n, r = 2, 3
        for lam in enumerate_rpartitions(n, r):
            rev = RPartition((lam.parts[0],) + tuple(reversed(lam.parts[1:])))
            for w in wreath_elements(n, r):
                assert rho_character(lam, w.inv().colored_cycle_type()) == \
                    rho_character(rev, w.colored_cycle_type())

    def test_degree_sum_of_squares(self):
        for n, r in ((3, 3), (4, 2), (2, 5)):
            total = 0
            for lam in enumerate_rpartitions(n, r):
                d, *rest = rho_character(lam, identity_class(n, r))
                assert not any(rest)
                total += d * d
            assert total == wreath_order(n, r)

    def test_column_orthogonality(self):
        """sum_lam |rho^lam(C)|^2 = |W| / |C|, on zeta-power vectors: the
        product with the conjugate, rho^lam(C^-1), reduced modulo Phi_r."""
        for n, r in ((3, 3), (2, 4), (2, 5)):
            for rho, inv, size, _ in _classes(n, r):
                total = [0] * r
                for lam in enumerate_rpartitions(n, r):
                    a = [0] * r
                    b = [0] * r
                    for k, c in enumerate(rho_character(lam, rho)):
                        a[k] = c
                    for k, c in enumerate(rho_character(lam, inv)):
                        b[k] = c
                    total = [x + y for x, y in zip(total, _zeta_mul(a, b, r))]
                want = wreath_order(n, r) // size
                assert zeta_coords(total, r) == zeta_power(0, r, want)


class TestFakeDegree:
    def test_trivial_character(self):
        for n, r in ((1, 3), (2, 3), (2, 2)):
            assert fake_degree(n, r, lambda rho, inv: (1,)) == P("1")

    def test_irrational_values_raise(self):
        """The constant zeta is no rational class function: its fake degree
        is zeta, which the Phi_r reduction leaves non-constant."""
        with pytest.raises(OmegaError, match="irrational"):
            fake_degree(2, 3, lambda rho, inv: (0, 1))

    def test_nonnegative_integer_coefficients(self):
        n, r = 2, 3
        for lam in enumerate_rpartitions(n, r):
            val = fake_degree(n, r, lambda rho, _: rho_character(lam, rho))
            assert val.has_nonneg_int_coeffs()
            # graded multiplicity of lam in the coinvariant algebra:
            # total multiplicity equals the degree of the character
            assert (val.eval_at(1), 0) == \
                rho_character(lam, identity_class(n, r))

    def test_fraction_coefficients(self):
        """A class function that is no character: the trivial one on the
        identity class alone, 0 elsewhere, has fake degree
        prod_i (t^(ir) - 1) / ((t - 1)^n |W|): at (2,2), (t + 1)^2 (t^2 + 1)
        / 8."""
        n, r = 2, 2
        e = identity_class(n, r)
        val = fake_degree(n, r, lambda rho, _: (int(rho == e),))
        want = LaurentPoly({0: Fraction(1, 8), 1: Fraction(1, 4),
                            2: Fraction(1, 4), 3: Fraction(1, 4),
                            4: Fraction(1, 8)})
        assert val == want

    @pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (2, 4), (1, 5)])
    def test_entries_through_the_class_function(self, n, r):
        """Each entry, formed from mu's folded half, against the fake degree
        of the class function rho^lam x conj(rho^mu) x conj(det_V)."""
        items = enumerate_rpartitions(n, r)
        for lam in items:
            for mu in items:
                def chi(rho, inv):
                    a = _zeta_mul(rho_character(lam, rho),
                                  rho_character(mu, inv), r)
                    return _zeta_mul(a, detV_value(inv), r)
                assert omega_entry_bruteforce(lam, mu, r) == \
                    fake_degree(n, r, chi).shift(n_star(n, r))

    def test_oracle_bound(self):
        """The wreath route compares K^3 r^2 n (243 at (1,3)) with the bound
        once, before it computes any entry; fake_degree itself takes no
        bound."""
        order = default_total_order(1, 3)
        omega_entry_bruteforce.cache_clear()
        with pytest.raises(OmegaError, match=r"K\^3\*r\^2\*n = 243 > 242"):
            omega_matrix(1, 3, order, "wreath", wreath_bound=242)
        assert omega_entry_bruteforce.cache_info().currsize == 0
        assert len(omega_matrix(1, 3, order, "wreath",
                                wreath_bound=243).index) == 3


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

    def test_a_O_walks_the_nonzero_cells_to_the_all_cells_sum(self):
        """a_O skips zero rows and zero cells; on every contingency table
        with n <= 4 and r <= 5, and on the 1000 x 1000 zero table of
        (0, 1000), it equals the sum over all r^2 cells."""
        def all_cells(h, r):
            return sum(bracket(j, i, r) * h.entry(i, j)
                       for i in range(1, r + 1) for j in range(1, r + 1))

        for n in range(5):
            for r in range(1, 6):
                weights = [Composition(c) for c in compositions(n, r)]
                for m in weights:
                    for mp in weights:
                        for h in enumerate_contingency(m, mp):
                            assert a_O(h, r) == all_cells(h, r)
        empty = Composition((0,) * 1000)
        (zero,) = enumerate_contingency(empty, empty)
        assert a_O(zero, 1000) == all_cells(zero, 1000) == 0

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
        with pytest.raises(GreenCheckError):
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
    # An n that differs, an r that differs from both indices' and one that
    # differs from lam's alone.
    @pytest.mark.parametrize("entry", [omega_entry_cosets, _omega_entry_direct,
                                       omega_entry_bruteforce],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("lam, mu, r", [("(1;-;-)", "(2;-;-)", 3),
                                            ("(1;-;-)", "(1;-;-)", 2),
                                            ("(1;-)", "(1;-;-)", 3)],
                             ids=["n", "r", "lam-r"])
    def test_index_mismatch(self, entry, lam, mu, r):
        """omega_entry_cosets leaves the check to _omega_entry_direct, as a
        twist keeps n and r."""
        with pytest.raises(OmegaError, match="^index mismatch$"):
            entry(RP(lam), RP(mu), r)

    def test_a_negative_coefficient_is_refused(self, monkeypatch):
        """Seeded: every coefficient negated before the Z>=0[t] check."""
        laurent = omega_mod._laurent
        monkeypatch.setattr(omega_mod, "_laurent",
                            lambda low, cs: laurent(low, [-c for c in cs]))
        lam = RP("(1;-;-)")
        with pytest.raises(OmegaError, match=re.escape(
                "coset entry ((1;-;-), (1;-;-)) is not in Z>=0[t]: -t^4")):
            _omega_entry_direct.__wrapped__(lam, lam, 3)

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

    @pytest.mark.parametrize("n,r", [(0, 1), (0, 4), (1, 1), (1, 5), (2, 2),
                                     (3, 1), (3, 3), (2, 6), (4, 2), (4, 3)])
    def test_orbit_twist_matches_the_twists_it_replaced(self, n, r):
        """_orbit_twist slices the rotations of lam and of its conjugate;
        the minimum over the 2r _twist images, in the same order, is its
        oracle, tie-breaking included."""
        def oracle(lam):
            return min(((k, conj) for conj in (False, True)
                        for k in range(lam.r)),
                       key=lambda g: _twist(lam, *g).parts)

        for lam in enumerate_rpartitions(n, r):
            assert _orbit_twist(lam) == oracle(lam), lam

    def test_orbit_twist_builds_no_twist_of_lam(self):
        """At n = 0 and 1000 colours, K = 1: Omega twists its one pair once,
        where ranking the 2r twists through _twist's cache made 2000
        entries of 1000 components each."""
        wkostka.clear_caches()
        om = omega_matrix(0, 1000, default_total_order(0, 1000))
        assert om.rows == ((P("1"),),)
        assert _twist.cache_info().currsize <= len(om.index) == 1

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
        from wkostka.symgrp import (block_character, compose, cycle_type,
                                    double_cosets, intersection_elements,
                                    inverse)
        from literal_cosets import block_cycle_types
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
        assert a == b
        with pytest.raises(OmegaError):
            omega_matrix(1, 3, order, "nope")

    def test_coset_bound(self):
        """The coset route compares K = |P_{n,r}| (5 at (1,5)) with the
        bound once, before it computes any entry."""
        order = default_total_order(1, 5)
        _omega_entry_direct.cache_clear()
        with pytest.raises(OmegaError):
            omega_matrix(1, 5, order, coset_n_bound=4)
        assert _omega_entry_direct.cache_info().currsize == 0
        assert len(omega_matrix(1, 5, order, coset_n_bound=5).index) == 5

    def test_the_order_is_the_index(self):
        order = default_total_order(2, 2)
        om = omega_matrix(2, 2, order)
        assert om.index is order and (om.index.n, om.index.r) == (2, 2)

    # P_{1,3} under n = 2, P_{2,2} under r = 3, and an empty order, which
    # OrderedIndex refuses as it is built, so the case builds it in the test.
    @pytest.mark.parametrize("n, r, items, error, message", [
        (2, 3, default_total_order(1, 3).items, OmegaError,
         "the order does not list P_{n,r} for n=2, r=3"),
        (2, 3, default_total_order(2, 2).items, OmegaError,
         "the order does not list P_{n,r} for n=2, r=3"),
        (0, 1, (), RPartitionError,
         "empty total order: no P_{n,r} is empty"),
    ], ids=["n", "r", "empty"])
    @pytest.mark.parametrize("method", ["cosets", "wreath"])
    def test_an_order_on_another_p_nr_is_refused(self, n, r, items, error,
                                                 message, method):
        """Before any entry is computed."""
        _omega_entry_direct.cache_clear()
        omega_entry_bruteforce.cache_clear()
        with pytest.raises(error, match=re.escape(message)):
            omega_matrix(n, r, OrderedIndex(items), method)
        assert _omega_entry_direct.cache_info().currsize == 0
        assert omega_entry_bruteforce.cache_info().currsize == 0

    def test_one_cache_entry_per_omega_entry(self):
        """The entry cache is keyed by (lam, mu, r) alone, so Omega and the
        Theorem 5.5 check share every entry: at (2,3) the 9 r-partitions
        fall into 2 orbits of the 6 twists, and both leave 2 * 9 entries."""
        _omega_entry_direct.cache_clear()
        omega_matrix(2, 3, default_total_order(2, 3))
        thm55_check(2, 3)
        k = len(enumerate_rpartitions(2, 3))
        assert _omega_entry_direct.cache_info().currsize == 18 == 2 * k

    def test_one_cache_entry_per_oracle_entry(self):
        """The oracle's entry cache is keyed by (lam, mu, r) alone: a second
        matrix under another bound reuses the same 9 entries."""
        order = default_total_order(1, 3)
        omega_entry_bruteforce.cache_clear()
        omega_matrix(1, 3, order, "wreath")
        omega_matrix(1, 3, order, "wreath", wreath_bound=243)
        assert omega_entry_bruteforce.cache_info().currsize == 9

    def test_one_direct_entry_per_orbit(self):
        """At (2,5) the 20 r-partitions fall into 3 orbits of the 10 twists,
        so Omega computes 3 * 20 entries and 45 weight-pair blocks, not 400
        and 225."""
        wkostka.clear_caches()
        omega_matrix(2, 5, default_total_order(2, 5))
        assert _omega_entry_direct.cache_info().currsize == 60
        assert _omega_block.cache_info().currsize == 45

    def test_n0_matrix(self):
        order = default_total_order(0, 3)
        om = omega_matrix(0, 3, order)
        assert om.rows[0][0] == P("1")


class TestIntegerKernel:
    """Each coset entry is the sum over the row types of
    chi^mu(rows) * R_lam(rows), over Z, divided by n! exactly."""

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
        low, blocks = _omega_block(Composition((2, 1, 0)),
                                   Composition((2, 0, 1)), 3)
        assert len({len(cs) for *_, cs in blocks}) == 1
        assert all(type(c) is int for *_, cs in blocks for c in cs)

    @pytest.mark.parametrize("fault", ["block", "weight"])
    def test_inexact_sum_raises(self, monkeypatch, fresh_kernel, fault):
        """One coefficient of one block, or one coset weight, raised by 1
        leaves n! not dividing the sum for the trivial-character entry
        (whose character is 1 on every block and whose torus quotients have
        coefficients +-1): the entry raises and is never rounded."""
        real_block, real_table = omega_mod._omega_block, omega_mod.coset_table

        def seeded_block(m, mp, r):
            low, ((cols, rows, cs), *rest) = real_block(m, mp, r)
            return low, ((cols, rows, (cs[0] + 1,) + cs[1:]), *rest)

        def seeded_table(m, mp):
            (h, ((*key, weight), *rest)), *others = real_table(m, mp)
            return ((h, ((*key, weight + 1), *rest)), *others)

        if fault == "block":
            monkeypatch.setattr(omega_mod, "_omega_block", seeded_block)
        else:
            monkeypatch.setattr(omega_mod, "coset_table", seeded_table)
        triv = RP("(2;-;-)")
        with pytest.raises(OmegaError, match="not integral"):
            _omega_entry_direct(triv, triv, 3)


class TestCosetTable:
    @pytest.mark.parametrize("mt,mpt", [((2, 1, 0), (1, 1, 1)),
                                        ((3, 1), (2, 2)), ((4,), (4,)),
                                        ((1, 2, 1), (2, 0, 2))])
    def test_labels_and_margins(self, mt, mpt):
        """The labels are those of the brute-force double cosets; each
        label's weights sum to n! (the class equation sum 1/z_rho = 1, once
        per cell); the joined types have the label's margins."""
        m, mp = Composition(mt), Composition(mpt)
        table = coset_table(m, mp)
        assert {h.rows for h, _ in table} == \
            {dc.label.rows for dc in double_cosets(m.n, m, mp)}
        for h, terms in table:
            assert sum(w for *_, w in terms) == factorial(m.n)
            for cols, rows, rho, _ in terms:
                assert tuple(sum(c) for c in cols) == h.col_sums()
                assert tuple(sum(c) for c in rows) == h.row_sums()
                assert sorted(rho) == sorted(x for c in cols for x in c)

    @pytest.mark.parametrize("n,r", [(3, 3), (4, 2), (2, 4)])
    def test_weights_are_n_factorial_over_z(self, n, r):
        """At every weight pair each weight is the int n! prod 1/z_rho_ij,
        the literal pair count scaled by n! / (|S_m| |S_m'|), and each
        label's weights sum to n!."""
        comps = [Composition(c) for c in compositions(n, r)]
        for m in comps:
            for mp in comps:
                table = coset_table(m, mp)
                assert {(h.rows, *key): w for h, terms in table
                        for *key, w in terms} == literal_weights(m, mp)
                for h, terms in table:
                    assert all(type(w) is int for *_, w in terms)
                    assert sum(w for *_, w in terms) == factorial(n)

    def test_torus_quotient(self):
        assert torus_quotient((2,), 2, 1) == P("t - 1")
        assert torus_quotient((1, 1), 2, 3) == P("t^3 + 1")
        assert torus_quotient((), 0, 3) == P("1")
        with pytest.raises(ExactError):
            torus_quotient((3,), 2, 1)
