"""Symmetric-group layer: characters, Young subgroups, double cosets."""
import itertools
from fractions import Fraction
from math import factorial

import pytest

from wkostka.exact import LaurentPoly
from wkostka.rpart import (Composition, RPartition, enumerate_contingency,
                           partitions)
from wkostka.symgrp import (SymGrpError, all_perms, block_character,
                            block_cycle_types, centralizer_order,
                            char_perm_det_from_type, compose, coset_label,
                            cycle_type, double_cosets, intersection_elements,
                            inverse, mn_character, young_subgroup_elements)


class TestPermutations:
    def test_cycle_types(self):
        assert cycle_type((0, 1, 2)) == (1, 1, 1)
        assert cycle_type((1, 2, 0)) == (3,)
        assert cycle_type((1, 0, 2)) == (2, 1)

    def test_compose_inverse(self):
        for p in all_perms(4):
            assert compose(p, inverse(p)) == (0, 1, 2, 3)


# -- independent character oracle: permutation modules + SSYT counts ---------


def _kostka_number(lam, mu):
    from wkostka.factor import semistandard_tableaux
    return sum(1 for _ in semistandard_tableaux(lam, mu))


def _perm_module_character(mu, rho):
    """Number of tabloids of shape mu fixed by a permutation of cycle type
    rho: assignments of cycles to rows respecting row capacities."""

    def count(cycles, capacities):
        if not cycles:
            return 1
        first, rest = cycles[0], cycles[1:]
        total = 0
        for i, cap in enumerate(capacities):
            if cap >= first:
                caps = list(capacities)
                caps[i] -= first
                total += count(rest, tuple(caps))
        return total

    return count(tuple(rho), tuple(mu))


def _oracle_char_table(n):
    """Invert the unitriangular Kostka matrix against permutation-module
    characters; independent of the Murnaghan-Nakayama recursion."""
    parts = list(partitions(n))
    kostka = {(lam, mu): _kostka_number(lam, mu)
              for lam in parts for mu in parts}
    chars = {}
    # dominance-decreasing induction: chi^mu = perm^mu - sum K[lam,mu] chi^lam
    for mu in parts:
        values = {rho: _perm_module_character(mu, rho) for rho in parts}
        for lam in parts:
            if lam == mu or kostka[(lam, mu)] == 0:
                continue
            if lam in chars:
                for rho in parts:
                    values[rho] -= kostka[(lam, mu)] * chars[lam][rho]
        chars[mu] = values
    return chars


class TestMnCharacter:
    def test_one_dimensional(self):
        assert mn_character((2,), (2,)) == 1
        assert mn_character((1, 1), (2,)) == -1

    def test_standard_rep(self):
        assert mn_character((2, 1), (3,)) == -1
        assert mn_character((2, 1), (1, 1, 1)) == 2

    def test_against_permutation_module_oracle(self):
        for n in range(1, 5):
            oracle = _oracle_char_table(n)
            for lam in partitions(n):
                for rho in partitions(n):
                    assert mn_character(lam, rho) == oracle[lam][rho], (lam, rho)

    def test_size_mismatch(self):
        with pytest.raises(SymGrpError):
            mn_character((2,), (3,))


class TestCharTable:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_orthogonality(self, n):
        parts = tuple(partitions(n))
        for lam in parts:
            for mu in parts:
                total = Fraction(0)
                for rho in parts:
                    total += Fraction(mn_character(lam, rho) *
                                      mn_character(mu, rho),
                                      centralizer_order(rho))
                assert total == (1 if lam == mu else 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_column_orthogonality(self, n):
        parts = tuple(partitions(n))
        for rho in parts:
            for sigma in parts:
                total = sum(mn_character(lam, rho) * mn_character(lam, sigma)
                            for lam in parts)
                assert total == (centralizer_order(rho) if rho == sigma else 0)


class TestYoungCharacters:
    def test_trivial_components(self):
        blam = RPartition(((2,), (1,), ()))
        m = Composition((2, 1, 0))
        for w in young_subgroup_elements(3, m.parts):
            assert block_character(blam, block_cycle_types(w, m)) == 1

    def test_sign_factor(self):
        blam = RPartition(((1, 1), (), ()))
        m = Composition((2, 0, 0))
        swap = (1, 0)
        assert block_character(blam, block_cycle_types(swap, m)) == -1

    def test_r1_reduces_to_mn(self):
        m = Composition((3,))
        for w in all_perms(3):
            for lam in partitions(3):
                blam = RPartition((lam,))
                assert block_character(blam, block_cycle_types(w, m)) == \
                    mn_character(lam, cycle_type(w))

    def test_rejects_non_member(self):
        m = Composition((1, 2))
        with pytest.raises(SymGrpError):
            block_cycle_types((1, 0, 2), m)


class TestDoubleCosets:
    def test_single_coset(self):
        m = Composition((3, 0))
        dcs = double_cosets(3, m, m)
        assert len(dcs) == 1
        assert dcs[0].size == 6
        assert dcs[0].label.entry(1, 1) == 3

    def test_two_cosets_n2(self):
        m = Composition((1, 1, 0))
        dcs = double_cosets(2, m, m)
        assert len(dcs) == 2
        labels = {dc.label.rows for dc in dcs}
        assert labels == {((1, 0, 0), (0, 1, 0), (0, 0, 0)),
                          ((0, 1, 0), (1, 0, 0), (0, 0, 0))}

    def test_partition_completeness_and_label_bijection(self):
        for n in range(1, 6):
            comps = [c for c in itertools.product(range(n + 1), repeat=3)
                     if sum(c) == n]
            for mt, mpt in itertools.product(comps, repeat=2):
                m, mp = Composition(mt), Composition(mpt)
                dcs = double_cosets(n, m, mp)
                assert sum(dc.size for dc in dcs) == factorial(n)
                want = {h.rows for h in enumerate_contingency(m, mp)}
                got = {dc.label.rows for dc in dcs}
                assert got == want

    def test_label_constant_on_members(self):
        for n in range(1, 6):
            comps = [c for c in itertools.product(range(n + 1), repeat=2)
                     if sum(c) == n]
            for mt, mpt in itertools.product(comps, repeat=2):
                m, mp = Composition(mt), Composition(mpt)
                for dc in double_cosets(n, m, mp):
                    for x in dc.members:
                        assert coset_label(x, m, mp) == dc.label

    def test_representative_is_lex_least(self):
        m = Composition((2, 1))
        for dc in double_cosets(3, m, m):
            assert dc.rep == min(dc.members)

    def test_intersection_size_formula(self):
        for n in range(1, 6):
            comps = [c for c in itertools.product(range(n + 1), repeat=2)
                     if sum(c) == n]
            for mt, mpt in itertools.product(comps, repeat=2):
                m, mp = Composition(mt), Composition(mpt)
                for dc in double_cosets(n, m, mp):
                    expect = 1
                    for row in dc.label.rows:
                        for h in row:
                            expect *= factorial(h)
                    assert len(intersection_elements(m, mp, dc.rep)) == expect
                    assert dc.size == (
                        _young_order(m) * _young_order(mp) // expect)

    def test_brute_force_bound(self):
        with pytest.raises(SymGrpError):
            double_cosets(9, Composition((9,)), Composition((9,)))


def _young_order(m):
    out = 1
    for s in m.parts:
        out *= factorial(s)
    return out


class TestTorusData:
    def test_char_perm_det(self):
        def det(y, r):
            return char_perm_det_from_type(cycle_type(y), r)
        assert det((1, 2, 0), 3) == LaurentPoly.parse("t^9 - 1")
        assert det((0, 1, 2), 3) == LaurentPoly.parse("(t^3 - 1)^3")
        assert det((1, 0, 2), 3) == LaurentPoly.parse("(t^6 - 1)*(t^3 - 1)")
