"""The literal double-coset sums, kept as the oracle of omega.coset_table.

Both sums run over every member x of every double coset S_m x S_m' and
every y in S_m meet x S_m' x^-1, as brute-force permutations from symgrp.
"""
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from wkostka.exact import LaurentPoly, RationalFunction
from wkostka.greencheck import MINUS, PLUS, a_exponent
from wkostka.omega import b_O
from wkostka.symgrp import (block_cycle_types, char_perm_det_from_type,
                            compose, cycle_type, double_cosets,
                            intersection_elements, inverse, mn_character)


@lru_cache(maxsize=None)
def literal_coset_counts(n, m, mp):
    """(label, y's types on the m-blocks, x^-1 y x's types on the m'-blocks,
    y's cycle type) -> how many pairs (x, y) give it."""
    counts = Counter()
    for dc in double_cosets(n, m, mp):
        for x in dc.members:
            xinv = inverse(x)
            for y in intersection_elements(m, mp, x):
                z = compose(xinv, compose(y, x))
                counts[dc.label, block_cycle_types(y, m),
                       block_cycle_types(z, mp), cycle_type(y)] += 1
    return tuple(counts.items())


def _character_sums(lam, mu):
    """(label, cycle type of y) -> sum of chi^lam(y) chi^mu(x^-1 y x)."""
    sums = Counter()
    for (h, ytypes, ztypes, rho), count in literal_coset_counts(
            lam.n, lam.weight(), mu.weight()):
        c = count
        for comp, types in zip(lam.parts + mu.parts, ytypes + ztypes):
            c *= mn_character(comp, types)
        sums[h, rho] += c
    return sums


def _young_orders(lam, mu):
    out = 1
    for s in lam.weight().parts + mu.weight().parts:
        out *= factorial(s)
    return out


def omega_by_literal_cosets(lam, mu, r):
    """omega_(lam,mu) as t^(a(lam) + a(tau mu)) sum over the cosets h of
    t^(r b_O) sum_(x,y) chi^lam(y) chi^mu(x^-1 y x) prod_k (t^(kr) - 1)
    / (|S_m| |S_m'| det_V(t^r - y)), summed in Q(t)."""
    total = RationalFunction.zero()
    for (h, rho), c in _character_sums(lam, mu).items():
        if c:
            total = total + RationalFunction(
                LaurentPoly.t_power(r * b_O(lam, mu, h), c),
                char_perm_det_from_type(rho, r))
    top = LaurentPoly.one()
    for k in range(1, lam.n + 1):
        top = top * (LaurentPoly.t_power(k * r) - 1)
    total = total * RationalFunction(top, _young_orders(lam, mu))
    total = total * RationalFunction.t_power(lam.a_value() + mu.tau().a_value())
    return total.try_to_laurent()


def green_by_literal_cosets(lam, mu, pair, q=None, power=1):
    """The Green inner product as sign * |GL_n| / (|S_m| |S_m'|) times
    sum over the cosets h of base^a(pair, h) sum_(x,y) chi^lam(y)
    chi^mu(x^-1 y x) / |T_y|, summed in Q(t) (q=None, base t^power) or
    in Q (base q^power)."""
    n = lam.n
    m, mp = lam.weight(), mu.weight()
    signs = {MINUS: (m.p_minus(), mp.p_minus()), PLUS: (m.p_plus(), mp.p_plus())}
    sign = (-1) ** (signs[pair[0]][0] + signs[pair[1]][1])
    if q is None:
        base = LaurentPoly.t_power(power)
        gl = RationalFunction(LaurentPoly.t_power(power * comb(n, 2))
                              * char_perm_det_from_type(
                                  tuple(range(1, n + 1)), power))
        torus = lambda rho: RationalFunction(
            char_perm_det_from_type(rho, power))
        total = RationalFunction.zero()
    else:
        base = q = Fraction(q) ** power
        gl = q ** comb(n, 2)
        for k in range(1, n + 1):
            gl *= q ** k - 1
        torus = lambda rho: Fraction(
            char_perm_det_from_type(rho, 1).eval_at(q))
        total = Fraction(0)
    for (h, rho), c in _character_sums(lam, mu).items():
        if c:
            total = total + base ** a_exponent(pair, h) * c / torus(rho)
    return total * gl * Fraction(sign, _young_orders(lam, mu))
