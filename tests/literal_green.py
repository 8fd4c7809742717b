"""The Green inner product summed in Q[t, t^-1], kept as the oracle of
greencheck.green_inner_product, which sums over Z and divides once.

Each (q-exponent, type of w) coefficient carries its 1/z weights,
coset_table's n!/z over n!, as a Fraction, and each |GL_n| / |T_w| term is
added as a LaurentPoly.
"""
from fractions import Fraction
from math import comb, factorial

from wkostka.exact import LaurentPoly
from wkostka.greencheck import MINUS, PLUS, a_exponent
from wkostka.omega import coset_table, torus_quotient
from wkostka.symgrp import block_character


def green_by_fraction_sum(lam, mu, pair, power=1):
    n = lam.n
    m = lam.weight()
    mp = mu.weight()
    sign_map = {MINUS: m.p_minus(), PLUS: m.p_plus()}
    sign_map_p = {MINUS: mp.p_minus(), PLUS: mp.p_plus()}
    sign = (-1) ** (sign_map[pair[0]] + sign_map_p[pair[1]])

    coefs = {}
    for h, terms in coset_table(m, mp):
        a = a_exponent(pair, h)
        for cols, rows, rho, weight in terms:
            c = Fraction(weight, factorial(n)) * \
                block_character(lam, cols) * block_character(mu, rows)
            if c:
                coefs[a, rho] = coefs.get((a, rho), 0) + c
    value = LaurentPoly.zero()
    for (a, rho), c in coefs.items():
        value = value + torus_quotient(rho, n, power).shift(
            power * (a + comb(n, 2))) * c
    return value * sign
