"""The wreath product's group law and the literal induction by conjugation,
kept as the oracle of omega._induced.

rho_by_conjugation evaluates the induced character at w as
(1/|H|) sum over every g in W with g^-1 w g in the block subgroup H of
chi~^lambda(g^-1 w g), walking the whole group once per value, and reduces
the sum to canonical coordinates (zeta_coords) so that it compares with
omega.rho_character.
"""
from fractions import Fraction
from functools import lru_cache
from math import factorial

from wkostka.omega import WreathElement, wreath_elements, zeta_coords
from wkostka.symgrp import (block_character, block_cycle_types, compose,
                            in_young)


def product(a, b):
    """(sigma, a)(tau, b) = (sigma tau, a o tau + b): the right factor acts
    first."""
    tau = b.sigma
    colors = tuple(a.colors[tau[i]] + b.colors[i] for i in range(a.n))
    return WreathElement(compose(a.sigma, tau), colors, a.r)


def identity(n, r):
    return WreathElement(tuple(range(n)), (0,) * n, r)


def tilde_character(blam, w):
    """chi~^lambda on the block subgroup, as a zeta-power vector: the Young
    character twisted by the block-graded powers of delta."""
    m = blam.weight()
    exp = 0
    pos = 0
    for i, size in enumerate(m.parts):
        exp += i * sum(w.colors[pos:pos + size])
        pos += size
    return (0,) * (exp % w.r) + \
        (block_character(blam, block_cycle_types(w.sigma, m)),)


@lru_cache(maxsize=None)
def conjugates(w):
    """g^-1 w g for every g in W, in the order wreath_elements gives."""
    return tuple(product(product(g.inv(), w), g)
                 for g in wreath_elements(w.n, w.r))


def rho_by_conjugation(blam, w):
    m = blam.weight()
    order_h = w.r ** w.n
    for size in m.parts:
        order_h *= factorial(size)
    total = [0] * w.r
    for conj in conjugates(w):
        if in_young(conj.sigma, m):
            for k, c in enumerate(tilde_character(blam, conj)):
                total[k] += c
    return zeta_coords([Fraction(c, order_h) for c in total], w.r)
