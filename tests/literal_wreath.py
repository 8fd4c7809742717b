"""The wreath product's group law and the literal induction by conjugation,
kept as the oracle of the class-indexed characters of wkostka.wreath.

rho_by_conjugation evaluates the induced character at w as
(1/|H|) sum over every g in W with g^-1 w g in the block subgroup H of
chi~^lambda(g^-1 w g), walking the whole group once per w and block
subgroup, and reduces the sum to canonical coordinates (zeta_coords) so
that it compares with wreath.rho_character on the class of w.
"""
import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

from wkostka.omega import OmegaError
from wkostka.record import FrozenRecord
from wkostka.rpart import RPartition
from wkostka.symgrp import (all_perms, block_character, block_of, compose,
                            cycles, in_young, inverse)
from wkostka.wreath import zeta_coords

from literal_cosets import block_cycle_types


class WreathElement(FrozenRecord):
    """(sigma, a): the monomial matrix e_i -> zeta^(a_i) e_(sigma(i))."""

    __slots__ = ("sigma", "colors", "r")

    def __init__(self, sigma, colors, r):
        if len(sigma) != len(colors):
            raise OmegaError("color vector length must match the permutation")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "colors", tuple(c % r for c in colors))
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return len(self.sigma)

    def inv(self) -> "WreathElement":
        sig_inv = inverse(self.sigma)
        colors = tuple((-self.colors[sig_inv[i]]) % self.r
                       for i in range(self.n))
        return WreathElement(sig_inv, colors, self.r)

    def colored_cycle_type(self) -> RPartition:
        """The class of w: component s lists the lengths of the cycles whose
        colors sum to s mod r."""
        parts = [[] for _ in range(self.r)]
        for cyc in cycles(self.sigma):
            parts[sum(self.colors[i] for i in cyc) % self.r].append(len(cyc))
        return RPartition(tuple(sorted(p, reverse=True)) for p in parts)


def wreath_elements(n, r):
    """Iterate over all of S_n x (Z/rZ)^n."""
    for sigma in all_perms(n):
        for colors in itertools.product(range(r), repeat=n):
            yield WreathElement(sigma, colors, r)


def product(a, b):
    """(sigma, a)(tau, b) = (sigma tau, a o tau + b): the right factor acts
    first."""
    tau = b.sigma
    colors = tuple(a.colors[tau[i]] + b.colors[i] for i in range(a.n))
    return WreathElement(compose(a.sigma, tau), colors, a.r)


def identity(n, r):
    return WreathElement(tuple(range(n)), (0,) * n, r)


@lru_cache(maxsize=None)
def conjugates(w):
    """g^-1 w g for every g in W, in the order wreath_elements gives."""
    return tuple(product(product(g.inv(), w), g)
                 for g in wreath_elements(w.n, w.r))


@lru_cache(maxsize=None)
def in_block_subgroup(w, m):
    """How many g in W put g^-1 w g in the block subgroup S_m x (Z/rZ)^n
    with each (per-block cycle types, delta-grading exponent) of
    g^-1 w g: the data of chi~^lambda, the Young character twisted by the
    block-graded powers of delta, at g^-1 w g."""
    blocks = block_of(m)
    counts = Counter()
    for conj in conjugates(w):
        if in_young(conj.sigma, m):
            exp = sum(b * c for b, c in zip(blocks, conj.colors)) % w.r
            counts[block_cycle_types(conj.sigma, m), exp] += 1
    return tuple(counts.items())


def rho_by_conjugation(blam, w):
    m = blam.weight()
    order_h = w.r ** w.n
    for size in m.parts:
        order_h *= factorial(size)
    total = [0] * w.r
    for (types, exp), count in in_block_subgroup(w, m):
        total[exp] += count * block_character(blam, types)
    return zeta_coords([Fraction(c, order_h) for c in total], w.r)
