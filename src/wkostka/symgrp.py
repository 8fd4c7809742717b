"""Symmetric-group machinery.

Permutations are tuples over {0..n-1} in one-line notation (serialized
1-based).  Irreducible character values come from the Murnaghan-Nakayama
recursion on beta-sets.  Double cosets of Young subgroups are enumerated by
brute force and labelled by contingency matrices; the library computes with
their labels alone (omega.coset_table), and these permutations serve the
tests as its oracle.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

from .exact import LaurentPoly
from .record import FrozenRecord
from .rpart import Composition, ContingencyMatrix, RPartition

BRUTE_FORCE_N_BOUND = 8


class SymGrpError(ValueError):
    pass


# -- permutations ------------------------------------------------------------


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple:
    """All of S_n in lexicographic one-line order."""
    return tuple(itertools.permutations(range(n)))


def compose(p: tuple, q: tuple) -> tuple:
    """The permutation applying q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycles(p: tuple) -> list:
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = p[i]
        out.append(tuple(cyc))
    return out


def cycle_type(p: tuple) -> tuple:
    """Cycle lengths, weakly decreasing.

    >>> cycle_type((1, 2, 0))
    (3,)
    """
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def sign(p: tuple) -> int:
    return -1 if (len(p) - len(cycles(p))) % 2 else 1


# -- irreducible characters of S_n -------------------------------------------


@lru_cache(maxsize=None)
def mn_character(lam: tuple, rho: tuple) -> int:
    """chi^lam(rho) by the border-strip (Murnaghan-Nakayama) recursion.

    >>> mn_character((2, 1), (3,))
    -1
    >>> mn_character((2, 1), (1, 1, 1))
    2
    """
    if sum(lam) != sum(rho):
        raise SymGrpError("partition and cycle type must have equal size")
    if not rho:
        return 1
    k = rho[0]
    rest = rho[1:]
    ell = len(lam)
    beta = tuple(lam[i] + (ell - 1 - i) for i in range(ell))
    total = 0
    beta_set = set(beta)
    for b in beta:
        low = b - k
        if low < 0 or low in beta_set:
            continue
        height = sum(1 for c in beta if low < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(low)
        new_beta.sort(reverse=True)
        # strip trailing staircase to renormalize into a partition
        m = len(new_beta)
        new_lam = tuple(new_beta[i] - (m - 1 - i) for i in range(m))
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** height * mn_character(new_lam, rest)
    return total


def centralizer_order(rho: tuple) -> int:
    z = 1
    for k in set(rho):
        m = rho.count(k)
        z *= k ** m * factorial(m)
    return z


# -- Young subgroups ---------------------------------------------------------


def block_of(m: Composition) -> tuple:
    """block_of(m)[p] = index of the m-block containing position p."""
    out = []
    for i, size in enumerate(m.parts):
        out.extend([i] * size)
    return tuple(out)


def in_young(w: tuple, m: Composition) -> bool:
    blocks = block_of(m)
    return all(blocks[w[p]] == blocks[p] for p in range(len(w)))


def block_cycle_types(w: tuple, m: Composition) -> tuple:
    """Per-block cycle types of a block-stabilizing permutation."""
    if not in_young(w, m):
        raise SymGrpError(f"{w} does not stabilize the blocks of {m}")
    blocks = block_of(m)
    out = [[] for _ in range(m.r)]
    for cyc in cycles(w):
        out[blocks[cyc[0]]].append(len(cyc))
    return tuple(tuple(sorted(c, reverse=True)) for c in out)


def block_character(blam: RPartition, types: tuple) -> int:
    """The outer product character chi^(lambda^(1)) x ... at an element of
    its Young subgroup whose per-block cycle types are types."""
    value = 1
    for comp, rho in zip(blam.parts, types):
        value *= mn_character(comp, rho)
        if value == 0:
            return 0
    return value


@lru_cache(maxsize=None)
def young_subgroup_elements(n: int, mparts: tuple) -> tuple:
    """All elements of the Young subgroup S_m inside S_n."""
    m = Composition(mparts)
    blocks = m.blocks()
    out = []
    for pieces in itertools.product(*(itertools.permutations(b) for b in blocks)):
        w = [0] * n
        for block, image in zip(blocks, pieces):
            for src, dst in zip(block, image):
                w[src] = dst
        out.append(tuple(w))
    return tuple(out)


# -- double cosets ------------------------------------------------------------


class DoubleCoset(FrozenRecord):
    """One double coset S_m x S_m', labelled by its contingency matrix."""

    __slots__ = ("label", "rep", "size", "members")


def coset_label(x: tuple, m: Composition, m_prime: Composition) -> ContingencyMatrix:
    """h_(i,j) = |I_j intersect x(I'_i)| for m-blocks I and m'-blocks I'."""
    r = m.r
    bm = block_of(m)
    bmp = block_of(m_prime)
    h = [[0] * r for _ in range(r)]
    for p in range(len(x)):
        h[bmp[p]][bm[x[p]]] += 1
    return ContingencyMatrix(tuple(tuple(row) for row in h))


@lru_cache(maxsize=None)
def _double_cosets_cached(n: int, mparts: tuple, mpparts: tuple) -> tuple:
    m = Composition(mparts)
    mp = Composition(mpparts)
    buckets: dict = {}
    for x in all_perms(n):
        key = coset_label(x, m, mp)
        buckets.setdefault(key, []).append(x)
    out = []
    for label, members in buckets.items():
        out.append(DoubleCoset(label, members[0], len(members), tuple(members)))
    out.sort(key=lambda dc: dc.rep)
    return tuple(out)


def double_cosets(n: int, m: Composition, m_prime: Composition) -> tuple:
    if m.n != n or m_prime.n != n:
        raise SymGrpError("margins must sum to n")
    if n > BRUTE_FORCE_N_BOUND:
        raise SymGrpError(
            f"brute-force double cosets limited to n <= {BRUTE_FORCE_N_BOUND}")
    return _double_cosets_cached(n, m.parts, m_prime.parts)


def intersection_elements(m: Composition, m_prime: Composition, x: tuple) -> list:
    """Elements of S_m whose conjugate by x^-1 lands in S_m'."""
    n = m.n
    xinv = inverse(x)
    out = []
    for w in young_subgroup_elements(n, m.parts):
        if in_young(compose(compose(xinv, w), x), m_prime):
            out.append(w)
    return out


# -- torus data ---------------------------------------------------------------


def char_perm_det_from_type(rho: tuple, r: int) -> LaurentPoly:
    """det_V(t^r - y) = prod over the cycles of y (t^(r*len) - 1), for y of
    cycle type rho."""
    out = LaurentPoly.one()
    for length in rho:
        out = out * (LaurentPoly.t_power(r * length) - 1)
    return out

