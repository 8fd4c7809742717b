"""The classical r = 1 oracle of the solver: the Kostka-Foulkes polynomials
K_(lam,mu)(t) as the charge statistic over semistandard tableaux, with no
fake degree and no elimination.
"""
from __future__ import annotations

from functools import lru_cache

from .exact import LaurentPoly
from .factor import FactorizationError
from .rpart import RPartition


def unmodify_kostka(modified: LaurentPoly, a_mu: int) -> LaurentPoly:
    """K(t) = t^(a(mu)) K~(t^-1)."""
    return modified.reciprocal_var().shift(a_mu)


def semistandard_tableaux(shape: tuple, content: tuple):
    """All SSYT of the given shape and content (content[i] copies of i+1)."""
    rows = len(shape)
    if sum(shape) != sum(content):
        return
    grid = [[0] * width for width in shape]

    def cells():
        for i in range(rows):
            for j in range(shape[i]):
                yield i, j

    cell_list = list(cells())

    def fill(idx: int, remaining: list):
        if idx == len(cell_list):
            yield tuple(tuple(row) for row in grid)
            return
        i, j = cell_list[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1] > 0:
                remaining[v - 1] -= 1
                grid[i][j] = v
                yield from fill(idx + 1, remaining)
                remaining[v - 1] += 1

    yield from fill(0, list(content))


def reading_word(tableau: tuple) -> tuple:
    """Rows read left to right, bottom row first."""
    out = []
    for row in reversed(tableau):
        out.extend(row)
    return tuple(out)


def charge(word: tuple) -> int:
    """Charge of a word whose content is a partition.

    Standard subwords are extracted from the rightmost 1, scanning leftward
    (cyclically) for each next letter; within a standard subword the index
    of a letter grows by one exactly when it sits to the right of its
    predecessor.

    >>> charge((1, 2, 3))
    3
    >>> charge((3, 1, 2))
    2
    >>> charge((3, 2, 1, 1, 2))
    1
    """
    remaining = list(enumerate(word))
    total = 0
    while remaining:
        maxval = max(v for _, v in remaining)
        picked = {}
        cursor = max(i for i, (_, v) in enumerate(remaining) if v == 1)
        picked[1] = remaining[cursor][0]
        for target in range(2, maxval + 1):
            found = None
            for step in range(1, len(remaining) + 1):
                idx = (cursor - step) % len(remaining)
                if remaining[idx][1] == target and \
                        remaining[idx][0] not in picked.values():
                    found = idx
                    break
            if found is None:
                break
            picked[target] = remaining[found][0]
            cursor = found
        chosen = set(picked.values())
        remaining = [(p, v) for p, v in remaining if p not in chosen]
        idx = 0
        for k in range(2, len(picked) + 1):
            if picked[k] > picked[k - 1]:
                idx += 1
            total += idx
    return total


def classical_kostka_polynomial(lam: tuple, mu: tuple) -> LaurentPoly:
    """Kostka-Foulkes K_(lam,mu)(t) as the charge generating function.

    >>> str(classical_kostka_polynomial((2, 1), (1, 1, 1)))
    't^2 + t'
    """
    out = LaurentPoly.zero()
    for tab in semistandard_tableaux(lam, mu):
        out = out + LaurentPoly.t_power(charge(reading_word(tab)))
    return out


@lru_cache(maxsize=None)
def classical_modified_kostka(lam_rp: RPartition, mu_rp: RPartition) -> LaurentPoly:
    """K~(lam,mu)(t) = t^(a(mu)) K_(lam,mu)(t^-1) for 1-partitions."""
    if lam_rp.r != 1 or mu_rp.r != 1:
        raise FactorizationError("the charge oracle is a single-partition check")
    kost = classical_kostka_polynomial(lam_rp.parts[0], mu_rp.parts[0])
    return unmodify_kostka(kost, mu_rp.a_value())
