"""Combinatorics of r-partitions of n.

An r-partition is an r-tuple of ordinary partitions whose sizes add up to n;
these index the irreducible characters of the wreath product S_n x (Z/rZ)^n.
This module owns the index objects used everywhere else: r-partitions,
weight compositions, the dominance order and its linear extensions, and the
contingency matrices that label double cosets of Young subgroups.
"""
from __future__ import annotations

import itertools
import operator
import random
import re
from functools import lru_cache
from math import comb

from .record import FrozenRecord


class RPartitionError(ValueError):
    pass


# -- ordinary partitions (plain tuples of weakly decreasing positive ints) --


def is_partition(p) -> bool:
    return all(isinstance(x, int) and x > 0 for x in p) and \
        all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def partitions(k: int):
    """Yield all partitions of k in descending lexicographic order.

    >>> list(partitions(3))
    [(3,), (2, 1), (1, 1, 1)]
    """
    if k == 0:
        yield ()
        return
    cur = (k,)
    yield cur
    while True:
        i = len(cur) - 1
        while i >= 0 and cur[i] <= 1:
            i -= 1
        if i < 0:
            return
        rest = len(cur) - i
        cur = cur[:i] + (cur[i] - 1,)
        while rest > 0:
            nxt = min(cur[-1], rest)
            cur += (nxt,)
            rest -= nxt
        yield cur


def conjugate_partition(p) -> tuple:
    if not p:
        return ()
    out = [0] * p[0]
    for part in p:
        for i in range(part):
            out[i] += 1
    return tuple(out)


def partition_n_value(p) -> int:
    """n(lambda) = sum (i-1) lambda_i."""
    return sum(i * part for i, part in enumerate(p))


def compositions(n: int, r: int):
    """All r-tuples of nonnegative integers summing to n, largest first
    slot first (descending lexicographic order)."""
    if r == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in compositions(n - first, r - 1):
            yield (first,) + rest


class Composition(FrozenRecord):
    """A weight vector m = (m_1, ..., m_r) with sum n."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        if not parts or any(x < 0 for x in parts):
            raise RPartitionError(f"invalid composition {parts}")
        object.__setattr__(self, "parts", tuple(int(x) for x in parts))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def p_values(self) -> tuple:
        """Partial sums p_i = m_1 + ... + m_i for i = 1..r."""
        out = []
        total = 0
        for m in self.parts:
            total += m
            out.append(total)
        return tuple(out)

    def p_minus(self) -> int:
        """sum of p_1 .. p_(r-1)."""
        return sum(self.p_values()[:-1])

    def p_plus(self) -> int:
        """p_(r-1), or 0 when r = 1."""
        return 0 if self.r == 1 else self.p_values()[-2]

    def blocks(self) -> tuple:
        """0-based index blocks of {0..n-1} cut by the composition."""
        out = []
        start = 0
        for m in self.parts:
            out.append(tuple(range(start, start + m)))
            start += m
        return tuple(out)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.parts) + ")"


class RPartition(FrozenRecord):
    """An r-tuple of partitions with total size n.

    >>> lam = RPartition.parse("(21;-;1)")
    >>> lam.n, lam.r
    (4, 3)
    >>> str(lam.transpose())
    '(21;-;1)'
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(tuple(comp) for comp in parts)
        if not parts:
            raise RPartitionError("an r-partition needs r >= 1 components")
        for comp in parts:
            if not is_partition(comp):
                raise RPartitionError(f"component {comp} is not a partition")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(sum(c) for c in self.parts)

    def weight(self) -> Composition:
        return Composition._unchecked(tuple(sum(c) for c in self.parts))

    def n_value(self) -> int:
        return sum(partition_n_value(c) for c in self.parts)

    def a_value(self) -> int:
        """r*n(lambda) + sum_(i>=2) (i-1)|lambda^(i)|."""
        return self.r * self.n_value() + \
            sum(i * sum(c) for i, c in enumerate(self.parts))

    def c_sequence(self) -> tuple:
        """Interleaved part sequence, zero-padded to r*max(n, 1) entries."""
        width = max(self.n, 1)
        out = []
        for row in range(width):
            for comp in self.parts:
                out.append(comp[row] if row < len(comp) else 0)
        return tuple(out)

    def tau(self) -> "RPartition":
        """The component rearrangement (r-1, r-2, ..., 1, r)."""
        p = self.parts
        return RPartition(tuple(reversed(p[:-1])) + (p[-1],))

    def transpose(self) -> "RPartition":
        return RPartition(tuple(conjugate_partition(c) for c in self.parts))

    # -- text form ----------------------------------------------------

    @staticmethod
    def parse(text: str) -> "RPartition":
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        comps = []
        for chunk in body.split(";"):
            chunk = chunk.strip()
            if chunk in ("-", ""):
                comps.append(())
                continue
            comps.append(_parse_partition(chunk))
        return RPartition(tuple(comps))

    def __str__(self):
        rendered = []
        for comp in self.parts:
            if not comp:
                rendered.append("-")
            elif any(p >= 10 for p in comp):
                rendered.append(",".join(str(p) for p in comp))
            else:
                rendered.append("".join(str(p) for p in comp))
        return "(" + ";".join(rendered) + ")"


def _parse_partition(chunk: str) -> tuple:
    parts = []
    if "," in chunk:
        for tok in chunk.split(","):
            tok = tok.strip()
            m = re.fullmatch(r"(\d+)(?:\^(\d+))?", tok)
            if not m:
                raise RPartitionError(f"bad partition token {tok!r}")
            parts.extend([int(m.group(1))] * int(m.group(2) or 1))
    else:
        stripped = re.sub(r"\s", "", chunk)
        if not re.fullmatch(r"(\d(\^\d+)?)+", stripped):
            raise RPartitionError(f"bad partition chunk {chunk!r}")
        for m in re.finditer(r"(\d)(?:\^(\d+))?", stripped):
            parts.extend([int(m.group(1))] * int(m.group(2) or 1))
    parts.sort(reverse=True)
    if 0 in parts:
        raise RPartitionError(f"zero part in {chunk!r}")
    if not is_partition(tuple(parts)):
        raise RPartitionError(f"{chunk!r} is not a partition")
    return tuple(parts)


def n_star(n: int, r: int) -> int:
    """The number of reflections of S_n x (Z/rZ)^n: C(n,2)*r + (r-1)*n."""
    if n < 0 or r < 1:
        raise RPartitionError("need n >= 0 and r >= 1")
    return comb(n, 2) * r + (r - 1) * n


@lru_cache(maxsize=None)
def _dominance_key(lam: RPartition) -> tuple:
    """The prefix sums of c(lam).  Sorting by them sorts by c(lam), as both
    compare lexicographically at the first entry where the c-sequences
    differ."""
    return tuple(itertools.accumulate(lam.c_sequence()))


def dominance_leq(lam: RPartition, mu: RPartition) -> bool:
    """True iff every prefix sum of c(lam) is <= the one of c(mu)."""
    if lam.n != mu.n or lam.r != mu.r:
        raise RPartitionError("dominance needs equal n and r")
    return all(map(operator.le, _dominance_key(lam), _dominance_key(mu)))


@lru_cache(maxsize=None)
def enumerate_rpartitions(n: int, r: int) -> tuple:
    """Every r-partition of n exactly once, in a fixed deterministic order.

    >>> [str(x) for x in enumerate_rpartitions(1, 3)]
    ['(1;-;-)', '(-;1;-)', '(-;-;1)']
    """
    if n < 0 or r < 1:
        raise RPartitionError("need n >= 0 and r >= 1")
    out = []
    for m in compositions(n, r):
        stack = [()]
        for size in m:
            stack = [prefix + (comp,) for prefix in stack
                     for comp in partitions(size)]
        out.extend(RPartition(parts) for parts in stack)
    return tuple(out)


class OrderedIndex(FrozenRecord):
    """A total order on P_{n,r} refining the dominance order.  Equality,
    hash and repr read items only: _pos is the position lookup built from
    them."""

    __slots__ = ("items", "_pos")

    def __init__(self, items):
        items = tuple(items)
        object.__setattr__(self, "items", items)
        pos = {lam: i for i, lam in enumerate(items)}
        if len(pos) != len(items):
            raise RPartitionError("duplicate r-partitions in total order")
        object.__setattr__(self, "_pos", pos)
        expect = set(enumerate_rpartitions(items[0].n, items[0].r)) if items else set()
        if set(items) != expect:
            raise RPartitionError("total order does not cover P_{n,r} exactly")
        keys = list(map(_dominance_key, items))
        for i, (lam, key) in enumerate(zip(items, keys)):
            for mu, later in zip(items[i + 1:], keys[i + 1:]):
                if all(map(operator.le, later, key)):
                    raise RPartitionError(
                        f"order violates dominance: {mu} must precede {lam}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.items == other.items
        return NotImplemented

    def __hash__(self):
        return hash((self.items,))

    def __repr__(self):
        return f"{type(self).__qualname__}(items={self.items!r})"

    def __reduce__(self):
        return type(self), (self.items,)

    def position(self, lam: RPartition) -> int:
        return self._pos[lam]

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]


def default_total_order(n: int, r: int) -> OrderedIndex:
    """Ascending lexicographic order on c-sequences (refines dominance)."""
    items = sorted(enumerate_rpartitions(n, r), key=_dominance_key)
    return OrderedIndex(tuple(items))


def sample_linear_extensions(n: int, r: int, count: int, seed: int) -> list:
    """Random topological sorts of the dominance order, reproducible by seed.

    Repeats are possible (and inevitable when the dominance order is total).
    """
    if count < 1:
        raise RPartitionError("count must be >= 1")
    rng = random.Random(seed)
    items = list(enumerate_rpartitions(n, r))
    below = {lam: [mu for mu in items
                   if mu != lam and dominance_leq(mu, lam)] for lam in items}
    out = []
    for _ in range(count):
        remaining = set(items)
        order = []
        while remaining:
            ready = sorted((lam for lam in remaining
                            if all(mu not in remaining for mu in below[lam])),
                           key=_dominance_key)
            pick = rng.choice(ready)
            order.append(pick)
            remaining.remove(pick)
        out.append(OrderedIndex(tuple(order)))
    return out


class ContingencyMatrix(FrozenRecord):
    """An r x r matrix of nonnegative integers with prescribed margins.

    Rows follow the second composition (m'), columns the first (m), so that
    column j sums to m_j and row i sums to m'_i.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        r = len(rows)
        if any(len(row) != r for row in rows) or \
                any(x < 0 for row in rows for x in row):
            raise RPartitionError("contingency matrix must be square and nonnegative")
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.rows,))

    @property
    def r(self) -> int:
        return len(self.rows)

    def row_sums(self) -> tuple:
        return tuple(sum(row) for row in self.rows)

    def col_sums(self) -> tuple:
        return tuple(sum(row[j] for row in self.rows) for j in range(self.r))

    def entry(self, i: int, j: int) -> int:
        """h_(i,j) with 1-based indices, as in the double-coset formulas."""
        return self.rows[i - 1][j - 1]

    def row_prefix(self, i: int, j: int) -> int:
        """h_(i, <=j)."""
        return sum(self.rows[i - 1][:j])

    def col_prefix(self, i: int, j: int) -> int:
        """h_(<=i, j)."""
        return sum(self.rows[k][j - 1] for k in range(i))

    def block_prefix(self, i: int, j: int) -> int:
        """h_(<=i, <=j)."""
        return sum(sum(self.rows[k][:j]) for k in range(i))

    def transpose(self) -> "ContingencyMatrix":
        return ContingencyMatrix(tuple(zip(*self.rows)))

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in row)
                               for row in self.rows) + "]"


def enumerate_contingency(m: Composition, m_prime: Composition) -> list:
    """All contingency matrices with column margins m and row margins m',
    in descending lexicographic order of their rows.  Rows and columns with
    a zero margin hold zeros; the recursion runs over the others only.

    >>> res = enumerate_contingency(Composition((1, 1, 0)), Composition((0, 1, 1)))
    >>> len(res)
    2
    """
    if m.n != m_prime.n:
        raise RPartitionError("margins must have the same total")
    if m.r != m_prime.r:
        raise RPartitionError("margins must have the same length")
    r = m.r
    cols = [j for j in range(r) if m.parts[j]]
    targets = [(i, part) for i, part in enumerate(m_prime.parts) if part]
    out = []

    def row_fill(k: int, left: int, caps: tuple, row: list):
        # Entries of one row in the nonzero columns cols[k:], each at most
        # the column's remaining margin; the last takes what is left.
        if k == len(cols) - 1:
            if left <= caps[k]:
                row[cols[k]] = left
                yield row
            return
        room = sum(caps[k + 1:])
        for v in range(min(left, caps[k]), max(left - room, 0) - 1, -1):
            row[cols[k]] = v
            yield from row_fill(k + 1, left - v, caps, row)

    def fill(t: int, caps: tuple, acc: list):
        if t == len(targets):
            out.append(ContingencyMatrix._unchecked(tuple(map(tuple, acc))))
            return
        i, target = targets[t]
        for row in row_fill(0, target, caps, [0] * r):
            acc[i] = row
            fill(t + 1, tuple(caps[k] - row[j] for k, j in enumerate(cols)),
                 acc)

    fill(0, tuple(m.parts[j] for j in cols), [[0] * r for _ in range(r)])
    return out


# -- dimension formulas for the G-stable pieces -----------------------------


def dim_x(lam: RPartition) -> int:
    """(n^2 - n - 2n(lambda)) + sum_(i<r) (r-i)|lambda^(i)|."""
    n = lam.n
    extra = sum((lam.r - i) * sum(comp)
                for i, comp in enumerate(lam.parts, start=1))
    return n * n - n - 2 * lam.n_value() + extra


def dim_xm_unip(m: Composition) -> int:
    """n^2 - n + sum_(i<r) (r-i) m_i."""
    n = m.n
    extra = sum((m.r - i) * mi for i, mi in enumerate(m.parts, start=1))
    return n * n - n + extra
