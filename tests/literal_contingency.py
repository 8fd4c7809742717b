"""The contingency-matrix recursion over every row and column, zero margins
included, kept as the oracle of rpart.enumerate_contingency (which recurses
over the nonzero margins only and must list the same matrices in the same
order)."""
from wkostka.rpart import ContingencyMatrix


def contingency_by_full_recursion(m, m_prime):
    r = m.r
    out = []

    def fill(i, col_left, acc):
        if i == r:
            if all(c == 0 for c in col_left):
                out.append(ContingencyMatrix(tuple(acc)))
            return
        target = m_prime.parts[i]

        def row_fill(j, left, row):
            if j == r - 1:
                if left <= col_left[j]:
                    yield tuple(row + [left])
                return
            for v in range(min(left, col_left[j]), -1, -1):
                yield from row_fill(j + 1, left - v, row + [v])

        for row in row_fill(0, target, []):
            fill(i + 1, tuple(c - v for c, v in zip(col_left, row)),
                 acc + [row])

    fill(0, m.parts, [])
    return out
