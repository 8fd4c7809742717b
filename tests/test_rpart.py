"""R-partition combinatorics: enumeration, orders, statistics, margins."""
import itertools

import pytest

from wkostka.rpart import (Composition, RPartition, RPartitionError,
                           compositions, default_total_order, dim_x,
                           dim_xm_unip, dominance_leq, enumerate_contingency,
                           enumerate_rpartitions, n_star,
                           sample_linear_extensions)

from literal_contingency import contingency_by_full_recursion


def RP(s):
    return RPartition.parse(s)


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_rpartitions(1, 3)) == 3
        assert len(enumerate_rpartitions(2, 3)) == 9
        assert len(enumerate_rpartitions(3, 3)) == 22

    def test_n0(self):
        items = enumerate_rpartitions(0, 4)
        assert len(items) == 1
        assert items[0] == RP("(-;-;-;-)")

    def test_no_duplicates(self):
        for n, r in ((3, 2), (4, 3), (2, 4)):
            items = enumerate_rpartitions(n, r)
            assert len(set(items)) == len(items)
            assert all(x.n == n and x.r == r for x in items)


class TestCSequence:
    def test_interleaving(self):
        assert RP("(1;-;1)").c_sequence() == (1, 0, 1, 0, 0, 0)
        assert RP("(-;11;-)").c_sequence() == (0, 1, 0, 0, 1, 0)
        assert RP("(-;-;-)").c_sequence() == (0, 0, 0)


class TestDominance:
    def test_known_comparisons(self):
        assert dominance_leq(RP("(-;1;1)"), RP("(1;-;1)"))
        a, b = RP("(-;11;-)"), RP("(-;-;2)")
        assert not dominance_leq(a, b) and not dominance_leq(b, a)

    def test_reflexive(self):
        for lam in enumerate_rpartitions(3, 3):
            assert dominance_leq(lam, lam)

    def test_poset_axioms_exhaustive(self):
        for n, r in ((2, 2), (3, 2), (2, 3), (3, 3)):
            items = enumerate_rpartitions(n, r)
            for a, b in itertools.product(items, repeat=2):
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
            for a, b, c in itertools.product(items, repeat=3):
                if dominance_leq(a, b) and dominance_leq(b, c):
                    assert dominance_leq(a, c)

    def test_mismatched_sizes(self):
        with pytest.raises(RPartitionError):
            dominance_leq(RP("(1;-)"), RP("(1;1)"))

    @pytest.mark.parametrize("n,r", [(3, 3), (4, 2), (2, 4)])
    def test_matches_the_literal_prefix_sum_loop(self, n, r):
        def literal(lam, mu):
            ta = tb = 0
            for x, y in zip(lam.c_sequence(), mu.c_sequence()):
                ta += x
                tb += y
                if ta > tb:
                    return False
            return True

        items = enumerate_rpartitions(n, r)
        for lam, mu in itertools.product(items, repeat=2):
            assert dominance_leq(lam, mu) == literal(lam, mu)


class TestStatistics:
    def test_n_value(self):
        assert RP("(-;111;-)").n_value() == 3
        assert RP("(3;-;-)").n_value() == 0
        assert RP("(-;1;11)").n_value() == 1

    def test_a_value(self):
        assert RP("(-;-;11)").a_value() == 7
        assert RP("(-;111;-)").a_value() == 12
        assert RP("(3;-;-)").a_value() == 0

    def test_n_star(self):
        assert n_star(1, 3) == 2
        assert n_star(3, 3) == 15
        for n in range(7):
            assert n_star(n, 1) == n * (n - 1) // 2

    def test_a_extremes(self):
        for n in range(1, 5):
            for r in range(1, 5):
                items = enumerate_rpartitions(n, r)
                tops = [x for x in items if x.a_value() == n_star(n, r)]
                bottoms = [x for x in items if x.a_value() == 0]
                assert tops == [RPartition(((),) * (r - 1) + ((1,) * n,))]
                assert bottoms == [RPartition((((n,),) + ((),) * (r - 1)))]
                assert max(x.a_value() for x in items) == n_star(n, r)

    def test_tau(self):
        assert RP("(-;1;1)").tau() == RP("(1;-;1)")
        assert RP("(-;11;-)").tau() == RP("(11;-;-)")
        for lam in enumerate_rpartitions(3, 4):
            assert lam.tau().tau() == lam

    def test_transpose(self):
        assert RP("(2;-;-)").transpose() == RP("(11;-;-)")
        assert RP("(21;-;-)").transpose() == RP("(21;-;-)")
        for lam in enumerate_rpartitions(4, 2):
            assert lam.transpose().transpose() == lam
            assert lam.transpose().n_value() >= 0

    def test_weight_and_p_values(self):
        lam = RP("(-;1;1)")
        m = lam.weight()
        assert m.parts == (0, 1, 1)
        assert m.p_values() == (0, 1, 2)
        assert m.p_minus() == 1
        assert m.p_plus() == 1
        full = Composition((4, 0, 0))
        assert full.p_minus() == 2 * 4 and full.p_plus() == 4
        last = Composition((0, 0, 4))
        assert last.p_minus() == 0 and last.p_plus() == 0


class TestOrders:
    def test_default_order_n1(self):
        order = default_total_order(1, 3)
        assert [str(x) for x in order] == ["(-;-;1)", "(-;1;-)", "(1;-;-)"]

    def test_refines_dominance(self):
        for n in range(4):
            for r in range(1, 5):
                order = default_total_order(n, r)
                for i, lam in enumerate(order.items):
                    for mu in order.items[i + 1:]:
                        assert not (dominance_leq(mu, lam) and mu != lam)

    def test_sampled_extensions(self):
        exts = sample_linear_extensions(1, 3, 4, 99)
        assert len(exts) == 4
        assert all(tuple(e.items) == tuple(exts[0].items) for e in exts)
        a = sample_linear_extensions(2, 3, 5, 42)
        b = sample_linear_extensions(2, 3, 5, 42)
        assert [tuple(x.items) for x in a] == [tuple(x.items) for x in b]
        c = sample_linear_extensions(2, 3, 5, 43)
        assert [tuple(x.items) for x in a] != [tuple(x.items) for x in c]

    def test_bad_order_rejected(self):
        from wkostka.rpart import OrderedIndex
        items = list(default_total_order(2, 2).items)
        items[0], items[-1] = items[-1], items[0]
        with pytest.raises(RPartitionError):
            OrderedIndex(tuple(items))


class TestContingency:
    def test_small_example(self):
        res = enumerate_contingency(Composition((1, 1, 0)), Composition((0, 1, 1)))
        assert len(res) == 2
        for h in res:
            assert h.col_sums() == (1, 1, 0)
            assert h.row_sums() == (0, 1, 1)

    def test_concentrated(self):
        res = enumerate_contingency(Composition((3, 0, 0)), Composition((3, 0, 0)))
        assert len(res) == 1
        assert res[0].entry(1, 1) == 3

    def test_transpose_bijection(self):
        for m, mp in (((2, 1, 0), (1, 1, 1)), ((2, 2), (1, 3)),
                      ((1, 1, 1, 1), (2, 2, 0, 0))):
            a = enumerate_contingency(Composition(m), Composition(mp))
            b = enumerate_contingency(Composition(mp), Composition(m))
            assert len(a) == len(b)
            assert {h.rows for h in a} == {h.transpose().rows for h in b}

    def test_mismatched_totals(self):
        with pytest.raises(RPartitionError):
            enumerate_contingency(Composition((1, 0)), Composition((2, 0)))

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(5)
                                     for r in range(1, 4)]
                             + [(2, 5), (3, 4)])
    def test_matches_full_recursion(self, n, r):
        """Recursing over the nonzero margins only lists the same matrices,
        in the same order, as the recursion over every row and column."""
        weights = [Composition(c) for c in compositions(n, r)]
        for m in weights:
            for mp in weights:
                assert enumerate_contingency(m, mp) == \
                    contingency_by_full_recursion(m, mp)


class TestDimensions:
    def test_example(self):
        assert dim_x(RP("(1;1;1)")) == 9

    def test_row_case(self):
        for n in range(1, 5):
            for r in range(1, 4):
                lam = RPartition((((n,),) + ((),) * (r - 1)))
                assert dim_x(lam) == n * n - n + (r - 1) * n

    def test_unip_gap_identity(self):
        for n in range(5):
            for r in range(1, 5):
                for lam in enumerate_rpartitions(n, r):
                    assert dim_xm_unip(lam.weight()) - dim_x(lam) == \
                        2 * lam.n_value()


class TestTextForm:
    def test_parse_shorthand(self):
        assert RP("(1^2;-;-)") == RP("(11;-;-)")
        assert str(RP("(1^2;-;-)")) == "(11;-;-)"

    def test_round_trip(self):
        for lam in enumerate_rpartitions(4, 3):
            assert RPartition.parse(str(lam)) == lam

    def test_big_parts_use_commas(self):
        lam = RPartition(((10, 2), ()))
        assert str(lam) == "(10,2;-)"
        assert RPartition.parse(str(lam)) == lam

    def test_invalid(self):
        with pytest.raises(RPartitionError):
            RP("(12a;-)")
