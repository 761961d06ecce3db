import tracemalloc
from fractions import Fraction

import pytest

from mstd import (
    DeltaProfile,
    IntSet,
    cardinality_bounds,
    difference_table,
    diffset,
    gaps,
    insertion_delta,
)
from mstd.setcore import _use_dense
from mstd.structure import (
    equal_diff_pairs,
    equal_sum_pairs,
    render_difference_table,
)
from conftest import (
    A1,
    naive_diffset,
    naive_equal_diff_pairs,
    naive_equal_sum_pairs,
    naive_sumset,
)


def I(n):
    return IntSet(tuple(range(n)))


class TestGaps:
    def test_minimal_set(self, a1_set):
        assert gaps(a1_set) == (2, 1, 1, 3, 4, 1, 2)

    def test_small(self):
        assert gaps(IntSet((0, 1, 2))) == (1, 1)
        assert gaps(IntSet((0, 5))) == (5,)

    def test_requires_two_elements(self):
        with pytest.raises(ValueError):
            gaps(IntSet((7,)))

    def test_gap_sum_is_diameter(self, a1_set):
        assert sum(gaps(a1_set)) == a1_set.diameter


class TestDifferenceTable:
    def test_triple(self):
        assert difference_table(IntSet((0, 1, 3))) == ((1, 3), (2,))

    def test_size5(self):
        t = difference_table(IntSet((0, 1, 2, 4, 5)))
        assert t == ((1, 2, 4, 5), (1, 3, 4), (2, 3), (1,))

    def test_pair(self):
        assert difference_table(IntSet((0, 7))) == ((7,),)

    def test_entries_match_positive_diffset(self, a1_set):
        entries = {v for row in difference_table(a1_set) for v in row}
        positive = {x for x in diffset(a1_set) if x > 0}
        assert entries == positive

    def test_row1_multiplicity_count(self, a1_set):
        n = len(a1_set)
        assert sum(map(len, difference_table(a1_set))) == n * (n - 1) // 2

    def test_render_is_triangular(self):
        text = render_difference_table(difference_table(IntSet((0, 1, 3))))
        lines = text.splitlines()
        assert lines[0].split() == ["0", "1", "3"]
        assert lines[1].split() == ["2"]


class TestEqualPairs:
    @pytest.mark.parametrize(
        "els,want_diff",
        [((0, 1, 2), 1), ((0, 1, 3), 0), ((0, 1, 2, 3), 4)],
    )
    def test_equal_diff_examples(self, els, want_diff):
        assert equal_diff_pairs(IntSet(els)) == want_diff
        assert naive_equal_diff_pairs(els) == want_diff

    @pytest.mark.parametrize(
        "els,want_sum",
        [((0, 1, 2), 1), ((0, 1, 3, 7), 0), ((0, 1, 2, 3), 3)],
    )
    def test_equal_sum_examples(self, els, want_sum):
        assert equal_sum_pairs(IntSet(els)) == want_sum
        assert naive_equal_sum_pairs(els) == want_sum

    def test_minimal_set_counts(self, a1_set):
        assert equal_sum_pairs(a1_set) == naive_equal_sum_pairs(A1) == 13
        assert equal_diff_pairs(a1_set) == naive_equal_diff_pairs(A1) == 21


class TestBounds:
    @pytest.mark.parametrize("n,want", [(4, (10, 13)), (5, (15, 21)), (1, (1, 1))])
    def test_values(self, n, want):
        assert cardinality_bounds(n) == want

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cardinality_bounds(0)


class TestInsertionDelta:
    def test_close_insertion(self):
        assert insertion_delta(I(5), 6) == DeltaProfile(3, 2)

    def test_far_insertion(self):
        assert insertion_delta(I(5), 9) == DeltaProfile(6, 5)

    def test_singleton(self):
        assert insertion_delta(IntSet((0,)), 1) == DeltaProfile(2, 1)

    def test_rejects_member(self):
        with pytest.raises(ValueError):
            insertion_delta(I(5), 3)

    @pytest.mark.parametrize(
        "x",
        [1.5, Fraction(7, 2), 3.0, Fraction(3)],
        ids=["float", "fraction", "integral-float", "integral-fraction"],
    )
    def test_rejects_non_integer(self, x):
        # truncated, 1.5 answered for the member 1 and 7/2 for 3; 3.0 and 3/1
        # equal the member 3, so they were refused as members
        with pytest.raises(TypeError):
            insertion_delta(IntSet((0, 1, 3)), x)

    @pytest.mark.parametrize("x", [1.5, Fraction(7, 2)], ids=["float", "fraction"])
    def test_rejects_non_integer_on_the_sparse_path(self, x):
        # pairwise sums of a float would classify a set that does not exist
        a = IntSet((0, 1, 10**9))
        assert not _use_dense(len(a) + 1, a.diameter)
        with pytest.raises(TypeError):
            insertion_delta(a, x)

    def test_exactness_sweep(self):
        # inserting (n-1)+k into {0..n-1} gives exactly k+1 sums, k differences
        for n in range(2, 21):
            for k in range(1, n):
                assert insertion_delta(I(n), (n - 1) + k) == DeltaProfile(k + 1, k)

    @pytest.mark.parametrize("far", [10**8, -(10**8), 10**18, -(10**18)])
    def test_a_far_x_builds_no_int_as_wide_as_its_distance(self, far):
        # shifting the dense masks by x - min A would allocate |x|/8 bytes:
        # 12.5 MB at 10**8, past memory at 10**18
        a = IntSet(A1)
        assert _use_dense(len(a), a.diameter)
        els = list(A1)
        want = (
            len(naive_sumset([*els, far])) - len(naive_sumset(els)),
            (len(naive_diffset([*els, far])) - len(naive_diffset(els))) // 2,
        )
        tracemalloc.start()
        try:
            got = insertion_delta(a, far).as_tuple()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want == (9, 8) and peak < 100_000
