"""Property-based invariants plus the bulk bit-parallel-vs-naive oracle run."""

import copy
import dataclasses
import pickle
import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstd import (
    IntSet,
    SetClass,
    ap_plus_two_decomposition,
    cardinality_bounds,
    classify,
    detect_ap,
    diffset,
    equal_pair_counts,
    insertion_delta,
    is_symmetric,
    profile,
    reflect_canonical,
    sum_diff_sizes,
    sumset,
)
from mstd.search import _shifted_union_sizes
from mstd.setcore import (
    _bit_indices,
    _pair_sums_by_digits,
    _pair_sums_pairwise,
    _use_convolution,
    _use_dense,
    mask_sizes,
    pair_counts_of,
    sizes_of,
)
from mstd.structure import equal_diff_pairs, equal_sum_pairs
from mstd.verify import _symmetric_masks, random_corpus
from conftest import (
    naive_diffset,
    naive_equal_diff_pairs,
    naive_equal_sum_pairs,
    naive_midpoint_triples,
    naive_sumset,
    tallied_pair_counts,
)

int_sets = st.builds(
    IntSet.from_iterable,
    st.lists(st.integers(-64, 64), min_size=1, max_size=12, unique=True),
)
# |elements| up to 2^30: a dilated small set plus -2^30, so the window is at
# least 2^29 wide (past both kernels' dense gates) and sums still collide
wide_sets = st.builds(
    lambda xs, c: IntSet.from_iterable([-(1 << 30), *(x * c for x in xs)]),
    st.lists(st.integers(-64, 64), min_size=1, max_size=11, unique=True),
    st.integers(1 << 16, 1 << 23),
)
small_sets = st.builds(
    IntSet.from_iterable,
    st.lists(st.integers(-20, 20), min_size=1, max_size=7, unique=True),
)


@st.composite
def wide_dense_sets(draw):
    # |A| <= 300 in a window of up to 4,096 at any offset, decoded from sum
    # masks of up to 8,191 bits; at least one element per 512 bits of window
    # keeps it inside the dense gate
    width = draw(st.integers(1, 4096))
    n = draw(st.integers(-(-width // 512), min(300, width)))
    lo = draw(st.integers(-8192, 8192))
    xs = draw(st.randoms(use_true_random=False)).sample(range(lo, lo + width), n)
    return IntSet.from_iterable(xs)


# each makes a new IntSet of the same elements; only replace drops the kept sets
COPIES = {
    "pickle": lambda a: pickle.loads(pickle.dumps(a)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": lambda a: dataclasses.replace(a, elements=list(a.elements)),
}


@st.composite
def insertion_points(draw, a):
    """An x not in A: below, inside or above the window, midway between two
    elements (so two distances |x - e| are equal), or on or just past the
    window reflected about either end."""
    els, span = a.elements, a.diameter + 1
    reflected = (2 * els[0] - els[-1], 2 * els[-1] - els[0])
    edges = [e + k for e in reflected for k in (-1, 0, 1)]
    midpoints = [
        (u + v) // 2
        for u, v in combinations(els, 2)
        if (u + v) % 2 == 0 and (u + v) // 2 not in a
    ]
    where = [
        st.integers(els[0] - 3 * span, els[0] - 1),
        st.integers(els[0], els[-1]).filter(lambda x: x not in a),
        st.integers(els[-1] + 1, els[-1] + 3 * span),
    ]
    for points in (midpoints, [x for x in edges if x not in a]):
        if points:
            where.append(st.sampled_from(points))
    return draw(st.one_of(where))


def check_reads_match_naive(a, data):
    """sumset, diffset, sizes and insertion_delta at a drawn x and at
    +-10**18 against the oracles, on a and on copies made before and after
    its first count, which keeps A+A and A-A for the others to read."""
    els = list(a.elements)
    sums, diffs = naive_sumset(els), naive_diffset(els)
    x = data.draw(insertion_points(a))
    deltas = {}
    for y in (x, 10**18, -(10**18)):
        grown = len(naive_sumset([*els, y])), len(naive_diffset([*els, y]))
        deltas[y] = (grown[0] - len(sums), (grown[1] - len(diffs)) // 2)

    def check(b):
        assert b == a
        assert list(sumset(b)) == sums and list(diffset(b)) == diffs
        assert {y: insertion_delta(b, y).as_tuple() for y in deltas} == deltas
        assert sum_diff_sizes(b) == (len(sums), len(diffs))

    if data.draw(st.booleans()):
        assert insertion_delta(a, x).as_tuple() == deltas[x]  # counts a first
    for b in [a, *[make(a) for make in COPIES.values()]]:
        check(b)
    for make in COPIES.values():  # copies of a set already counted
        check(make(a))


@given(int_sets, st.data())
def test_bit_parallel_matches_naive(a, data):
    assert _use_dense(len(a), a.diameter)
    check_reads_match_naive(a, data)


@settings(max_examples=60, deadline=None)
@given(wide_dense_sets(), st.data())
def test_wide_windows_match_naive(a, data):
    assert _use_dense(len(a), a.diameter)
    check_reads_match_naive(a, data)
    assert IntSet.from_mask(*a.mask()) == a


@given(wide_sets, st.data())
def test_sparse_path_matches_naive(a, data):
    assert not _use_dense(len(a), a.diameter)
    check_reads_match_naive(a, data)


@pytest.mark.parametrize("sets, dense", [(int_sets, True), (wide_sets, False)])
@given(data=st.data())
def test_sizes_of_takes_any_order_with_repeats(sets, dense, data):
    a = data.draw(sets)
    assert _use_dense(len(a), a.diameter) is dense
    rnd = data.draw(st.randoms(use_true_random=False))
    xs = [*a.elements, *rnd.choices(a.elements, k=len(a))]
    rnd.shuffle(xs)
    want = len(naive_sumset(a.elements)), len(naive_diffset(a.elements))
    assert sizes_of(xs) == want


# a finite set of nonnegative integers that holds 0, as a mask with bit 0 set
part_masks = st.integers(0, 1 << 40).map(lambda m: m << 1 | 1)


@given(part_masks, part_masks)
def test_shifted_union_sizes_match_the_union_mask(f, g):
    # shifts both ways, past both widths; elements in any order, with repeats
    fe, ge = _bit_indices(f), _bit_indices(g)
    reach = f.bit_length() + g.bit_length()
    shifts = range(-reach, reach + 1)
    want = [(s, *mask_sizes(f | g << s if s >= 0 else f << -s | g)) for s in shifts]
    assert list(_shifted_union_sizes(fe[::-1] + fe, ge, shifts)) == want


def _naive_pair_counts(xs):
    return (
        naive_equal_sum_pairs(xs),
        naive_equal_diff_pairs(xs),
        naive_midpoint_triples(xs),
    )


@given(int_sets)
def test_pair_counts_match_naive(a):
    # |A| <= 12 on [-64, 64] falls on both sides of the convolution gate
    assert equal_pair_counts(a) == _naive_pair_counts(a.elements)


@given(wide_sets)
def test_pair_counts_pairwise_path_matches_naive(a):
    assert not _use_convolution(len(a), a.diameter)
    assert equal_pair_counts(a) == _naive_pair_counts(a.elements)


def _by_digits(els):
    # the digit kernel on els in any order, with the ends pair_counts_of finds
    lo = min(els)
    return _pair_sums_by_digits(els, lo, max(els) - lo)


@given(int_sets)
def test_pair_count_paths_agree(a):
    els = a.elements
    assert _by_digits(els) == _pair_sums_pairwise(els)


def _width_edge_sets():
    # one-byte digits up to 256 elements, the low square table alone up to
    # 16; 257 elements read two-byte digits
    rng = random.Random(26)
    for n in (1, 2, 16, 17):
        yield tuple(range(n))
        yield tuple(range(-n, n, 2))
        yield tuple(sorted(rng.sample(range(-40, 41), n)))
    yield tuple(range(256))
    yield tuple(range(-128, 128))
    yield tuple(sorted(rng.sample(range(1024), 256)))
    yield tuple(sorted(rng.sample(range(-512, 512), 256)))
    yield tuple(range(257))
    yield tuple(sorted(rng.sample(range(-512, 512), 257)))


@pytest.mark.parametrize(
    "els", list(_width_edge_sets()), ids=lambda els: f"n{len(els)}@{els[0]}..{els[-1]}"
)
def test_pair_counts_at_digit_width_edges(els):
    assert _use_convolution(len(els), els[-1] - els[0])
    want = tallied_pair_counts(els)
    if len(els) <= 17:
        assert _naive_pair_counts(els) == want
    assert equal_pair_counts(IntSet(els)) == want


@given(st.one_of(int_sets, wide_sets), st.randoms(use_true_random=False))
def test_pair_counts_take_any_order(a, rng):
    # obs6 hands the kernel its random draws unsorted
    els = list(a.elements)
    rng.shuffle(els)
    want = pair_counts_of(a.elements)
    assert pair_counts_of(els) == pair_counts_of(tuple(els)) == want
    assert pair_counts_of(a.elements[::-1]) == want
    if _use_convolution(len(a), a.diameter):
        assert _by_digits(els) == _by_digits(a.elements)


def _symmetric_sets():
    # A = c - A puts all |A| ordered pairs on the middle sum, min A + max A:
    # the one digit of p*p that reaches |A|, 256 on one byte at |A| = 256
    rng = random.Random(32)
    sets = {(0,): None, tuple(range(10**9, 10**9 + 17)): None}  # an AP far from 0
    for n in [*range(2, 18), 255, 256, 257]:
        for span in (n, 2 * n, 4 * n):
            half = rng.sample(range(1, span + 1), n // 2)
            mid = [0] if n % 2 else []
            sets[tuple(sorted([*(-x for x in half), *mid, *half]))] = None
    return list(sets)


@pytest.mark.parametrize(
    "els", _symmetric_sets(), ids=lambda els: f"n{len(els)}@{els[0]}..{els[-1]}"
)
def test_pair_counts_of_symmetric_sets(els):
    assert is_symmetric(IntSet(els)) is not None
    assert _use_convolution(len(els), els[-1] - els[0])
    assert _by_digits(els) == _pair_sums_pairwise(els)
    want = tallied_pair_counts(els)
    if len(els) <= 17:
        assert _naive_pair_counts(els) == want
    assert pair_counts_of(els[::-1]) == equal_pair_counts(IntSet(els)) == want


@pytest.mark.parametrize("n", [255, 256, 257])
def test_digit_width_holds_every_count(n):
    # less D_0 = n, an AP's digits peak at D_1 = n - 1, and less the pair
    # taken off its middle sum, at r = n - 1: one byte each holds every count
    # up to 256 elements, and 257 takes two
    els = tuple(range(n))
    assert _by_digits(els) == _pair_sums_pairwise(els)
    esp, edp, t = equal_pair_counts(IntSet(els))
    assert edp == sum((n - k) * (n - k - 1) // 2 for k in range(1, n))
    assert t == sum(2 * min(a, n - 1 - a) + 1 for a in range(n))


def test_pair_count_paths_agree_at_size_256():
    # the interactive size class: 256 elements on a window of 1024
    els = tuple(sorted(random.Random(256).sample(range(1024), 256)))
    assert _by_digits(els) == _pair_sums_pairwise(els)
    esp, edp, t = equal_pair_counts(IntSet(els))
    doubles = {2 * z for z in els}
    assert t == sum(1 for x in els for y in els if x + y in doubles)
    assert 2 * (2 * esp - edp) == t - 256


def test_pair_count_gate():
    # the perfbench sparse class stays pairwise; dense windows convolve
    assert not _use_convolution(32, 1 << 24)
    assert _use_convolution(12, 64)
    assert _use_convolution(256, 1023)


def test_bit_parallel_matches_naive_bulk():
    # 10,000 seeded random sets, |A| <= 12, diameter <= 64
    for a in random_corpus(10_000, seed=0x5D5D):
        els = a.elements
        nsum, ndiff = sum_diff_sizes(a)
        assert nsum == len(naive_sumset(els))
        assert ndiff == len(naive_diffset(els))


@given(int_sets, st.integers(-50, 50), st.sampled_from([-1, 1]))
def test_profile_invariant_under_reflection_translation(a, t, s):
    image = IntSet.from_iterable(s * e + t for e in a)
    p, q = profile(a), profile(image)
    assert (p.sum_size, p.diff_size, p.set_class) == (q.sum_size, q.diff_size, q.set_class)
    assert (p.equal_sum_pairs, p.equal_diff_pairs) == (q.equal_sum_pairs, q.equal_diff_pairs)


@given(int_sets, st.integers(1, 9))
def test_profile_invariant_under_dilation(a, c):
    p, q = profile(a), profile(IntSet.from_iterable(c * e for e in a))
    assert (p.sum_size, p.diff_size, p.set_class) == (q.sum_size, q.diff_size, q.set_class)
    assert (p.equal_sum_pairs, p.equal_diff_pairs) == (q.equal_sum_pairs, q.equal_diff_pairs)


@given(int_sets)
def test_diffset_shape(a):
    d = list(diffset(a))
    assert 0 in d
    assert d == sorted(-x for x in d)
    s = sumset(a)
    assert s.min == 2 * a.min and s.max == 2 * a.max


@given(int_sets)
def test_symmetric_implies_balanced(a):
    if is_symmetric(a) is not None:
        assert classify(a) is SetClass.BALANCED


def test_generated_symmetric_sets_are_balanced_and_centered():
    for a in map(IntSet.from_mask, _symmetric_masks(14)):
        c = is_symmetric(a)
        assert c == a.min + a.max
        assert classify(a) is SetClass.BALANCED


@given(int_sets)
def test_ap_implies_symmetric(a):
    if detect_ap(a) is not None:
        assert is_symmetric(a) is not None


@given(int_sets)
def test_reflect_canonical_idempotent(a):
    g = gcd(*(e - a.min for e in a)) or 1  # 0 for a singleton
    normalized = IntSet(tuple((e - a.min) // g for e in a))
    canon = reflect_canonical(normalized)
    assert reflect_canonical(canon) == canon
    mirror = IntSet(tuple(normalized.max - e for e in normalized.elements[::-1]))
    assert reflect_canonical(mirror) == canon
    assert canon.elements == min(normalized.elements, mirror.elements)


@given(int_sets)
def test_observation_inequality_and_bounds(a):
    # the identity 2*ESP - EDP = (T - |A|)/2 implies the inequality: T >= |A|
    n = len(a)
    esp, edp = equal_sum_pairs(a), equal_diff_pairs(a)
    t = naive_midpoint_triples(a.elements)
    assert 2 * (2 * esp - edp) == t - n
    assert t >= n and 2 * esp >= edp
    nsum, ndiff = sum_diff_sizes(a)
    max_sum, max_diff = cardinality_bounds(n)
    assert nsum <= max_sum and ndiff <= max_diff
    # each collision pair kills at most one distinct value per sign
    assert ndiff >= max_diff - 2 * edp
    assert nsum >= max_sum - esp


@given(int_sets)
def test_sidon_sets_attain_bounds(a):
    if equal_sum_pairs(a) == 0:
        assert sum_diff_sizes(a) == cardinality_bounds(len(a))


@given(small_sets)
def test_ap_plus_two_reconstructs_input(a):
    split = ap_plus_two_decomposition(a)
    if split is None:
        return
    ap, extras = split
    assert len(extras) <= 2
    assert sorted(ap.elements() + extras.elements) == list(a.elements)
    if detect_ap(a) is not None:
        assert extras.elements == ()


@given(small_sets, st.integers(-30, 30))
def test_insertion_delta_caps(a, x):
    if x in a:
        return
    delta = insertion_delta(a, x)
    assert 0 <= delta.new_sums <= len(a) + 1
    assert 0 <= delta.new_pos_diffs <= len(a) + 1


@settings(max_examples=200)
@given(st.integers(1, 14), st.data())
def test_mask_reflection_comparison_matches_lex(d, data):
    # the hot loop compares masks; the contract is lexicographic tuples
    interior = data.draw(st.integers(0, (1 << max(0, d - 1)) - 1))
    mask = 1 | (interior << 1) | (1 << d)
    els = tuple(i for i in range(d + 1) if (mask >> i) & 1)
    refl = tuple(sorted(d - e for e in els))
    rmask = sum(1 << e for e in refl)
    assert (mask <= rmask) == (els <= refl)
