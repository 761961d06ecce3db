import copy
import dataclasses
import pickle
import random
import sys
import threading
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, count

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mstd import (
    APSpec,
    EmptySetError,
    IntSet,
    SetClass,
    SetLiteralError,
    ap_plus_two_decomposition,
    classify,
    detect_ap,
    diffset,
    insertion_delta,
    is_symmetric,
    profile,
    reflect_canonical,
    sum_diff_sizes,
    sumset,
)
from mstd import setcore
from mstd.search import explore_two_ap_unions
from mstd.setcore import (
    RationalSet,
    _use_dense,
    mask_sizes,
    scale_to_integers,
    sizes_of,
)
from mstd.reports import render_json
from conftest import (
    A1,
    Index,
    naive_ap_plus_two_decomposition,
    naive_class,
    naive_diffset,
    naive_sumset,
)


class TestIntSet:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            IntSet((3, 1))
        with pytest.raises(ValueError):
            IntSet((1, 1))

    def test_from_iterable_dedups(self):
        assert IntSet.from_iterable([3, 1, 3, -2]).elements == (-2, 1, 3)

    @pytest.mark.parametrize(
        "xs",
        [[0.9, 2.5], [0, Fraction(7, 2)], [0, 2.0]],
        ids=["floats", "fraction", "integral-float"],
    )
    def test_from_iterable_refuses_non_integers(self, xs):
        # int() would truncate them: [0.9, 2.5] became {0, 2}
        with pytest.raises(TypeError):
            IntSet.from_iterable(xs)

    @pytest.mark.parametrize(
        "els",
        [(0.5, 1.5), (0, 2.0), (0, Fraction(7, 2)), (Fraction(1), 3), (1.0,)],
        ids=["floats", "integral-float", "fraction", "integral-fraction", "one-float"],
    )
    def test_constructor_refuses_non_integers(self, els):
        # IntSet((0.5, 1.5)) printed 0.5,1.5 and detect_ap gave a float APSpec
        with pytest.raises(TypeError):
            IntSet(els)

    def test_sets_built_sorted_are_not_checked_again(self, monkeypatch):
        # each builder makes a strictly increasing tuple of exact ints itself;
        # checking it again cost ~40% of a |A| = 256 sumset
        def no_check(self):
            raise AssertionError("checked a set its builder made sorted")

        dense = IntSet((False, True, Index(2), Index(4)))  # both decode a mask
        sparse = IntSet((0, 1, 10**9))  # both go pairwise
        monkeypatch.setattr(IntSet, "__post_init__", no_check)
        built = {
            "from_iterable": IntSet.from_iterable([Index(3), True, False, -2, True]),
            "from_mask": IntSet.from_mask(True, Index(4)),
            "from_mask lo": IntSet.from_mask(0b1011, Index(-7)),
            "sumset": sumset(dense),
            "diffset": diffset(dense),
            "sumset sparse": sumset(sparse),
            "diffset sparse": diffset(sparse),
        }
        assert {k: a.elements for k, a in built.items()} == {
            "from_iterable": (-2, 0, 1, 3),
            "from_mask": (4,),
            "from_mask lo": (-7, -6, -4),
            "sumset": (0, 1, 2, 3, 4, 5, 6, 8),
            "diffset": (-4, -3, -2, -1, 0, 1, 2, 3, 4),
            "sumset sparse": (0, 1, 2, 10**9, 10**9 + 1, 2 * 10**9),
            "diffset sparse": (-(10**9), 1 - 10**9, -1, 0, 1, 10**9 - 1, 10**9),
        }
        assert all(type(e) is int for a in built.values() for e in a)

    def test_index_types_are_stored_as_plain_ints(self):
        a = IntSet((Index(0), Index(70)))
        assert a.elements == (0, 70) and all(type(e) is int for e in a)
        assert sum_diff_sizes(a) == (3, 3) and str(sumset(a)) == "0,70,140"
        b = IntSet((False, True))
        assert str(b) == "0,1" and all(type(e) is int for e in b)

    # a list is stored as a tuple: the set equals, hashes as and compares
    # with the one built from a tuple
    def test_a_list_makes_the_same_set_as_a_tuple(self):
        a = IntSet([0, 1, 3])
        assert a == IntSet((0, 1, 3)) and a.elements == (0, 1, 3)

    def test_a_set_from_a_list_hashes(self):
        assert hash(IntSet([0, 1, 3])) == hash(IntSet((0, 1, 3)))
        assert len({IntSet([0, 1, 3]), IntSet((0, 1, 3))}) == 1

    def test_reflect_canonical_of_a_set_from_a_list(self):
        assert reflect_canonical(IntSet([0, 2, 3])) == IntSet((0, 1, 3))

    def test_parse(self):
        assert IntSet.parse("0,2, 3").elements == (0, 2, 3)
        assert IntSet.parse("-3,5").elements == (-3, 5)

    def test_parse_errors_carry_position(self):
        with pytest.raises(SetLiteralError) as exc:
            IntSet.parse("0,,1")
        assert exc.value.position == 2
        with pytest.raises(SetLiteralError):
            IntSet.parse("0,x")
        with pytest.raises(SetLiteralError):
            IntSet.parse("0,1/2")  # rationals rejected for plain integer sets

    def test_empty_guards(self):
        empty = IntSet(())
        for op in (sumset, diffset, classify, profile, is_symmetric, detect_ap):
            with pytest.raises(EmptySetError):
                op(empty)

    def test_str_roundtrip(self, a1_set):
        assert str(a1_set) == "0,2,3,4,7,11,12,14"
        assert IntSet.parse(str(a1_set)) == a1_set


class TestSumDiff:
    def test_two_element(self):
        assert sumset(IntSet((0, 1))).elements == (0, 1, 2)
        assert diffset(IntSet((0, 1))).elements == (-1, 0, 1)

    def test_minimal_set_sumset(self, a1_set):
        s = sumset(a1_set)
        assert len(s) == 26
        assert sorted(set(range(29)) - set(s.elements)) == [1, 20, 27]
        assert list(s.elements) == naive_sumset(A1)

    def test_minimal_set_diffset(self, a1_set):
        d = diffset(a1_set)
        assert len(d) == 25
        assert [x for x in d if x > 0] == [1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 14]
        assert list(d.elements) == naive_diffset(A1)

    def test_ap_sumset(self):
        assert sumset(IntSet(tuple(range(5)))).elements == tuple(range(9))

    def test_sidon_triple(self):
        assert diffset(IntSet((0, 1, 3))).elements == (-3, -2, -1, 0, 1, 2, 3)

    def test_huge_diameter_sparse_path(self):
        # far too wide for the dense window; must fall back and stay exact
        a = IntSet((0, 1, 10**9))
        assert list(sumset(a).elements) == naive_sumset(a.elements)
        assert list(diffset(a).elements) == naive_diffset(a.elements)


class TestMaskEntry:
    def test_sizes_match_naive_on_both_paths(self):
        rng = random.Random(3)
        paths = set()
        for _ in range(400):
            els = sorted(rng.sample(range(rng.choice((24, 3000))), rng.randint(1, 8)))
            a = IntSet(tuple(els))
            want = (len(naive_sumset(els)), len(naive_diffset(els)))
            paths.add(_use_dense(len(a), a.diameter))
            assert mask_sizes(a.mask()[0]) == want
            # any order, repeats allowed
            assert sizes_of([*reversed(els), els[-1]]) == want
        assert paths == {True, False}

    def test_shifting_by_the_elements_matches_the_bit_walk(self):
        rng = random.Random(23)
        for _ in range(300):
            hi = rng.choice((8, 40, 600))
            els = rng.choices(range(-hi, hi), k=rng.randint(1, 12))  # unsorted, repeats
            lo = min(els)
            mask = sum(1 << (x - lo) for x in set(els))
            walked = setcore._sum_diff_masks(mask)
            assert setcore._sum_diff_masks(mask, els, lo) == walked, els

    def test_only_a_caller_holding_elements_shifts_by_them(self, monkeypatch):
        # sizes_of found each set bit of the mask it had just built from xs
        # again; mask_sizes holds only the mask, so it walks the bits
        calls, real = [], setcore._sum_diff_masks

        def spy(mask, els=None, lo=0):
            calls.append(els is not None)
            return real(mask, els, lo)

        els = random.Random(256).sample(range(1024), 256)
        want = (len(naive_sumset(els)), len(naive_diffset(els)))
        monkeypatch.setattr(setcore, "_sum_diff_masks", spy)
        assert sizes_of(els) == want
        assert mask_sizes(IntSet.from_iterable(els).mask()[0]) == want
        assert calls == [True, False]

    def test_from_mask_inverts_mask(self, a1_set):
        assert IntSet.from_mask(*a1_set.mask()) == a1_set
        assert IntSet.from_mask(0b1011, -2).elements == (-2, -1, 1)

    @given(
        st.integers(1, 1 << 40)
        | st.sets(st.integers(0, 5000), min_size=1, max_size=4).map(
            lambda bits: sum(1 << i for i in bits)  # mostly past the dense gate
        ),
        st.integers(0, 70),
    )
    def test_sizes_ignore_trailing_zero_bits(self, mask, shift):
        els = [i for i in range(mask.bit_length()) if mask >> i & 1]
        want = (len(naive_sumset(els)), len(naive_diffset(els)))
        assert mask_sizes(mask) == mask_sizes(mask << shift) == want

    @pytest.mark.parametrize("mask", [0, -1, -5, -6])
    def test_mask_sizes_refuses_non_positive_masks(self, mask):
        # 0 gave (0, -1); -6 did not return
        with pytest.raises(ValueError, match="positive"):
            mask_sizes(mask)

    def test_built_masks_are_never_decoded(self, monkeypatch):
        # past the dense gate, decoding the mask costs O(width) in Python
        def no_decode(*args):
            raise AssertionError("mask_sizes decoded its mask")

        monkeypatch.setattr(setcore, "_bit_indices", no_decode)
        for mask in (1 | 1 << 5000, 0b1011 << 7 | 1 << 40_000, 0b111 | 1 << 9000):
            els = [i for i in range(mask.bit_length()) if mask >> i & 1]
            assert not _use_dense(len(els), els[-1] - els[0])
            want = (len(naive_sumset(els)), len(naive_diffset(els)))
            assert mask_sizes(mask) == want
        report = explore_two_ap_unions(1, 1, 3000)
        assert report.passed and report.cases == 6001

    def test_sizes_of_goes_pairwise_on_a_window_wide_per_element(self, monkeypatch):
        # 2^21 bits for 256 elements: under 64 |A|^2, so it ran dense, ~12x
        # slower than pairwise; the gate is 512 bits per element
        def no_dense(mask):
            raise AssertionError("sizes_of ran the dense kernel")

        els = random.Random(21).sample(range(1 << 21), 256)
        want = (len(naive_sumset(els)), len(naive_diffset(els)))
        monkeypatch.setattr(setcore, "_sum_diff_masks", no_dense)
        assert sum_diff_sizes(IntSet.from_iterable(els)) == want

    @pytest.mark.parametrize("n, width", [(8, 4096), (32, 65536)])
    def test_sumset_and_diffset_decode_no_more_bits_than_pairs(
        self, monkeypatch, n, width
    ):
        # decoding a 2 x 4,096-bit sum mask took ~30x a pairwise build of 36
        # sums; each decodes only a mask no wider than its pairs
        def no_decode(*args):
            raise AssertionError("decoded a mask wider than the pairs")

        els = sorted(random.Random(n).sample(range(width), n))
        monkeypatch.setattr(setcore, "_bit_indices", no_decode)
        a = IntSet(tuple(els))
        assert list(sumset(a)) == naive_sumset(els)
        assert list(diffset(a)) == naive_diffset(els)

    def test_a_dense_window_stays_dense(self, monkeypatch):
        # the other side of all three gates: 1,024 bits for 256 elements
        def no_pairs(els):
            raise AssertionError("went pairwise on a dense window")

        els = sorted(random.Random(256).sample(range(1024), 256))
        sums, diffs = naive_sumset(els), naive_diffset(els)
        monkeypatch.setattr(setcore, "_pair_sums", no_pairs)
        monkeypatch.setattr(setcore, "_positive_diffs", no_pairs)
        a = IntSet(tuple(els))
        assert sum_diff_sizes(a) == (len(sums), len(diffs))
        assert list(sumset(a)) == sums and list(diffset(a)) == diffs

    def test_from_mask_refuses_negative_masks(self):
        with pytest.raises(ValueError, match="nonnegative"):
            IntSet.from_mask(-5)  # was {0, 2}
        assert IntSet.from_mask(0) == IntSet(())

    @pytest.mark.parametrize("lo", [2.0, 0.5, Fraction(1)])
    @pytest.mark.parametrize("mask", [0, 0b1011])
    def test_from_mask_refuses_a_non_integer_offset(self, mask, lo):
        with pytest.raises(TypeError):
            IntSet.from_mask(mask, lo)

    def test_ap_mask(self):
        ap = APSpec(7, 3, 4)
        assert IntSet(ap.elements()).mask()[0] == 0b1001001001


# one set per constructor, each with a dense and a pairwise window
_FRESH_SETS = {
    "IntSet-dense": lambda: IntSet((0, 2, 3, 4, 7, 11, 12, 14)),
    "IntSet-pairwise": lambda: IntSet((-5, 0, 1, 10**6)),
    "parse-dense": lambda: IntSet.parse("0,2,3,4,7,11,12,14"),
    "parse-pairwise": lambda: IntSet.parse("-5,0,1,1000000"),
    "from_iterable-dense": lambda: IntSet.from_iterable([14, 0, 2, 3, 4, 7, 11, 12, 2]),
    "from_iterable-pairwise": lambda: IntSet.from_iterable([10**6, 1, 0, -5, 1]),
    "from_mask-dense": lambda: IntSet.from_mask(0b101100010011101),
    "from_mask-pairwise": lambda: IntSet.from_mask(0b1100001 | 1 << 10**6 + 5, -5),
    "sumset-dense": lambda: sumset(IntSet((0, 1, 3, 7))),
    "sumset-pairwise": lambda: sumset(IntSet((0, 1, 10**6))),
    "diffset-dense": lambda: diffset(IntSet((0, 1, 3, 7))),
    "diffset-pairwise": lambda: diffset(IntSet((0, 1, 10**6))),
}


def _spy_on_counts(monkeypatch) -> Counter:
    """Count each set whose kept A+A and A-A an IntSet builds, by its elements."""
    counted = Counter()
    real = setcore._sum_diff_of

    def spy(els):
        counted[els] += 1
        return real(els)

    monkeypatch.setattr(setcore, "_sum_diff_of", spy)
    return counted


class TestStoredSizes:
    @pytest.mark.parametrize("name", _FRESH_SETS)
    def test_one_count_per_set(self, monkeypatch, name):
        # each of the four calls counted A again, and insertion_delta counted
        # A + {x} from scratch; sumset and diffset built A+A and A-A again
        a = _FRESH_SETS[name]()
        assert _use_dense(len(a), a.diameter) == name.endswith("-dense")
        x = next(i for i in count(a.min) if i not in a)
        counted = _spy_on_counts(monkeypatch)
        sizes = sum_diff_sizes(a)
        kind = classify(a)
        prof = profile(a)
        sums, diffs = sumset(a), diffset(a)
        delta = insertion_delta(a, x)
        assert counted == {a.elements: 1}
        els = list(a)
        naive = naive_sumset(els), naive_diffset(els)
        want = (len(naive[0]), len(naive[1]))
        grown = sorted(els + [x])
        grown_sums, grown_diffs = naive_sumset(grown), naive_diffset(grown)
        assert sizes == want == (prof.sum_size, prof.diff_size)
        assert kind is prof.set_class is SetClass.from_sizes(*want)
        assert (list(sums), list(diffs)) == naive
        assert delta.as_tuple() == (
            len(grown_sums) - want[0],
            (len(grown_diffs) - want[1]) // 2,
        )

    def test_a_wide_count_sorts_no_more_than_the_elements(self, monkeypatch):
        # the first count over a wide window sorted the A+A and the positive
        # differences it kept, 528 and 496 entries here, for callers that
        # wanted only the sizes; now sumset and diffset sort what they return
        els = sorted(random.Random(32).sample(range(1 << 24), 32))
        assert not _use_dense(len(els), els[-1] - els[0])
        lengths = []

        def spy(xs, **kw):
            out = sorted(xs, **kw)
            lengths.append(len(out))
            return out

        monkeypatch.setattr(setcore, "sorted", spy, raising=False)
        a = IntSet(tuple(els))
        want = (len(naive_sumset(els)), len(naive_diffset(els)))
        assert sum_diff_sizes(a) == want and sizes_of(els[::-1]) == want
        assert classify(a) is SetClass.from_sizes(*want)
        assert max(lengths, default=0) <= len(els)
        assert list(sumset(a)) == naive_sumset(els)
        assert list(diffset(a)) == naive_diffset(els)

    def test_the_stored_pair_is_invisible(self):
        counted, fresh = IntSet.parse("0,2,3,4,7,11,12,14"), IntSet(A1)
        assert sum_diff_sizes(counted) == (26, 25)
        assert vars(counted) != vars(fresh)  # the sets are kept on the instance
        assert counted == fresh and hash(counted) == hash(fresh)
        assert repr(counted) == repr(fresh) and str(counted) == str(fresh)
        assert dataclasses.asdict(counted) == {"elements": A1}

    @pytest.mark.parametrize("counted_first", [False, True], ids=["fresh", "counted"])
    def test_copies_have_the_same_sizes(self, counted_first):
        a = IntSet((-5, 0, 1, 10**6))
        want = (len(naive_sumset(list(a))), len(naive_diffset(list(a))))
        if counted_first:
            assert sum_diff_sizes(a) == want
        for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
            assert sum_diff_sizes(b) == want and classify(b) is classify(a)

    @pytest.mark.parametrize(
        "text, sizes, kind",
        [("0,2,3,4,7,11,12,14", (26, 25), "sum-dominant"),
         ("0,1,3,10000000", (10, 13), "difference-dominant")],
        ids=["dense", "sparse"],
    )
    def test_pickles_read_as_the_oracles(self, text, sizes, kind):
        # each read, on the set and on pickles made before and after its
        # first count, which keeps A+A and A-A for the pickle to carry
        a = IntSet.parse(text)
        before = pickle.loads(pickle.dumps(a))
        xs = list(a)
        sums, diffs = naive_sumset(xs), naive_diffset(xs)
        assert ((len(sums), len(diffs)), naive_class(xs)) == (sizes, kind)

        def grown(x):
            n = len(naive_sumset([*xs, x])), len(naive_diffset([*xs, x]))
            return n[0] - len(sums), (n[1] - len(diffs)) // 2

        want = (sizes, kind, sizes, sums, diffs, grown(5), grown(10**18))

        def reads(b):
            p = profile(b)
            return (
                sum_diff_sizes(b), classify(b).value, (p.sum_size, p.diff_size),
                list(sumset(b)), list(diffset(b)),
                insertion_delta(b, 5).as_tuple(), insertion_delta(b, 10**18).as_tuple(),
            )

        assert reads(a) == want
        after = pickle.loads(pickle.dumps(a))
        assert reads(after) == reads(before) == want
        assert after == before == a

    def test_replace_counts_its_new_elements(self, monkeypatch):
        a = IntSet(A1)
        assert sum_diff_sizes(a) == (26, 25)
        counted = _spy_on_counts(monkeypatch)
        b = dataclasses.replace(a, elements=[0, 1, 3])
        assert b == IntSet((0, 1, 3)) and sum_diff_sizes(b) == (6, 7)
        assert classify(b) is SetClass.DIFFERENCE_DOMINANT
        assert counted == {(0, 1, 3): 1}
        with pytest.raises(ValueError, match="strictly increasing"):
            dataclasses.replace(a, elements=(3, 1))

    def test_an_empty_set_raises_every_time_and_stores_nothing(self):
        empty = IntSet(())
        ops = (sum_diff_sizes, classify, profile, lambda a: insertion_delta(a, 0))
        for _ in range(2):
            for op in ops:
                with pytest.raises(EmptySetError):
                    op(empty)
        assert vars(empty) == {"elements": ()}

    def test_threads_counting_one_fresh_set_agree(self):
        els = random.Random(8).sample(range(1 << 30), 300)  # pairwise, ~45k pairs
        want = (len(naive_sumset(els)), len(naive_diffset(els)))
        a = IntSet.from_iterable(els)
        start = threading.Barrier(8, timeout=30)
        results = []

        def work():
            start.wait()
            results.append((classify(a), sum_diff_sizes(a)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-count
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert results == [(SetClass.from_sizes(*want), want)] * 8


class TestClassify:
    def test_minimal_sum_dominant(self, a1_set):
        assert classify(a1_set) is SetClass.SUM_DOMINANT

    def test_balanced_witness(self):
        a = IntSet((0, 1, 2, 4, 5))
        assert classify(a) is SetClass.BALANCED
        p = profile(a)
        assert (p.sum_size, p.diff_size) == (11, 11)

    def test_difference_dominant(self):
        a = IntSet((0, 1, 3))
        assert classify(a) is SetClass.DIFFERENCE_DOMINANT
        p = profile(a)
        assert (p.sum_size, p.diff_size) == (6, 7)


class TestProfile:
    def test_small_ap(self):
        p = profile(IntSet((0, 1, 2)))
        assert (p.size, p.sum_size, p.diff_size) == (3, 5, 5)
        assert p.set_class is SetClass.BALANCED
        assert p.symmetry_center == 2
        assert p.ap == APSpec(0, 1, 3)

    def test_minimal_set(self, a1_set):
        p = profile(a1_set)
        assert (p.size, p.sum_size, p.diff_size) == (8, 26, 25)
        assert p.set_class is SetClass.SUM_DOMINANT
        assert p.symmetry_center is None
        assert p.ap is None
        assert p.diameter == 14

    def test_symmetric_subset(self):
        p = profile(IntSet((0, 2, 3, 7, 11, 12, 14)))
        assert p.symmetry_center == 14
        assert p.set_class is SetClass.BALANCED

    def test_json_field_names(self):
        d = profile(IntSet((0, 1, 2))).to_json_dict()
        assert list(d) == [
            "size", "sum_size", "diff_size", "class", "equal_sum_pairs",
            "equal_diff_pairs", "diameter", "symmetry_center", "ap",
        ]
        assert d["class"] == "balanced"
        assert d["ap"] == {"first": 0, "step": 1, "length": 3}


class TestReflectCanonical:
    def test_prefers_lex_smaller(self):
        assert reflect_canonical(IntSet((0, 1, 3))).elements == (0, 1, 3)
        assert reflect_canonical(IntSet((0, 2, 3))).elements == (0, 1, 3)

    def test_minimal_set_orbit(self, a1_set):
        mirrored = IntSet(tuple(sorted(14 - e for e in A1)))
        assert reflect_canonical(a1_set) == a1_set
        assert reflect_canonical(mirrored) == a1_set

    def test_symmetric_fixed_point(self):
        assert reflect_canonical(IntSet((0, 1, 2))).elements == (0, 1, 2)

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            reflect_canonical(IntSet((1, 2)))
        with pytest.raises(ValueError):
            reflect_canonical(IntSet((0, 2, 4)))


class TestRationalSet:
    def test_scale_to_integers(self):
        r = RationalSet(IntSet((0, 2, 5)), 2)  # {0, 1, 5/2}
        ints, scale = scale_to_integers(r)
        assert ints.elements == (0, 2, 5)
        assert scale == 2

    def test_half_inserted_into_ap(self):
        r = RationalSet.from_fractions(
            [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(7, 2)]
        )
        ints, scale = scale_to_integers(r)
        assert ints.elements == (0, 2, 4, 6, 7)
        assert scale == 2

    def test_integer_identity(self):
        r = RationalSet.from_fractions([Fraction(0), Fraction(3)])
        ints, scale = scale_to_integers(r)
        assert ints.elements == (0, 3)
        assert scale == 1

    @pytest.mark.parametrize("x", [0.1, Decimal("0.1")], ids=["float", "decimal"])
    def test_from_fractions_refuses_inexact_numbers(self, x):
        # Fraction(0.1) is 3602879701896397/2**55, not 1/10
        with pytest.raises(TypeError):
            RationalSet.from_fractions([0, x])
        r = RationalSet.from_fractions([0, 2, Fraction(1, 10)])
        assert (r.numerators.elements, r.denominator) == ((0, 1, 20), 10)

    def test_normalization_is_value_preserving(self):
        r = RationalSet(IntSet((0, 2, 4)), 2)
        assert r.denominator == 1
        assert r.numerators.elements == (0, 1, 2)
        xs = [Fraction(0), Fraction(5, 2), Fraction(1)]
        r = RationalSet.from_fractions(xs)
        assert r.denominator == 2
        assert [Fraction(n, r.denominator) for n in r.numerators] == sorted(xs)

    def test_classification_invariant_under_scaling(self):
        r = RationalSet.from_fractions([0, Fraction(1, 2), Fraction(3, 2), 4])
        assert (r.numerators.elements, r.denominator) == ((0, 1, 3, 8), 2)
        assert classify(r.numerators) is classify(IntSet((0, 3, 9, 24)))  # times 3

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            RationalSet(IntSet((0, 1)), 0)


class TestSymmetryAndAP:
    def test_symmetric_examples(self):
        assert is_symmetric(IntSet((0, 1, 2, 10, 11, 12))) == 12
        assert is_symmetric(IntSet((0, 2, 3, 7, 11, 12, 14))) == 14
        assert is_symmetric(IntSet((0, 1, 3))) is None

    def test_detect_ap(self):
        assert detect_ap(IntSet((3, 7, 11))) == APSpec(3, 4, 3)
        assert detect_ap(IntSet((0, 5))) == APSpec(0, 5, 2)
        assert detect_ap(IntSet((0, 1, 3))) is None
        assert detect_ap(IntSet((5,))) == APSpec(5, 1, 1)

    @pytest.mark.parametrize(
        "fields",
        [(0, 1.5, 3), (0.5, 1, 3), (0, 1, 3.0), (Fraction(1, 2), 1, 3)],
        ids=["step", "first", "length", "fraction"],
    )
    def test_apspec_refuses_non_integers(self, fields):
        # APSpec(0, 1.5, 3) was built, and mask() then failed on 1 << 1.5
        with pytest.raises(TypeError):
            APSpec(*fields)

    def test_apspec_stores_index_types_as_plain_ints(self):
        # APSpec(True, 1, 2) gave "first":true, and an Index field made
        # render_json raise TypeError
        for ap in (APSpec(True, True, 2), APSpec(Index(1), Index(1), Index(2))):
            assert ap == APSpec(1, 1, 2) and ap.elements() == (1, 2)
            assert render_json(ap.to_json_dict()) == '{"first":1,"step":1,"length":2}'


# a translated and dilated progression plus 0-2 extras, negatives included
ap_plus_extras = st.builds(
    lambda first, step, length, extras: IntSet.from_iterable(
        [first + i * step for i in range(length)] + extras
    ),
    st.integers(-50, 50),
    st.integers(1, 6),
    st.integers(1, 12),
    st.lists(st.integers(-80, 120), max_size=2),
)


class TestApPlusTwo:
    def test_ap_with_two_extras(self):
        ap, extras = ap_plus_two_decomposition(IntSet((0, 1, 2, 3, 10, 20)))
        assert ap == APSpec(0, 1, 4)
        assert extras.elements == (10, 20)

    def test_minimal_set_has_no_split(self, a1_set):
        assert ap_plus_two_decomposition(a1_set) is None

    def test_pure_ap(self):
        ap, extras = ap_plus_two_decomposition(IntSet((0, 2, 4, 6)))
        assert ap == APSpec(0, 2, 4)
        assert extras.elements == ()

    def test_prefers_smallest_then_lex_extras(self):
        # any single removal of {0,1,3} leaves an AP; lex-smallest E wins
        ap, extras = ap_plus_two_decomposition(IntSet((0, 1, 3)))
        assert extras.elements == (0,)
        assert ap == APSpec(1, 2, 2)

    def test_matches_oracle_on_every_small_window(self):
        # every set with min 0 and diameter <= 12
        none = 0
        for mask in range(1 << 12):
            a = IntSet((0,) + tuple(i + 1 for i in range(12) if mask >> i & 1))
            split = ap_plus_two_decomposition(a)
            assert split == naive_ap_plus_two_decomposition(a), a
            none += split is None
        assert none == 2_891

    @pytest.mark.parametrize("size", [3, 4])
    def test_tie_break_matches_oracle(self, size):
        # a non-AP set of 3 has three one-element splits, and a 4-set often
        # several two-element ones; translated so elements go negative
        for rest in combinations(range(1, 9), size - 1):
            a = IntSet(tuple(e - 5 for e in (0, *rest)))
            if detect_ap(a) is None:
                split = ap_plus_two_decomposition(a)
                assert split == naive_ap_plus_two_decomposition(a), a

    @given(ap_plus_extras)
    def test_matches_oracle_on_progressions_plus_extras(self, a):
        assert ap_plus_two_decomposition(a) == naive_ap_plus_two_decomposition(a)

    def test_builds_a_constant_number_of_sets(self, monkeypatch):
        # one IntSet per one- or two-element removal made each call cubic
        a = IntSet(tuple(sorted(random.Random(256).sample(range(1024), 256))))
        built = []
        real, trusted = IntSet.__post_init__, IntSet._trusted

        def counted(self):
            built.append(self)
            real(self)

        def counted_trusted(cls, els):  # sets built sorted skip __post_init__
            built.append(els)
            return trusted(els)

        monkeypatch.setattr(IntSet, "__post_init__", counted)
        monkeypatch.setattr(IntSet, "_trusted", classmethod(counted_trusted))
        assert ap_plus_two_decomposition(a) is None
        assert len(built) <= 2

    def test_long_progression_with_extras_past_its_end(self):
        # the extras' indices come after ~2 million two-element removals
        ap = APSpec(-3000, 3, 1998)
        extras = IntSet((3000, 3005))
        a = IntSet(ap.elements() + extras.elements)
        assert ap_plus_two_decomposition(a) == (ap, extras)
