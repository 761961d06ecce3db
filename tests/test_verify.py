import random
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest

from mstd import IntSet, SetClass, classify, verify
from mstd.reports import DEFAULT_SEED, VerificationReport
from mstd.search import explore_min_additions, explore_two_ap_unions
from mstd.setcore import RationalSet, _use_dense
from mstd.verify import (
    GrowthSequence,
    Theorem3Params,
    exhaustive_translation_corpus,
    _symmetric_masks,
    random_corpus,
    verify_ap_plus_two,
    verify_growth_criterion,
    verify_insertion_deficit,
    verify_observation6,
    verify_proposition2,
    verify_size5_witnesses,
    verify_small_cardinality,
    verify_symmetric_balanced,
)
from conftest import FIB13, GEO10, Index, naive_midpoint_triples, record_kernel


class TestSmallCardinality:
    def test_singleton_grid(self):
        report = verify_small_cardinality(1, 0)
        assert report.passed and report.cases == 1

    def test_size7_diameter13(self):
        report = verify_small_cardinality(7, 13)
        assert report.passed

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            verify_small_cardinality(0, 5)

    def test_rejects_non_integer_bounds(self):
        # it reported the grid "size<=5.0"
        with pytest.raises(TypeError):
            verify_small_cardinality(5.0, 10)


class TestApPlusTwo:
    def test_small_grid_passes(self):
        report = verify_ap_plus_two(4)
        assert report.passed
        assert report.cases == sum(
            (10 * n + 1) * (10 * n + 2) // 2 for n in range(1, 5)
        )

    def test_single_insertion_mode(self):
        # x = y collapses to one inserted element
        report = verify_ap_plus_two(5, window=(6, 6), q_max=1)
        assert report.passed and report.cases == 5

    def test_half_integer_pair(self):
        # {0,1,2} + {1/2, 3/2} scales to an arithmetic progression
        from fractions import Fraction

        fracs = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]
        r = RationalSet.from_fractions(fracs)
        assert r.denominator == 2
        assert r.numerators.elements == (0, 1, 2, 3, 4)
        assert classify(r.numerators) is SetClass.BALANCED

    def test_subsumes_singleton_union_with_ap(self):
        # any AP plus one integer is never sum-dominant
        for d in range(1, 4):
            for n in range(1, 6):
                ap = IntSet(tuple(i * d for i in range(n)))
                for m in range(-8, 15):
                    u = IntSet.from_iterable(ap.elements + (m,))
                    assert classify(u) is not SetClass.SUM_DOMINANT


class TestInsertionDeficit:
    def test_quarter_case(self):
        report = verify_insertion_deficit(4, window=(0, 1), q_max=4)
        assert report.passed and report.cases > 0

    def test_integer_far_insertion(self):
        report = verify_insertion_deficit(2, window=(5, 5), q_max=1)
        assert report.passed and report.cases == 1

    def test_ap_extension_excluded(self):
        # x = n and x = -1 extend the progression, so the grid must skip them
        assert verify_insertion_deficit(2, window=(2, 2), q_max=1).cases == 0
        assert verify_insertion_deficit(2, window=(-1, -1), q_max=1).cases == 0
        # but x = n is a fine insertion point for the smaller n on the grid
        assert verify_insertion_deficit(3, window=(3, 3), q_max=1).cases == 1

    def test_members_excluded(self):
        report = verify_insertion_deficit(3, window=(0, 2), q_max=1)
        assert report.cases == 0

    def test_default_grid(self):
        report = verify_insertion_deficit(6)
        assert report.passed


def _thm2_points(n_max=8, window=None, q_max=2):
    """The (n, x, y) of a thm2 grid, in grid order (default: the default grid)."""
    return [
        (n, x, y)
        for n, vals in verify._grids(1, n_max, window, q_max)
        for i, x in enumerate(vals)
        for y in vals[i:]
    ]


def _deficit_points(n_max=8, window=None, q_max=4):
    """The (n, x) of a deficit grid, in grid order (default: the default grid)."""
    return [
        (n, x)
        for n, vals in verify._grids(2, n_max, window, q_max)
        for x in vals
        if verify.in_deficit_domain(n, x)
    ]


def _via_rational_set(n, xs):
    """The set build before the direct one: a gcd-normalised RationalSet."""
    return RationalSet.from_fractions([*range(n), *xs]).numerators


def _point_violation(n, *xs):
    """(witness literal, context) of a grid point, as reports print them."""
    context = " ".join([f"n={n}", *(f"{k}={v}" for k, v in zip("xy", xs))])
    return str(_via_rational_set(n, xs)), context


# the README's --case points: thm2 (n, x, y) and deficit (n, x)
README_CASES = [
    (5, Fraction(6), Fraction(6)),
    (3, Fraction(1, 2), Fraction(3, 2)),
    (4, Fraction(3, 4)),
]


class TestSetBuild:
    def test_direct_build_matches_rational_set_on_the_default_grids(self):
        thm2, deficit = _thm2_points(), _deficit_points()
        assert (len(thm2), len(deficit)) == (10_748, 833)
        for n, *xs in thm2 + deficit + README_CASES:
            built = IntSet.from_iterable(verify._segment_with(n, xs))
            assert built == _via_rational_set(n, xs)

    def test_direct_build_matches_rational_set_across_denominators(self):
        # denominators up to 6, so lcm(q1, q2) differs from max(q1, q2)
        # on pairs like 1/4 and 1/6
        for n, *xs in _thm2_points(4, (-1, 2), 6):
            built = IntSet.from_iterable(verify._segment_with(n, xs))
            assert built == _via_rational_set(n, xs)

    def test_explicit_point_with_a_huge_lcm_builds_no_mask(self):
        # L ~ 10^12: a mask of I_5 times L would need ~4 * 10^12 bits
        x, y = Fraction(1, 999_983), Fraction(1, 999_979)
        assert verify.ap_plus_two_violation(5, x, y) is None
        assert verify.insertion_deficit_violation(5, x) is None

    @pytest.mark.parametrize("x", [0.25, Decimal("0.25")], ids=["float", "decimal"])
    def test_point_predicates_refuse_inexact_numbers(self, x):
        # ap_plus_two_violation(3, 0.5, 1) raised AttributeError
        for call in (
            lambda: verify.ap_plus_two_violation(3, x, 1),
            lambda: verify.ap_plus_two_violation(3, Fraction(1, 4), x),
            lambda: verify.insertion_deficit_violation(3, x),
            lambda: verify.in_deficit_domain(3, x),
            lambda: verify.in_deficit_domain(1, x),
        ):
            with pytest.raises(TypeError):
                call()
        assert verify.ap_plus_two_violation(3, Fraction(1, 4), 1) is None
        assert verify.insertion_deficit_violation(3, Fraction(1, 4)) is None

    def test_deficit_domain_matches_the_half_offset_form(self):
        half = Fraction(1, 2)
        for grid in (verify._grids(1, 8, None, 2), verify._grids(0, 8, None, 4)):
            for n, vals in grid:
                for x in vals:
                    old = (
                        n >= 2
                        and (x - half).denominator != 1
                        and not (x.denominator == 1 and -1 <= x <= n)
                    )
                    assert verify.in_deficit_domain(n, x) == old


def _mirrored_halves(max_diameter):
    """Reference: lemma3's symmetric sets as IntSets from mirrored halves."""
    yield IntSet((0,))
    for d in range(1, max_diameter + 1):
        half = list(range(1, (d + 1) // 2))
        centers = ((), (d // 2,)) if d % 2 == 0 else ((),)
        for bits in range(1 << len(half)):
            chosen = [half[i] for i in range(len(half)) if (bits >> i) & 1]
            for c in centers:
                mirrored = [d - x for x in chosen]
                yield IntSet.from_iterable([0, d, *chosen, *mirrored, *c])


class TestMaskPaths:
    """Each grid hands the kernel the set its old IntSet path built.

    thm2 and deficit hand ``sizes_of`` the integers of each set, through
    the point predicates the ``--case`` path calls; lemma3 hands
    ``mask_sizes`` a mask.
    """

    @pytest.mark.parametrize(
        "grid",
        [(8, None, 2), (8, (-1, 2), 6), (2, (1100, 1150), 1)],
        # lcm: lcm(q1, q2) != max(q1, q2); wide: {0, x} with x >= 1024 fails
        # the dense gate (512 window bits per element) and goes pairwise
        ids=["default", "lcm", "wide"],
    )
    def test_thm2(self, monkeypatch, grid):
        seen = record_kernel(monkeypatch, verify, "sizes_of")
        report = verify_ap_plus_two(*grid)
        sets = [_via_rational_set(n, xs) for n, *xs in _thm2_points(*grid)]
        assert report.passed and report.cases == len(sets)
        assert [IntSet.from_iterable(xs) for xs in seen] == sets
        if grid[1] == (1100, 1150):
            assert any(not _use_dense(len(xs), max(xs) - min(xs)) for xs in seen)

    def test_deficit(self, monkeypatch):
        seen = record_kernel(monkeypatch, verify, "sizes_of")
        report = verify_insertion_deficit()
        sets = [_via_rational_set(n, xs) for n, *xs in _deficit_points()]
        assert report.passed and report.cases == len(sets) == 833
        assert [IntSet.from_iterable(xs) for xs in seen] == sets

    def test_lemma3(self, monkeypatch):
        seen = record_kernel(monkeypatch, verify)
        report = verify_symmetric_balanced(16)
        sets = list(_mirrored_halves(16))
        assert list(map(IntSet.from_mask, _symmetric_masks(16))) == sets
        assert report.passed and report.cases == len(sets)
        assert seen == [a.mask()[0] for a in sets]

    def test_forced_thm2_violations_keep_their_format(self, monkeypatch):
        record_kernel(monkeypatch, verify, "sizes_of", force=True)
        grid = (3, (-1, 2), 4)
        report = verify_ap_plus_two(*grid)
        assert [(v["set"], v["context"]) for v in report.violations] == [
            _point_violation(*p) for p in _thm2_points(*grid)
        ]
        case = verify.verify_points(
            "ap-plus-two", "cases", verify.ap_plus_two_violation, README_CASES[:2]
        )
        assert [(v["set"], v["context"]) for v in case.violations] == [
            _point_violation(*p) for p in README_CASES[:2]
        ]

    def test_forced_deficit_violations_keep_their_format(self, monkeypatch):
        record_kernel(monkeypatch, verify, "sizes_of", force=True)
        report = verify_insertion_deficit()
        cases = verify.verify_points(
            "insertion-deficit", "cases", verify.insertion_deficit_violation,
            README_CASES[2:],
        )
        got = [(v["set"], v["context"]) for v in report.violations + cases.violations]
        points = _deficit_points() + README_CASES[2:]
        assert got == [_point_violation(*p) for p in points]

    def test_forced_lemma3_violations_keep_their_format(self, monkeypatch):
        record_kernel(monkeypatch, verify, force=True)
        report = verify_symmetric_balanced(12)
        assert [(v["set"], v["context"]) for v in report.violations] == [
            (str(a), f"diameter={a.diameter}") for a in _mirrored_halves(12)
        ]

    def test_forced_thm3_violations_keep_their_format(self, monkeypatch):
        record_kernel(monkeypatch, verify, "sizes_of", force=True)
        terms = (0, 1, 3, 7, 15, 31, 63)  # a_k > 2 a_(k-1): growth margin 1
        params = Theorem3Params(r=1, n=2, ell=3, m=1, window=(-2, 3))
        report = verify_growth_criterion(GrowthSequence(terms, 1), params)
        want = [
            (str(IntSet(sub)), f"hypothesis subset size={k}")
            for k in range(1, 5)
            for sub in combinations(terms, k)
        ]
        want += [
            (str(IntSet.from_iterable(terms + (b,))), f"prefix + [{b}]")
            for b in range(-2, 4)
        ]
        assert [(v["set"], v["context"]) for v in report.violations] == want


class TestOnePointPath:
    def test_default_grids_call_the_point_predicates_once_per_case(
        self, monkeypatch
    ):
        # the grids reach the claim through the predicates --case calls
        calls = Counter()
        for name in ("ap_plus_two_violation", "insertion_deficit_violation"):
            real = getattr(verify, name)

            def counted(*point, name=name, real=real):
                calls[name] += 1
                return real(*point)

            monkeypatch.setattr(verify, name, counted)
        reports = [verify_ap_plus_two(), verify_insertion_deficit()]
        assert all(r.passed for r in reports)
        assert [r.cases for r in reports] == [10_748, 833]
        assert calls == {
            "ap_plus_two_violation": 10_748,
            "insertion_deficit_violation": 833,
        }

    def test_default_thm2_grid_checks_the_dense_gate_once_per_case(
        self, monkeypatch
    ):
        # sizes_of gates before it builds a mask, and then runs the dense
        # kernel on that mask without gating it again
        from mstd import setcore

        calls = []
        real = setcore._use_dense
        monkeypatch.setattr(
            setcore, "_use_dense", lambda *a: calls.append(a) or real(*a)
        )
        report = verify_ap_plus_two()
        assert report.passed and report.cases == len(calls) == 10_748


class TestNoSetPerCase:
    def test_default_grids_build_a_constant_number_of_sets(self, monkeypatch):
        # a set per case would put an IntSet back in the hot loops; the ones
        # left are the two thm3 prefixes and min-additions' first hit
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
        reports = [
            verify_ap_plus_two(),
            verify_insertion_deficit(),
            verify_symmetric_balanced(),
            *(
                verify_growth_criterion(
                    GrowthSequence(terms, r), Theorem3Params(r, n, ell)
                )
                for terms, r, n, ell in verify.GROWTH_PRESETS.values()
            ),
            explore_two_ap_unions(),
            explore_min_additions(),
        ]
        assert all(r.passed for r in reports)
        assert [r.cases for r in reports] == [
            10_748, 833, 98_302, 7_250, 999, 43_740, 940,
        ]
        assert len(built) <= 3


class TestProposition2:
    def test_full_sweep(self):
        report = verify_proposition2(20)
        assert report.passed and report.cases == 190

    def test_minimal(self):
        report = verify_proposition2(2)
        assert report.passed and report.cases == 1


class TestObservation6:
    def test_exhaustive_plus_random(self):
        report = verify_observation6(2000, seed=7)
        assert report.passed
        assert report.cases == 4096 + 2000
        assert report.seed == 7

    def test_note_sums_midpoint_triples(self):
        report = verify_observation6(2000, seed=7)
        corpus = [*exhaustive_translation_corpus(12), *random_corpus(2000, seed=7)]
        total = sum(naive_midpoint_triples(a.elements) for a in corpus)
        assert report.notes == [
            f"exact on every set: 2*ESP - EDP = (T - |A|)/2, sum of T = {total}"
        ]

    def test_one_extra_equal_sum_pair_fails(self, monkeypatch):
        # the inequality alone would pass this set; the identity does not
        from mstd import verify

        target = (0, 1, 2, 4)
        real = verify.pair_counter

        def skewed(lo, d):
            count = real(lo, d)

            def skewed_count(els):
                esp, edp, t = count(els)
                return (esp + 1 if tuple(els) == target else esp), edp, t

            return skewed_count

        esp, edp, _ = real(0, 4)(target)
        assert 2 * (esp + 1) >= edp
        monkeypatch.setattr(verify, "pair_counter", skewed)
        report = verify_observation6(1, seed=7)
        assert not report.passed
        assert [v["set"] for v in report.violations] == ["0,1,2,4"]
        assert report.violations[0]["context"].startswith("exhaustive #")

    @staticmethod
    def _skew_last_random_t(monkeypatch, trials):
        # obs6 run with T + 2 on the last random draw alone, which comes
        # unsorted; returns the report, the sorted draw and the windows run
        from mstd import verify

        *_, draw = verify._random_tuples(trials, 7)
        target = tuple(sorted(draw))
        assert draw != target
        real = verify.pair_counter
        runs = []

        def skewed(lo, d):
            count = real(lo, d)
            runs.append((lo, d))
            calls = iter(range(trials) if (lo, d) == (0, 64) else ())

            def skewed_count(els):
                esp, edp, t = count(els)
                return esp, edp, (t + 2 if next(calls, None) == trials - 1 else t)

            return skewed_count

        monkeypatch.setattr(verify, "pair_counter", skewed)
        return verify_observation6(trials, seed=7), target, runs

    def test_one_extra_midpoint_triple_fails(self, monkeypatch):
        # T is read apart from ESP, so a wrong T fails the identity; the
        # random draw comes unsorted, and its witness is the sorted set
        report, target, _ = self._skew_last_random_t(monkeypatch, 1)
        assert not report.passed
        assert [v["set"] for v in report.violations] == [str(IntSet(target))]
        assert report.violations[0]["context"].startswith("random #0: ")

    def test_skew_on_the_last_random_draw_keeps_its_label(self, monkeypatch):
        # each corpus is one run on its window, and the stream's index
        # reaches the label of its last draw
        report, target, runs = self._skew_last_random_t(monkeypatch, 300)
        assert runs == [(0, 12), (0, 64)]
        assert [v["set"] for v in report.violations] == [str(IntSet(target))]
        assert report.violations[0]["context"].startswith("random #299: ")

    def test_rejects_negative_max_diameter(self):
        # the corpus held {0}, of diameter 0, under the label "diameter<=-1"
        with pytest.raises(ValueError, match="max_diameter >= 0"):
            verify_observation6(10, max_diameter=-1)

    @pytest.mark.parametrize("max_diameter", range(9))
    def test_exhaustive_corpus_order(self, max_diameter):
        # obs6 labels its violations "exhaustive #i", so the order is pinned:
        # by diameter, then by the reversed element tuple (the mask's order)
        expected = [(0,)] + [
            (0, *mid, d)
            for d in range(1, max_diameter + 1)
            for mid in sorted(
                (c for k in range(d) for c in combinations(range(1, d), k)),
                key=lambda c: c[::-1],
            )
        ]
        got = [a.elements for a in exhaustive_translation_corpus(max_diameter)]
        assert got == expected

    def test_same_seed_same_corpus(self):
        a = [s.elements for s in random_corpus(50, seed=123)]
        b = [s.elements for s in random_corpus(50, seed=123)]
        assert a == b

    @pytest.mark.parametrize(
        "window, pool_sizes",
        [
            ((0, 64), range(6, 13)),  # the default: the set method for k <= 5
            ((0, 100), ()),  # the set method only
            ((-3, 10), range(1, 13)),  # the pool method only
        ],
    )
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 0, 7, -7, 2**70])
    def test_random_tuples_are_the_stdlib_stream(
        self, monkeypatch, window, pool_sizes, seed
    ):
        # the corpus draws through getrandbits; it must stay the stream of
        # randint and sample that the sum of T note and the sha256 pin down
        monkeypatch.setattr(verify, "RANDOM_SET_WINDOW", window)
        n = window[1] - window[0] + 1
        assert [k for k in range(1, 13) if verify._sample_uses_pool(n, k)] == [
            *pool_sizes
        ]
        rng = random.Random(seed)
        universe = range(window[0], window[1] + 1)
        expected = [
            tuple(sorted(rng.sample(universe, rng.randint(1, 12))))
            for _ in range(20_000)
        ]
        # the draws come unsorted; each is the stdlib's set
        got = [tuple(sorted(t)) for t in verify._random_tuples(20_000, seed)]
        assert got == expected

    def test_random_tuples_refuse_a_window_below_the_max_size(self, monkeypatch):
        monkeypatch.setattr(verify, "RANDOM_SET_WINDOW", (0, 10))
        with pytest.raises(ValueError, match="fewer than 12 integers"):
            next(verify._random_tuples(1, 7))

    def test_corpora_refuse_negative_bounds(self):
        # exhaustive failed on "negative shift count", random yielded nothing
        with pytest.raises(ValueError, match="need max_diameter >= 0"):
            exhaustive_translation_corpus(-1)
        with pytest.raises(ValueError, match="need trials >= 0"):
            random_corpus(-3)
        assert list(random_corpus(0)) == []

    def test_corpus_shapes(self):
        corpus = list(exhaustive_translation_corpus(5))
        assert len(corpus) == 1 + sum(2 ** (d - 1) for d in range(1, 6))
        for a in random_corpus(200, seed=1):
            assert 1 <= len(a) <= 12 and a.diameter <= 64


class TestSymmetricBalanced:
    def test_generator_members(self):
        sets14 = {IntSet.from_mask(m).elements for m in _symmetric_masks(14)}
        assert (0, 3) in sets14
        assert (0, 2, 3, 7, 11, 12, 14) in sets14
        sets10 = {IntSet.from_mask(m).elements for m in _symmetric_masks(10)}
        assert (0, 1, 5, 9, 10) in sets10

    def test_diameter20_passes(self):
        report = verify_symmetric_balanced(20)
        assert report.passed
        want = 1 + sum(
            (1 << max(0, (d + 1) // 2 - 1)) * (2 if d % 2 == 0 else 1)
            for d in range(1, 21)
        )
        assert report.cases == want


class TestGrowthCondition:
    def test_fibonacci_r3(self):
        assert GrowthSequence((0, 1, 2, 3, 5, 8, 13, 21), 3).r == 3

    def test_fibonacci_r2_fails(self):
        # 3 = a_4 is not > a_3 + a_2 = 2 + 1
        with pytest.raises(ValueError, match=r"a_\(k-r\) for r=2$"):
            GrowthSequence((0, 1, 2, 3, 5, 8, 13, 21), 2)

    def test_terms_from_a_list_are_stored_as_a_tuple(self):
        # a list of terms is stored as a tuple
        seq = GrowthSequence(list(FIB13), 3)
        assert seq == GrowthSequence(FIB13, 3) and seq.terms == FIB13
        assert hash(seq) == hash(GrowthSequence(FIB13, 3))

    def test_single_term_vacuous(self):
        GrowthSequence((4,), 1)
        GrowthSequence((0, 1), 2)  # no k >= r + 1

    def test_non_integer_terms_and_margin_are_refused(self):
        # a term of 2.5 constructed, and went on into the prefix checks
        for bad in (2.5, 2.0, Fraction(5, 2)):
            with pytest.raises(TypeError):
                GrowthSequence((0, 1, bad, 7), 1)
            with pytest.raises(TypeError):
                GrowthSequence(FIB13, bad)
        seq = GrowthSequence((False, True, Index(3), 7), Index(1))
        assert seq.terms == (0, 1, 3, 7) and seq.r == 1
        assert all(type(x) is int for x in (*seq.terms, seq.r))

    def test_sequence_validates_on_construction(self):
        with pytest.raises(ValueError):
            GrowthSequence((0, 1, 2, 3, 5, 8, 13, 21), 2)
        with pytest.raises(ValueError):
            GrowthSequence((3, 1, 2), 3)
        with pytest.raises(ValueError):
            GrowthSequence((-1, 5), 1)


class TestGrowthCriterion:
    def test_fibonacci_prefix_and_insertions(self):
        seq = GrowthSequence(FIB13, 3)
        params = Theorem3Params(r=3, n=2, ell=5, m=1, window=(-50, 100))
        report = verify_growth_criterion(seq, params)
        assert report.passed
        assert any("deficit" in note and "45" in note for note in report.notes)

    def test_geometric_prefix(self):
        seq = GrowthSequence(GEO10, 2)
        params = Theorem3Params(r=2, n=2, ell=4, m=1, window=(-50, 100))
        report = verify_growth_criterion(seq, params)
        assert report.passed

    def test_random_subsets_of_longer_sequence(self):
        fib16 = FIB13 + (377, 610, 987)
        seq = GrowthSequence(fib16, 3)
        params = Theorem3Params(r=3, n=2, ell=5, m=1, window=(-10, 20))
        report = verify_growth_criterion(seq, params, subset_budget=10, seed=5)
        assert report.passed and report.seed == 5

    def test_zero_ell_prefix(self):
        seq = GrowthSequence(FIB13[:8], 3)
        params = Theorem3Params(r=3, n=2, ell=0, m=0, window=(0, 0))
        report = verify_growth_criterion(seq, params)
        assert report.passed

    def test_inadmissible_raises_with_inequality(self):
        seq = GrowthSequence(FIB13, 3)
        params = Theorem3Params(r=3, n=2, ell=5, m=2, window=(-50, 100))
        with pytest.raises(ValueError, match="29 > 15"):
            verify_growth_criterion(seq, params)

    def test_window_must_hold_m_integers(self):
        with pytest.raises(ValueError, match=r"m=2 .* \[0,0\] holds 1$"):
            Theorem3Params(r=1, n=5, ell=10, m=2, window=(0, 0))
        for m in (0, 1):
            assert Theorem3Params(r=1, n=5, ell=10, m=m, window=(0, 0)).m == m
        assert Theorem3Params(r=1, n=5, ell=10, m=2, window=(0, 1)).m == 2

    @pytest.mark.parametrize("field", ["r", "n", "ell", "m", "lo", "hi"])
    def test_non_integer_field_is_refused(self, field):
        # m=1.0 passed fib13 and printed "m=1.0" and "14.0 < 15"; ell=5.0
        # ran the pre-checks and then failed on a slice index
        fields = dict(r=3, n=2, ell=5, m=1, lo=-50, hi=100)

        def build(**changed):
            f = {**fields, **changed}
            return Theorem3Params(
                f["r"], f["n"], f["ell"], f["m"], window=(f["lo"], f["hi"])
            )

        for bad in (float(fields[field]), Fraction(fields[field])):
            with pytest.raises(TypeError):
                build(**{field: bad})
        params = build(**{field: Index(fields[field])})
        assert params == build()
        assert all(type(getattr(params, k)) is int for k in ("r", "n", "ell", "m"))
        assert all(type(x) is int for x in params.window)

    def test_bool_m_is_stored_as_an_int(self):
        # m=True printed "m=True" in the report's grid
        params = Theorem3Params(3, 2, 5, m=True)
        assert type(params.m) is int and params == Theorem3Params(3, 2, 5, m=1)
        report = verify_growth_criterion(GrowthSequence(FIB13, 3), params)
        assert report.passed and "m=1," in report.grid
        assert "m*|S|+m(m+1)/2 = 14 < 15" in " ".join(report.notes)

    def test_mismatched_r_rejected(self):
        seq = GrowthSequence(FIB13, 3)
        params = Theorem3Params(r=2, n=2, ell=5, m=1, window=(0, 1))
        with pytest.raises(ValueError):
            verify_growth_criterion(seq, params)


class TestSize5Witnesses:
    def test_both_balanced(self):
        report = verify_size5_witnesses()
        assert report.passed and report.cases == 2

    def test_i5_balanced(self):
        assert classify(IntSet(tuple(range(5)))) is SetClass.BALANCED


class TestReportClock:
    def test_elapsed_ms_counts_from_the_reports_own_start(self, monkeypatch):
        before = time.perf_counter()
        report = VerificationReport(check="c", grid="g")
        assert before <= report.started <= time.perf_counter()
        monkeypatch.setattr(time, "perf_counter", lambda: report.started + 1.2345)
        assert report.finish() is report
        assert report.elapsed_ms == 1234

    def test_start_is_not_part_of_the_record(self):
        a = VerificationReport(check="c", grid="g")
        b = VerificationReport(check="c", grid="g")
        b.started = a.started + 1.0
        assert a == b and repr(a) == repr(b)
        assert "started" not in a.to_json_dict()

    def test_summary_line_gives_cases_per_second(self):
        report = VerificationReport(
            check="c", grid="g", cases=104_096, elapsed_ms=1_250
        )
        assert report.summary_line() == (
            "c: PASS — 104096 cases over g in 1250 ms, 83276 cases/s"
        )
        report.elapsed_ms = 0  # under 1 ms: no rate, and no division by zero
        assert report.summary_line() == "c: PASS — 104096 cases over g in 0 ms"


class TestReportDeterminism:
    def test_reports_reproduce(self):
        a = verify_observation6(500, seed=42).to_json_dict()
        b = verify_observation6(500, seed=42).to_json_dict()
        del a["elapsed_ms"], b["elapsed_ms"]
        assert a == b

    def test_structure_open_question_small_sizes(self):
        # sum-dominance at sizes 4 and 5 would force many equal differences;
        # no counterexample appears on the exhaustive corpus
        from mstd.structure import equal_diff_pairs

        for a in exhaustive_translation_corpus(12):
            if classify(a) is SetClass.SUM_DOMINANT:
                if len(a) == 4:
                    assert equal_diff_pairs(a) >= 3
                if len(a) == 5:
                    assert equal_diff_pairs(a) >= 5
