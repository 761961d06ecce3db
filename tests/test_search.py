import dataclasses
import inspect
import json
import multiprocessing
import re
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from mstd import (
    APSpec,
    IntSet,
    SetClass,
    ap_plus_two_decomposition,
    classify,
    is_symmetric,
    sum_diff_sizes,
)
from mstd import search, verify
from mstd.cli import main
from mstd.reports import render_json
from mstd.search import (
    SearchConfig,
    _canonical_classes,
    _partitions,
    _prefix_masks,
    _scan_partition,
    class_count,
    explore_min_additions,
    explore_two_ap_unions,
    find_min_mstd,
    iter_normalized,
    scan_sum_dominant,
)
from mstd.setcore import _bit_indices, mask_sizes
from conftest import (
    A1,
    Index,
    lex_canonical_classes,
    naive_diffset,
    naive_sumset,
    record_kernel,
)


class TestEnumeration:
    def test_diameter2(self):
        seen = [a.elements for a in iter_normalized(SearchConfig(2, 2))]
        assert seen == [(0, 1, 2)]

    def test_diameter3_order(self):
        # within a diameter the order is the walk's, not lexicographic
        seen = [a.elements for a in iter_normalized(SearchConfig(3, 3))]
        assert sorted(seen) == [(0, 1, 2, 3), (0, 1, 3)]

    def test_diameter0(self):
        assert [a.elements for a in iter_normalized(SearchConfig(0, 0))] == [(0,)]

    def test_raw_subset_count_for_size8_diameter14(self):
        raw = sum(
            1
            for interior in range(1 << 13)
            if bin(interior).count("1") == 6
        )
        assert raw == comb(13, 6) == 1716

    @pytest.mark.parametrize(
        "bounds", [(0, 12, None, None), (3, 12, 3, 5)], ids=["all", "size3to5"]
    )
    def test_matches_tuple_dfs_oracle(self, bounds):
        d_lo, d_hi, size_min, size_max = bounds
        config = SearchConfig(d_lo, d_hi, size_min=size_min, size_max=size_max)
        seen = [a.elements for a in iter_normalized(config)]
        # diameter ascending, then walk order: the same classes per diameter
        assert [els[-1] for els in seen] == sorted(els[-1] for els in seen)
        want = list(lex_canonical_classes(
            d_lo, d_hi, size_min or 1, size_max or d_hi + 1
        ))
        assert sorted(seen, key=lambda els: (els[-1], els)) == want

    @pytest.mark.parametrize("fixed", [2, 4, 6, 8])
    @pytest.mark.parametrize(
        "size_range", [None, (3, 5)], ids=["all", "size3to5"]
    )
    def test_partitions_match_tuple_dfs_oracle(self, monkeypatch, fixed, size_range):
        # keys that decide the fixed // 2 outer pairs, so the 2, 4, 6 or 8
        # outermost positions inside [0, d]; each class lands in the one
        # partition whose key its own first pairs spell
        t = fixed // 2
        monkeypatch.setattr(search, "_key_pairs", lambda d: t)
        decided = (1 << (2 * t)) - 1
        for d in range(2 * t + 1, 14):
            size_lo, size_hi = size_range or (1, d + 1)
            union = []
            key_bits = _prefix_masks(d, decided, t)[0]
            for _, j, _ in _partitions(SearchConfig(d, d)):
                for mask, nsum, ndiff in _canonical_classes(
                    d, j, t, size_lo, size_hi, cut=False
                ):
                    els = tuple(_bit_indices(mask))
                    assert nsum == len(naive_sumset(els)), els
                    assert ndiff == len(naive_diffset(els)), els
                    assert mask & key_bits == _prefix_masks(d, j, t)[0]
                    union.append(els)
            want = list(lex_canonical_classes(d, d, size_lo, size_hi))
            assert sorted(union) == want, d

    def test_canonical_classes_skip_the_outer_band(self):
        # the lemma the walk's bound rests on, checked on the oracle: with k
        # the least positive element, k <= d - k and nothing lies in (d - k, d)
        checked = 0
        for els in lex_canonical_classes(1, 14, 1, 15):
            d = els[-1]
            if len(els) < 3:
                continue  # {0, d}: no element strictly inside
            k = els[1]
            assert k <= d - k, els
            assert not [e for e in els if d - k < e < d], els
            checked += 1
        assert checked == 8_288

    @pytest.mark.parametrize(
        # key 0: neither of 1, d - 1; key 1: 1 alone; key 3: both
        "part, tallies",
        [
            ((17, 0, 1), (0, 8_255)),
            ((17, 1, 1), (1, 16_384)),
            ((17, 3, 1), (7, 8_256)),
            ((18, 0, 1), (3, 16_359)),
            ((18, 1, 1), (6, 32_768)),
            ((18, 3, 1), (12, 16_512)),
        ],
    )
    def test_partition_tallies(self, part, tallies):
        # checkpoint records are per partition: a resume only reaches the right
        # totals if no class moves between partitions.  The first figure is
        # the partition's sum-dominant classes, which its record lists; the
        # second is all classes of the partition
        d, j, t = part
        sd_masks = _scan_partition((d, j, t, 1, d + 1))
        assert all(nsum > ndiff for nsum, ndiff in map(mask_sizes, sd_masks))
        classes = len(_canonical_classes(d, j, t, 1, d + 1, cut=False))
        assert (len(sd_masks), classes) == tallies
        assert _partitions(SearchConfig(d, d)) == [
            (d, 0, 1), (d, 1, 1), (d, 3, 1)
        ]

    def test_canonical_uniqueness(self):
        # no two visited sets may share an affine class
        from mstd.setcore import is_normalized, reflect_canonical

        keys = set()
        for a in iter_normalized(SearchConfig(0, 10)):
            assert is_normalized(a)
            key = reflect_canonical(a).elements
            assert key not in keys
            keys.add(key)

    def test_every_visited_set_is_canonical(self):
        from mstd.setcore import is_normalized, reflect_canonical

        for a in iter_normalized(SearchConfig(0, 9)):
            assert is_normalized(a)
            assert reflect_canonical(a) == a

    def test_orbit_completeness(self):
        # classes of diameter d | D, weighted by reflection orbit size,
        # reconstruct the 2^(D-1) raw subsets of [0, D] containing 0 and D
        per_diameter = {}
        for a in iter_normalized(SearchConfig(1, 16)):
            orbit = 1 if is_symmetric(a) is not None else 2
            per_diameter.setdefault(a.diameter, []).append(orbit)
        for D in range(1, 17):
            total = sum(
                sum(per_diameter.get(d, []))
                for d in range(1, D + 1)
                if D % d == 0
            )
            assert total == 1 << (D - 1)

    def test_size_filters(self):
        config = SearchConfig(0, 12, size_min=6, size_max=7)
        sizes = {len(a) for a in iter_normalized(config)}
        assert sizes <= {6, 7}
        examined, _, _ = scan_sum_dominant(config)
        assert examined == len(list(iter_normalized(config)))

    def test_scan_matches_iterator_counts(self):
        for config in (SearchConfig(0, 11), SearchConfig(3, 9, size_max=4)):
            examined, per_d, _ = scan_sum_dominant(config)
            by_d = {}
            for a in iter_normalized(config):
                by_d[a.diameter] = by_d.get(a.diameter, 0) + 1
            assert examined == sum(by_d.values())
            assert {d: t["examined"] for d, t in per_d.items() if t["examined"]} == by_d


def _uncut_tallies(config):
    """(per-diameter tallies, sum-dominant sets) of the uncut walk over the
    sweep's partitions, each class classified by `mask_sizes`.

    The walk is looked up on the module at each call, so a test can swap it.
    """
    lo, hi = config.size_range()
    per_d = {
        d: {"examined": 0, "sum_dominant": 0}
        for d in range(config.diameter_min, config.diameter_max + 1)
    }
    found = []
    for d, j, t in _partitions(config):
        for mask, _, _ in search._canonical_classes(d, j, t, lo, hi, cut=False):
            per_d[d]["examined"] += 1
            nsum, ndiff = mask_sizes(mask)
            if nsum > ndiff:
                per_d[d]["sum_dominant"] += 1
                found.append(IntSet.from_mask(mask))
    found.sort(key=lambda a: (a.diameter, a.elements))
    return per_d, found


def _cut_and_uncut(config):
    """(per-diameter tallies, sum-dominant sets) of the sweep and of the uncut walk."""
    return [scan_sum_dominant(config)[1:], _uncut_tallies(config)]


def _mutated_walk(monkeypatch, old, new, name="_canonical_classes"):
    """Swap the walk (or the function ``name`` of the search module) for a
    copy of its source with ``old`` replaced by ``new``."""
    source = inspect.getsource(getattr(search, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(search))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(search, name, namespace[name])


class TestFringeCut:
    @pytest.mark.parametrize(
        "size_range, found",
        [((None, None), 189), ((3, 5), 0), ((8, 9), 7)],
        ids=["all", "size3to5", "size8to9"],
    )
    def test_cut_lists_what_the_uncut_walk_lists(self, size_range, found):
        # the sweep's examined counts are class_count's; the uncut walk's
        # are the classes it visits
        config = SearchConfig(0, 20, *size_range)
        cut, uncut = _cut_and_uncut(config)
        assert cut == uncut
        assert len(cut[1]) == found
        if found:
            assert "0,2,3,4,7,11,12,14" in map(str, cut[1])

    def test_sum_dominant_tallies_past_the_uncut_range(self):
        # the per-diameter counts the walk that visited every class gave
        examined, per_d, found = scan_sum_dominant(SearchConfig(21, 24, workers=2))
        assert per_d == {
            21: {"examined": 524_762, "sum_dominant": 191},
            22: {"examined": 1_049_071, "sum_dominant": 417},
            23: {"examined": 2_098_175, "sum_dominant": 874},
            24: {"examined": 4_195_230, "sum_dominant": 1_784},
        }
        assert (examined, len(found)) == (7_867_238, 3_266)

    def test_cut_list_is_the_uncut_list_filtered_by_each_leafs_bound(self):
        # at a leaf every sum is final, so the leaf's bound is |A+A| > |A-A|
        # and the cut walk lists exactly the sum-dominant classes, in walk
        # order, at the size cap too.  The list's length is the ``examined``
        # count a checkpoint records.  At d = 0 there is no walk: {0} is
        # balanced, so the cut lists nothing
        parts = _partitions(SearchConfig(0, 20))
        for lo, hi in ((1, None), (3, 5), (6, 8), (8, 9)):
            for d, j, t in parts:
                cap = d + 1 if hi is None else hi
                uncut = _canonical_classes(d, j, t, lo, cap, cut=False)
                want = [c for c in uncut if c[1] > c[2]]
                assert _canonical_classes(d, j, t, lo, cap) == want, (lo, hi, d, j)
        assert len(parts) == 43

    def test_cut_lists_only_the_sum_dominant_leaves(self):
        # 417 of the 1,049,071 classes of d = 22 are sum-dominant.  A leaf
        # bound that counts 2d - 2w + 1 open sums where none is open lists
        # 22,368
        listed = [
            c
            for d, j, t in _partitions(SearchConfig(22, 22))
            for c in _canonical_classes(d, j, t, 1, 23)
        ]
        assert len(listed) == 417
        assert all(nsum > ndiff for _, nsum, ndiff in listed)

    @pytest.mark.parametrize(
        "mutate",
        [
            # one open sum slot fewer than 2d - 2w + 1
            lambda fringes: [(final, slots - 1) for final, slots in fringes],
            # the top fringe one sum short: 2d - w + 1 not counted as final
            lambda fringes: [
                (final & ~(1 << (2 * (len(fringes) - 2) - w + 1)), slots)
                for w, (final, slots) in enumerate(fringes)
            ],
        ],
        ids=["open-slots", "top-fringe"],
    )
    def test_off_by_one_bound_fails_the_list_test(self, monkeypatch, mutate):
        real = search._fringes
        monkeypatch.setattr(search, "_fringes", lambda d: mutate(real(d)))
        # the step tables are cached per diameter: build them afresh from
        # the mutated fringes, and keep them out of the cache
        monkeypatch.setattr(search, "_steps", search._steps.__wrapped__)
        cut, uncut = _cut_and_uncut(SearchConfig(0, 20))
        assert cut != uncut
        assert set(map(str, cut[1])) < set(map(str, uncut[1]))

    def test_threshold_one_lower_fails_the_list_test(self, monkeypatch):
        # the one-popcount test with its threshold off - slots one lower: a
        # leaf with |A+A| = |A-A| passes, so the cut lists balanced classes
        _mutated_walk(
            monkeypatch, "final | dm, off - slots,", "final | dm, off - slots - 1,",
            name="_steps",
        )
        cut, uncut = _cut_and_uncut(SearchConfig(0, 20))
        assert cut != uncut
        assert set(map(str, cut[1])) > set(map(str, uncut[1]))

    @pytest.mark.parametrize("d, calls", [(18, 7_348), (22, 65_771)])
    def test_walk_call_count(self, d, calls):
        # the cut walk's calls over every partition of diameter d: a faster
        # step must not come from a different cut
        counted = 0

        def count(frame, event, arg):
            nonlocal counted
            if event == "call" and frame.f_code.co_name == "visit":
                counted += 1

        sys.setprofile(count)
        try:
            for _, j, t in _partitions(SearchConfig(d, d)):
                _canonical_classes(d, j, t, 1, d + 1)
        finally:
            sys.setprofile(None)
        assert counted == calls


class TestClassCount:
    def test_matches_the_oracle_at_every_size_range(self):
        for d in range(15):
            sizes = [len(els) for els in lex_canonical_classes(d, d, 1, 16)]
            for lo in range(1, 17):
                for hi in range(lo, 17):
                    want = sum(1 for k in sizes if lo <= k <= hi)
                    assert class_count(d, lo, hi) == want, (d, lo, hi)

    @pytest.mark.parametrize("d", [15, 16, 17, 18])
    def test_matches_the_uncut_walk(self, d):
        for lo, hi in ((1, d + 1), (3, 5), (6, 7), (8, 8)):
            walked = sum(
                len(_canonical_classes(d, j, t, lo, hi, cut=False))
                for _, j, t in _partitions(SearchConfig(d, d))
            )
            assert walked == class_count(d, lo, hi), (lo, hi)

    def test_known_totals(self):
        def total(d_max, hi=None):
            return sum(class_count(d, 1, hi or d_max + 1) for d in range(d_max + 1))

        assert total(22) == 2_099_048
        assert total(24) == 8_392_453
        assert total(30, 5) == 14_891  # the thm1 slices' case counts
        assert total(20, 7) == 29_982
        assert [class_count(d, 1, d + 1) for d in (25, 26)] == [8_390_646, 16_779_231]

    @pytest.mark.parametrize(
        "old, new, config",
        [
            ("if not tied and", "if False and", SearchConfig(17, 17)),
            ("if n >= size_hi:", "if n >= size_hi - 1:",
             SearchConfig(17, 17, size_max=5)),
            ("visit(x + 1, cx, am | ax, g, n + 1, tied)", "pass",
             SearchConfig(18, 18)),
            # two child tests in a size-capped walk, which takes the same steps
            ("if not tied and", "if False and", SearchConfig(17, 17, size_max=5)),
            ("if n + 2 <= size_hi and", "if n + 2 < size_hi and",
             SearchConfig(17, 17, size_max=5)),
        ],
        ids=["no-high-element-alone", "size-cap-one-lower", "no-midpoint",
             "capped-no-high-element-alone", "capped-both-one-lower"],
    )
    def test_kernel_mutation_trips_the_uncut_check(
        self, monkeypatch, old, new, config
    ):
        def walked():
            return {d: t["examined"] for d, t in _uncut_tallies(config)[0].items()}

        lo, hi = config.size_range()
        want = {
            d: class_count(d, lo, hi)
            for d in range(config.diameter_min, config.diameter_max + 1)
        }
        assert walked() == want
        _mutated_walk(monkeypatch, old, new)
        assert walked()[config.diameter_max] != want[config.diameter_max]


class TestFindMinMstd:
    def test_diameter14_unique_witness(self):
        result = find_min_mstd(SearchConfig(diameter_max=14))
        assert result.min_mstd_size == 8
        assert [w.elements for w, _ in result.witnesses] == [A1]
        prof = result.witnesses[0][1]
        assert (prof.sum_size, prof.diff_size) == (26, 25)

    def test_diameter13_empty(self):
        result = find_min_mstd(SearchConfig(diameter_max=13))
        assert result.min_mstd_size is None and result.witnesses == []

    def test_diameter14_size_capped(self):
        result = find_min_mstd(SearchConfig(diameter_max=14, size_max=7))
        assert result.min_mstd_size is None

    def test_sum_dominant_sets_are_not_ap_plus_two_or_symmetric(self):
        # the AP-plus-two theorem and the symmetric-implies-balanced lemma,
        # checked on every sum-dominant class the scan finds
        _, _, found = scan_sum_dominant(SearchConfig(diameter_max=20))
        assert len(found) == 189
        for a in found:
            assert ap_plus_two_decomposition(a) is None, a
            assert is_symmetric(a) is None, a

    @pytest.mark.parametrize("workers", [2, 8])
    def test_workers_do_not_change_results(self, workers):
        serial = find_min_mstd(SearchConfig(diameter_max=14)).to_json_dict()
        parallel = find_min_mstd(
            SearchConfig(diameter_max=14, workers=workers)
        ).to_json_dict()
        assert render_json(serial) == render_json(parallel)

    def test_json_schema(self):
        d = find_min_mstd(SearchConfig(diameter_max=8)).to_json_dict()
        assert list(d) == [
            "config", "min_mstd_size", "witnesses", "sets_examined", "per_diameter",
        ]
        assert list(d["config"]) == [
            "diameter_min", "diameter_max", "size_min", "size_max",
        ]
        assert list(d["per_diameter"]["8"]) == ["examined", "sum_dominant"]
        assert render_json(json.loads(render_json(d))) == render_json(d)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SearchConfig(diameter_min=5, diameter_max=3)
        with pytest.raises(ValueError):
            SearchConfig(size_min=4, size_max=2)
        with pytest.raises(ValueError):
            SearchConfig(workers=0)

    @pytest.mark.parametrize(
        "field", ["diameter_min", "diameter_max", "size_min", "size_max", "workers"]
    )
    def test_non_integer_field_is_refused(self, field):
        # size_max=5.0 ran, and wrote "size_max":5.0 into the JSON payload
        fields = {"diameter_max": 8, "size_max": 5, field: 5.0}
        with pytest.raises(TypeError):
            SearchConfig(**fields)
        with pytest.raises(TypeError):
            SearchConfig(**{**fields, field: Fraction(5)})
        SearchConfig(**{**fields, field: 5})

    def test_config_is_frozen(self):
        # a field set after the checks was never checked: size_max = 0 then
        # reported 0 sets examined and no size, with no error
        config = SearchConfig(diameter_max=6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.size_max = 0
        assert config.size_range() == (1, 7)

    def test_callers_build_their_config_once(self, monkeypatch, capsys):
        # the CLI and verify_small_cardinality pass every field to the
        # constructor, so each config is checked once, as it is used
        want = SearchConfig(diameter_max=9, size_max=5)
        built, check = [], SearchConfig.__post_init__
        monkeypatch.setattr(
            SearchConfig, "__post_init__", lambda c: (check(c), built.append(c))
        )
        assert main(["--json", "search", "--size-max", "5", "--diameter-max", "9"]) == 0
        assert json.loads(capsys.readouterr().out)["sets_examined"] == 127
        assert verify.verify_small_cardinality(5, 9).cases == 127
        assert built == [want, want]

    def test_index_fields_are_stored_as_plain_ints(self, tmp_path):
        # diameter_max=True printed "diameter_max":true, and an Index field
        # made render_json and the checkpoint header write raise TypeError
        result = find_min_mstd(SearchConfig(diameter_max=True))
        assert render_json(result.to_json_dict()).startswith(
            '{"config":{"diameter_min":0,"diameter_max":1,'
        )
        path = tmp_path / "ck.jsonl"
        fields = dict(diameter_min=2, diameter_max=8, size_min=3, size_max=5)
        config = SearchConfig(
            **{k: Index(v) for k, v in fields.items()},
            workers=Index(1),
            checkpoint_path=str(path),
        )
        assert all(type(getattr(config, k)) is int for k in [*fields, "workers"])
        want = find_min_mstd(SearchConfig(**fields)).to_json_dict()
        assert render_json(find_min_mstd(config).to_json_dict()) == render_json(want)
        assert json.loads(path.read_text().splitlines()[0])["config"] == fields


class TestCheckpoint:
    def test_full_resume_is_identity(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first = find_min_mstd(SearchConfig(diameter_max=12, checkpoint_path=path))
        lines = Path(path).read_text().splitlines()
        assert lines
        second = find_min_mstd(SearchConfig(diameter_max=12, checkpoint_path=path))
        assert render_json(first.to_json_dict()) == render_json(second.to_json_dict())
        assert Path(path).read_text().splitlines() == lines  # nothing re-scanned

    def test_a_resume_counts_only_the_witnesses(self, tmp_path):
        # each listed set was classified through its IntSet, which then kept
        # its sums and differences for the rest of the sweep; the loader
        # checks each from its elements, so only profile's witnesses keep them
        path = tmp_path / "ck.jsonl"
        config = SearchConfig(diameter_max=16, checkpoint_path=str(path))
        fresh = find_min_mstd(config)
        written = path.read_bytes()
        _, _, listed = scan_sum_dominant(config)
        assert path.read_bytes() == written  # resumed: nothing re-scanned
        assert len(listed) > len(fresh.witnesses) > 0
        assert [str(a) for a in listed if "_kept" in vars(a)] == []
        resumed = find_min_mstd(config)
        assert render_json(resumed.to_json_dict()) == render_json(fresh.to_json_dict())
        assert all("_kept" in vars(w) for w, _ in resumed.witnesses)

    def test_partial_resume_completes(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        fresh = find_min_mstd(SearchConfig(diameter_max=14))
        find_min_mstd(SearchConfig(diameter_max=14, checkpoint_path=path))
        lines = Path(path).read_text().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[: len(lines) // 2]) + "\n")
        resumed = find_min_mstd(SearchConfig(diameter_max=14, checkpoint_path=path))
        assert render_json(resumed.to_json_dict()) == render_json(fresh.to_json_dict())
        assert len(Path(path).read_text().splitlines()) == len(lines)

    def test_record_schema(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        find_min_mstd(SearchConfig(diameter_max=5, checkpoint_path=path))
        header, *records = Path(path).read_text().splitlines()
        assert json.loads(header) == {
            "format": 3,
            "config": {
                "diameter_min": 0, "diameter_max": 5,
                "size_min": None, "size_max": None,
            },
        }
        assert len(records) == 6
        for line in records:
            rec = json.loads(line)
            assert list(rec) == ["partition_id", "diameter", "tallies"]
            assert list(rec["tallies"]) == ["examined", "sum_dominant"]

    def test_checkpoint_of_another_config_is_refused(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        find_min_mstd(SearchConfig(diameter_max=14, size_max=5, checkpoint_path=path))
        written = Path(path).read_text()
        with pytest.raises(ValueError, match="another search"):
            find_min_mstd(SearchConfig(diameter_max=14, checkpoint_path=path))
        assert Path(path).read_text() == written
        # a file without the header (the record layout before it) is refused too
        with open(path, "w") as fh:
            fh.write("\n".join(written.splitlines()[1:]) + "\n")
        with pytest.raises(ValueError, match="another search"):
            find_min_mstd(SearchConfig(diameter_max=14, size_max=5, checkpoint_path=path))

    def test_worker_count_is_not_part_of_the_header(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first = find_min_mstd(SearchConfig(diameter_max=17, checkpoint_path=path))
        lines = Path(path).read_text().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:10]) + "\n")
        resumed = find_min_mstd(
            SearchConfig(diameter_max=17, workers=2, checkpoint_path=path)
        )
        assert render_json(resumed.to_json_dict()) == render_json(first.to_json_dict())
        assert Path(path).read_text().splitlines() == lines

    def test_torn_final_record_is_rescanned(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        fresh = find_min_mstd(SearchConfig(diameter_max=12))
        find_min_mstd(SearchConfig(diameter_max=12, checkpoint_path=path))
        complete = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(complete[:-20])
        resumed = find_min_mstd(SearchConfig(diameter_max=12, checkpoint_path=path))
        assert render_json(resumed.to_json_dict()) == render_json(fresh.to_json_dict())
        assert Path(path).read_bytes() == complete

    def test_bad_line_before_the_end_raises(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        find_min_mstd(SearchConfig(diameter_max=8, checkpoint_path=path))
        lines = Path(path).read_text().splitlines()
        lines[3] = lines[3][:-5]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4"):
            find_min_mstd(SearchConfig(diameter_max=8, checkpoint_path=path))

    @pytest.mark.parametrize(
        "bad",
        [
            '{"oops": 1}',
            "5",
            "[]",
            '{"partition_id": "ID", "diameter": 2, "tallies": 3}',
            '{"partition_id": "ID", "diameter": 2,'
            ' "tallies": {"examined": "1", "sum_dominant": []}}',
            '{"partition_id": "ID", "diameter": 2,'
            ' "tallies": {"examined": 1, "sum_dominant": 0}}',
            '{"partition_id": "ID", "diameter": 2,'
            ' "tallies": {"examined": 1, "sum_dominant": [0]}}',
        ],
        ids=[
            "no-fields", "int", "list", "tallies-int", "examined-str",
            "sum-dominant-int", "sum-dominant-of-ints",
        ],
    )
    def test_record_of_another_shape_raises(self, tmp_path, bad):
        path = str(tmp_path / "ck.jsonl")
        find_min_mstd(SearchConfig(diameter_max=6, checkpoint_path=path))
        lines = Path(path).read_text().splitlines()
        lines[3] = bad.replace("ID", json.loads(lines[3])["partition_id"])
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4 is not a partition record"):
            find_min_mstd(SearchConfig(diameter_max=6, checkpoint_path=path))

    def _with_extra_record(self, tmp_path, edit):
        """A whole d <= 6 checkpoint, plus an edited copy of its last record."""
        path = str(tmp_path / "ck.jsonl")
        find_min_mstd(SearchConfig(diameter_max=6, checkpoint_path=path))
        lines = Path(path).read_text().splitlines()
        rec = json.loads(lines[-1])
        edit(rec)
        with open(path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        return path, len(lines) + 1

    def test_second_record_of_a_partition_raises(self, tmp_path):
        path, line = self._with_extra_record(
            tmp_path, lambda rec: rec["tallies"].update(examined=0)
        )
        with pytest.raises(ValueError, match=f"line {line} repeats partition 6/0"):
            find_min_mstd(SearchConfig(diameter_max=6, checkpoint_path=path))

    @pytest.mark.parametrize(
        "field, value", [("partition_id", "99/0"), ("diameter", 5)],
        ids=["foreign-id", "other-diameter"],
    )
    def test_record_of_another_partition_raises(self, tmp_path, field, value):
        path, line = self._with_extra_record(
            tmp_path, lambda rec: rec.update({field: value})
        )
        with pytest.raises(
            ValueError, match=f"line {line} is not a partition of this search"
        ):
            find_min_mstd(SearchConfig(diameter_max=6, checkpoint_path=path))


    @pytest.mark.parametrize(
        "listed, examined, message",
        [
            (["0,1,2"], 16, "lists '0,1,2', not a sum-dominant set of diameter 6"),
            (["0,6"], 16, "lists '0,6', not a sum-dominant set of diameter 6"),
            (["x"], 16, "lists 'x': invalid token 'x'"),
            ([], -30, "examined -30 sets but lists 0"),
        ],
        ids=["other-diameter", "balanced", "unparseable", "negative"],
    )
    def test_record_with_unsound_tallies_raises(
        self, tmp_path, listed, examined, message
    ):
        path = str(tmp_path / "ck.jsonl")
        find_min_mstd(SearchConfig(diameter_max=6, checkpoint_path=path))
        lines = Path(path).read_text().splitlines()
        rec = json.loads(lines[-1])
        rec["tallies"].update(examined=examined, sum_dominant=listed)
        lines[-1] = json.dumps(rec)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line {len(lines)} {re.escape(message)}"):
            find_min_mstd(SearchConfig(diameter_max=6, checkpoint_path=path))

    def test_record_of_an_older_version_resumes(self, tmp_path):
        # versions before the exact leaf test wrote each partition's class
        # count as its examined count; such a file resumes to the same output
        path = str(tmp_path / "ck.jsonl")
        config = SearchConfig(diameter_max=14, checkpoint_path=path)
        fresh = render_json(find_min_mstd(config).to_json_dict())
        header, *lines = Path(path).read_text().splitlines()
        parts = {f"{d}/{j}": (d, j, t) for d, j, t in _partitions(config)}
        for i, line in enumerate(lines):
            rec = json.loads(line)
            d, j, t = parts[rec["partition_id"]]
            classes = len(_canonical_classes(d, j, t, 1, d + 1, cut=False))
            rec["tallies"]["examined"] = classes
            lines[i] = json.dumps(rec)
        old = "\n".join([header, *lines]) + "\n"
        assert sum(json.loads(line)["tallies"]["examined"] for line in lines) == sum(
            class_count(d, 1, d + 1) for d in range(15)
        )
        with open(path, "w") as fh:
            fh.write(old)
        assert render_json(find_min_mstd(config).to_json_dict()) == fresh
        assert Path(path).read_text() == old  # nothing re-scanned

    def test_record_listing_its_sum_dominant_sets_resumes(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first = find_min_mstd(SearchConfig(diameter_max=14, checkpoint_path=path))
        assert '"0,2,3,4,7,11,12,14"' in Path(path).read_text()  # A1, in record 14/0
        second = find_min_mstd(SearchConfig(diameter_max=14, checkpoint_path=path))
        assert render_json(second.to_json_dict()) == render_json(first.to_json_dict())

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the workers reach the test module's scan only as a forked copy",
    )
    def test_failing_record_write_stops_the_workers(self, tmp_path, monkeypatch):
        # a sweep whose result loop fails must not let the workers finish the
        # partitions still queued for them
        config = SearchConfig(
            diameter_max=20, workers=2, checkpoint_path=str(tmp_path / "ck.jsonl")
        )
        parts = len(_partitions(config))
        assert parts == 43
        log = tmp_path / "started.log"
        monkeypatch.setattr(search, "_scan_partition", _LoggedSlowScan(str(log)))
        write = search._record_line

        def failing_write(rec):
            if "partition_id" in rec:
                raise RuntimeError("disk full")
            return write(rec)  # the header

        monkeypatch.setattr(search, "_record_line", failing_write)
        with pytest.raises(RuntimeError, match="disk full"):
            scan_sum_dominant(config)
        started = len(log.read_text().splitlines())
        assert 0 < started < parts


class _LoggedSlowScan:
    """`_scan_partition` that appends a line to ``log`` as each partition starts
    and takes 50 ms longer; picklable, so a process pool can run it."""

    def __init__(self, log: str):
        self.log = log

    def __call__(self, args):
        with open(self.log, "a") as fh:
            fh.write(f"{args[0]}/{args[1]}\n")
        time.sleep(0.05)
        return _scan_partition(args)


def _two_ap_unions(max_len, max_step, max_shift):
    """The two-ap grid's unions as its IntSet path built them, with contexts."""
    for n1 in range(1, max_len + 1):
        for d1 in range(1, max_step + 1):
            first = APSpec(0, d1, n1).elements()
            for n2 in range(1, max_len + 1):
                for d2 in range(d1, max_step + 1):
                    for a2 in range(-max_shift, max_shift + 1):
                        second = APSpec(a2, d2, n2).elements()
                        yield (
                            IntSet.from_iterable(first + second),
                            f"AP(0,{d1},{n1}) + AP({a2},{d2},{n2})",
                        )


def _min_additions_tried(ap, k_max, window):
    """Each superset the IntSet path tried, up to each k's first sum-dominant one."""
    base = ap.elements()
    candidates = [x for x in range(window[0], window[1] + 1) if x not in base]
    tried = []
    for k in range(1, k_max + 1):
        for extra in combinations(candidates, k):
            tried.append(IntSet.from_iterable(base + extra))
            if classify(tried[-1]) is SetClass.SUM_DOMINANT:
                break
    return tried


def record_unions(monkeypatch, force=False):
    """Each case the two-ap grid counts, in order, as (union, sizes).

    The union is built from the parts and shift the grid hands
    `_shifted_union_sizes`.  With ``force`` every case gets the sizes
    (1, 0), so each case is a violation.
    """
    seen = []
    real = search._shifted_union_sizes

    def record(fe, ge, shifts):
        for s, nsum, ndiff in real(fe, ge, shifts):
            if force:
                nsum, ndiff = 1, 0
            union = IntSet.from_iterable(fe + tuple(s + y for y in ge))
            seen.append((union, (nsum, ndiff)))
            yield s, nsum, ndiff

    monkeypatch.setattr(search, "_shifted_union_sizes", record)
    return seen


class TestTwoApUnions:
    @pytest.mark.parametrize(
        # wide: {0, a2} with |a2| up to 300; the part masks are never gated
        "grid", [(6, 5, 40), (3, 2, 300)], ids=["default", "wide"]
    )
    def test_masks_match_the_intset_build(self, monkeypatch, grid):
        seen = record_unions(monkeypatch)
        report = explore_two_ap_unions(*grid)
        sets = [a for a, _ in _two_ap_unions(*grid)]
        assert report.passed and report.cases == len(sets)
        assert [u for u, _ in seen] == sets
        assert [sizes for _, sizes in seen] == [sum_diff_sizes(a) for a in sets]

    def test_forced_violations_keep_their_format(self, monkeypatch):
        record_unions(monkeypatch, force=True)
        report = explore_two_ap_unions(3, 2, 5)
        assert [(v["set"], v["context"]) for v in report.violations] == [
            (str(a), context) for a, context in _two_ap_unions(3, 2, 5)
        ]

    def test_disjoint_translates_balanced(self):
        u = IntSet.from_iterable((0, 1, 2, 10, 11, 12))
        assert classify(u) is SetClass.BALANCED
        assert is_symmetric(u) == 12

    def test_small_grid_clean(self):
        report = explore_two_ap_unions(3, 2, 10)
        assert report.passed
        # n1 * d1<=d2 pairs * n2 * shifts
        assert report.cases == 3 * 3 * 3 * 21

    def test_degenerate_singleton_second_ap(self):
        for d1 in range(1, 4):
            for n1 in range(1, 5):
                for m in range(-6, 10):
                    u = IntSet.from_iterable(
                        APSpec(0, d1, n1).elements() + (m,)
                    )
                    assert classify(u) is not SetClass.SUM_DOMINANT

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            explore_two_ap_unions(0, 1, 1)


class TestMinAdditions:
    def test_minimal_set_recovered_at_k5(self):
        report = explore_min_additions(APSpec(3, 4, 3), 5, (0, 14))
        assert report.passed  # nothing at k <= 2, so no violations
        assert report.notes == [
            "k=1: no sum-dominant superset",
            "k=2: no sum-dominant superset",
            "k=3: no sum-dominant superset",
            "k=4: no sum-dominant superset",
            "k=5: first sum-dominant superset 0,2,3,4,7,11,12,14 (added 0,2,4,12,14)",
        ]

    @pytest.mark.parametrize(
        "args",
        [(APSpec(3, 4, 3), 5, (0, 14)), (APSpec(5, 3, 4), 4, (-3, 9))],
        ids=["default", "other"],
    )
    def test_tuples_match_the_intset_build(self, monkeypatch, args):
        seen = record_kernel(monkeypatch, search, "sizes_of")
        report = explore_min_additions(*args)
        tried = _min_additions_tried(*args)
        assert report.passed and report.cases == len(tried)
        assert [IntSet.from_iterable(xs) for xs in seen] == tried

    def test_forced_hits_keep_their_format(self, monkeypatch):
        # every k hits at its first k-subset of the candidates 0,1,2,4,...
        record_kernel(monkeypatch, search, "sizes_of", force=True)
        report = explore_min_additions(APSpec(3, 4, 3), 3, (0, 14))
        assert report.notes == [
            "k=1: first sum-dominant superset 0,3,7,11 (added 0)",
            "k=2: first sum-dominant superset 0,1,3,7,11 (added 0,1)",
            "k=3: first sum-dominant superset 0,1,2,3,7,11 (added 0,1,2)",
        ]
        assert [(v["set"], v["context"]) for v in report.violations] == [
            ("0,3,7,11", "k=1 additions 0"),
            ("0,1,3,7,11", "k=2 additions 0,1"),
        ]

    def test_window_with_fewer_than_k_candidates(self):
        # 5 is the one candidate in [5, 5]: no 2-subset exists to be tried
        report = explore_min_additions(APSpec(3, 4, 3), 3, (5, 5))
        assert report.passed and report.cases == 1
        assert report.notes == [
            "k=1: no sum-dominant superset",
            "k=2: the window holds fewer than 2 candidates",
            "k=3: the window holds fewer than 3 candidates",
        ]

    def test_small_k_never_hits(self):
        report = explore_min_additions(APSpec(0, 1, 3), 2, (-5, 10))
        assert report.passed
        assert all("no sum-dominant superset" in n for n in report.notes)
