"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line.  Determinism
comparisons (criterion 12) cover every deterministic byte of the reports;
wall-clock timing metadata (elapsed_ms) is excluded since it is not a
function of the inputs.
"""

import time
from contextlib import contextmanager

from mstd import IntSet, SetClass, classify, cardinality_bounds, sum_diff_sizes
from mstd.reports import render_json
from mstd.search import (
    SearchConfig,
    explore_two_ap_unions,
    find_min_mstd,
    scan_sum_dominant,
)
from mstd.structure import equal_diff_pairs, equal_sum_pairs
from mstd.verify import (
    GrowthSequence,
    Theorem3Params,
    exhaustive_translation_corpus,
    random_corpus,
    verify_ap_plus_two,
    verify_growth_criterion,
    verify_observation6,
    verify_proposition2,
    verify_size5_witnesses,
    verify_small_cardinality,
    verify_symmetric_balanced,
)
from conftest import A1, FIB13, GEO10

OBS6_TRIALS = 100_000
_PAYLOADS: dict[str, str] = {}


@contextmanager
def criterion(num, desc):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {desc}")


def _elapsed(t0):
    return time.perf_counter() - t0


def _timeless(report) -> dict:
    """The report's JSON dict without elapsed_ms, its one wall-clock field."""
    out = report.to_json_dict()
    del out["elapsed_ms"]
    return out


def payload_search14(workers=1):
    result = find_min_mstd(SearchConfig(diameter_max=14, workers=workers))
    return result, render_json(result.to_json_dict())


def payload_thm1(workers=1):
    report = verify_small_cardinality(5, 30, workers=workers)
    return report, render_json(_timeless(report))


def payload_sizes67(workers=1):
    examined, per_d, sd = scan_sum_dominant(
        SearchConfig(diameter_max=20, size_min=6, size_max=7, workers=workers)
    )
    payload = {
        "examined": examined,
        "per_diameter": {str(d): t for d, t in sorted(per_d.items())},
        "sum_dominant": [str(w) for w in sd],
    }
    return (examined, sd), render_json(payload)


def payload_thm2():
    report = verify_ap_plus_two(8, window=None, q_max=2)
    return report, render_json(_timeless(report))


def payload_prop2():
    report = verify_proposition2(20)
    return report, render_json(_timeless(report))


def payload_obs6():
    report = verify_observation6(OBS6_TRIALS)
    return report, render_json(_timeless(report))


def payload_bounds_corpus():
    checked = 0
    violations = 0
    for corpus in (
        exhaustive_translation_corpus(12),
        random_corpus(OBS6_TRIALS),
    ):
        for a in corpus:
            nsum, ndiff = sum_diff_sizes(a)
            max_sum, max_diff = cardinality_bounds(len(a))
            checked += 1
            if nsum > max_sum or ndiff > max_diff:
                violations += 1
    sidon = sum_diff_sizes(IntSet((0, 1, 3, 7)))
    payload = {"checked": checked, "violations": violations, "sidon": list(sidon)}
    return (checked, violations, sidon), render_json(payload)


def payload_lemma3():
    report = verify_symmetric_balanced(20)
    return report, render_json(_timeless(report))


def payload_thm3():
    fib = verify_growth_criterion(
        GrowthSequence(FIB13, 3),
        Theorem3Params(r=3, n=2, ell=5, m=1, window=(-50, 100)),
    )
    geo = verify_growth_criterion(
        GrowthSequence(GEO10, 2),
        Theorem3Params(r=2, n=2, ell=4, m=1, window=(-50, 100)),
    )
    blob = render_json(
        {
            "fib": _timeless(fib),
            "geo": _timeless(geo),
        }
    )
    return (fib, geo), blob


def payload_size5():
    report = verify_size5_witnesses()
    return report, render_json(_timeless(report))


def payload_twoap():
    report = explore_two_ap_unions(6, 5, 40)
    return report, render_json(_timeless(report))


def test_criterion_01_minimal_mstd_rediscovery():
    with criterion(1, "minimal sum-dominant set rediscovered at diameter <= 14"):
        t0 = time.perf_counter()
        result, blob = payload_search14()
        wall = _elapsed(t0)
        assert result.min_mstd_size == 8
        assert [w.elements for w, _ in result.witnesses] == [A1]
        prof = result.witnesses[0][1]
        assert (prof.sum_size, prof.diff_size) == (26, 25)
        assert wall < 60, f"took {wall:.1f}s"
        _PAYLOADS["search14"] = blob


def test_criterion_02_small_cardinality_slice():
    with criterion(2, "no sum-dominant set with size <= 5, diameter <= 30"):
        t0 = time.perf_counter()
        report, blob = payload_thm1()
        wall = _elapsed(t0)
        assert report.passed
        assert report.cases == 14891
        assert wall < 10, f"took {wall:.1f}s"
        _PAYLOADS["thm1"] = blob


def test_criterion_03_sizes_6_7_slice():
    with criterion(3, "no sum-dominant set with size in {6,7}, diameter <= 20"):
        t0 = time.perf_counter()
        (examined, sd), blob = payload_sizes67()
        wall = _elapsed(t0)
        assert sd == []
        assert examined == 27061
        assert wall < 300, f"took {wall:.1f}s"
        _PAYLOADS["sizes67"] = blob


def test_criterion_04_ap_plus_two_grid():
    with criterion(4, "I_n plus two rationals (q<=2) never sum-dominant, n <= 8"):
        t0 = time.perf_counter()
        report, blob = payload_thm2()
        wall = _elapsed(t0)
        assert report.passed
        assert report.cases == 10748
        assert wall < 120, f"took {wall:.1f}s"
        _PAYLOADS["thm2"] = blob


def test_criterion_05_insertion_delta_exactness():
    with criterion(5, "insertion deltas exact on all 190 cases, n <= 20"):
        t0 = time.perf_counter()
        report, blob = payload_prop2()
        wall = _elapsed(t0)
        assert report.passed and report.cases == 190
        assert wall < 1, f"took {wall:.2f}s"
        _PAYLOADS["prop2"] = blob


def test_criterion_06_equal_pair_inequality():
    with criterion(6, "2*equal_sum_pairs >= equal_diff_pairs on the full corpus"):
        report, blob = payload_obs6()
        assert report.passed
        assert report.cases == 4096 + OBS6_TRIALS
        _PAYLOADS["obs6"] = blob


def test_criterion_07_cardinality_bounds():
    with criterion(7, "size bounds hold corpus-wide; Sidon fixture attains them"):
        (checked, violations, sidon), blob = payload_bounds_corpus()
        assert violations == 0
        assert checked == 4096 + OBS6_TRIALS
        assert sidon == (10, 13) == cardinality_bounds(4)
        _PAYLOADS["bounds"] = blob


def test_criterion_08_symmetric_balanced():
    with criterion(8, "every symmetric set with diameter <= 20 is balanced"):
        t0 = time.perf_counter()
        report, blob = payload_lemma3()
        wall = _elapsed(t0)
        assert report.passed
        assert report.cases == 3070
        assert wall < 30, f"took {wall:.1f}s"
        _PAYLOADS["lemma3"] = blob


def test_criterion_09_growth_sequences():
    with criterion(9, "growth-sequence prefixes resist insertion, deficits hold"):
        t0 = time.perf_counter()
        (fib, geo), blob = payload_thm3()
        wall = _elapsed(t0)
        assert fib.passed and geo.passed
        fib_deficit = _deficit(FIB13)
        geo_deficit = _deficit(GEO10)
        assert fib_deficit == 45 and fib_deficit >= 15
        assert geo_deficit == 36 and geo_deficit >= 12
        for b in range(-50, 101):
            star = IntSet.from_iterable(FIB13 + (b,))
            assert classify(star) is not SetClass.SUM_DOMINANT
        assert wall < 5, f"took {wall:.1f}s"
        _PAYLOADS["thm3"] = blob


def _deficit(terms):
    nsum, ndiff = sum_diff_sizes(IntSet(terms))
    return ndiff - nsum


def test_criterion_10_size5_witnesses():
    with criterion(10, "both size-5 boundary sets balanced with 11 = 11"):
        report, blob = payload_size5()
        assert report.passed and report.cases == 2
        for els in ((0, 1, 3, 4, 5), (0, 1, 2, 4, 5)):
            a = IntSet(els)
            assert classify(a) is SetClass.BALANCED
            assert sum_diff_sizes(a) == (11, 11)
        _PAYLOADS["size5"] = blob


def test_criterion_11_two_ap_union_grid():
    with criterion(11, "no sum-dominant union of two APs on the stated grid"):
        t0 = time.perf_counter()
        report, blob = payload_twoap()
        wall = _elapsed(t0)
        assert report.passed
        assert report.cases == 43740
        assert wall < 300, f"took {wall:.1f}s"
        _PAYLOADS["twoap"] = blob


def test_criterion_12_determinism():
    with criterion(12, "reports byte-identical across reruns and worker counts"):
        reruns = {
            "search14": payload_search14()[1],
            "thm1": payload_thm1()[1],
            "sizes67": payload_sizes67()[1],
            "thm2": payload_thm2()[1],
            "prop2": payload_prop2()[1],
            "obs6": payload_obs6()[1],
            "bounds": payload_bounds_corpus()[1],
            "lemma3": payload_lemma3()[1],
            "thm3": payload_thm3()[1],
            "size5": payload_size5()[1],
            "twoap": payload_twoap()[1],
        }
        for key, blob in reruns.items():
            assert blob == _PAYLOADS[key], f"rerun of {key} differs"
        for key, fn in (
            ("search14", payload_search14),
            ("thm1", payload_thm1),
            ("sizes67", payload_sizes67),
        ):
            assert fn(workers=8)[1] == _PAYLOADS[key], f"{key} differs at workers=8"
