"""The CLI end to end, as a shell runs it: ``python -m mstd --json ...`` in a
child process, each run with the wall-clock bound it must finish in.

Every expected value is a literal or comes from the brute-force oracles in
conftest.py; none is computed by the package under test.
"""

import json
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import pytest

from conftest import A1, naive_diffset, naive_midpoint_triples, naive_profile, naive_sumset

A1_TEXT = ",".join(map(str, A1))
OBS6_NOTE = "exact on every set: 2*ESP - EDP = (T - |A|)/2, sum of T = {}"


def mstd_json(*argv, timeout=None):
    """The JSON that ``python -m mstd --json *argv`` prints, once it exits 0.

    ``timeout`` bounds the run in seconds: past it the child is killed and
    subprocess raises TimeoutExpired, which fails the test.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "mstd", "--json", *argv],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def literal(xs):
    return ",".join(map(str, xs))


def test_obs6_default_corpus():
    d = mstd_json("verify", "obs6", timeout=10)
    assert (d["cases"], d["violations"], d["notes"]) == (
        104_096, [], [OBS6_NOTE.format(1_000_866)]
    )


@pytest.mark.parametrize("seed, trials", [(7, 2000), (12345, 5000)])
def test_obs6_seeded_corpus(seed, trials):
    d = mstd_json(
        "--seed", str(seed), "verify", "obs6", "--trials", str(trials), timeout=10
    )
    # the corpus drawn with the stdlib: each subset of [0, 12] holding 0, then
    # `trials` draws of sample(range(65), randint(1, 12))
    rng = random.Random(seed)
    sets = [[i for i in range(13) if m >> i & 1] for m in range(1, 1 << 13, 2)]
    sets += [rng.sample(range(65), rng.randint(1, 12)) for _ in range(trials)]
    total = sum(naive_midpoint_triples(s) for s in sets)
    assert (d["cases"], d["violations"], d["notes"]) == (
        len(sets), [], [OBS6_NOTE.format(total)]
    )
    assert len(sets) == 4096 + trials


@pytest.mark.parametrize(
    "max_len, max_step, max_shift, cases",
    [(1, 1, 20000, 40_001), (3, 2, 3000, 162_027)],
    ids=["one-point-aps", "short-aps"],
)
def test_two_ap_grid_is_clean(max_len, max_step, max_shift, cases):
    d = mstd_json(
        "explore", "two-ap", "--max-len", str(max_len), "--max-step", str(max_step),
        "--max-shift", str(max_shift), timeout=10,
    )
    assert (d["cases"], d["violations"]) == (cases, [])


def test_classify_a_thousand_elements_spread_over_2e7():
    a = random.Random(11).sample(range(2 * 10**7), 1000)
    d = mstd_json("classify", literal(a), timeout=5)
    assert (d["sum_size"], d["diff_size"]) == (
        len(naive_sumset(a)), len(naive_diffset(a))
    ) == (496_383, 982_655)


# each literal as given on the command line, its profile fields (|A+A|, |A-A|,
# ESP, EDP, symmetry centre, AP), and the most pairs that share one
# difference: the two ranges take that tally to 254 and 255
PROFILES = {
    "random-256": (
        random.Random(23).sample(range(1024), 256),
        (1994, 2005, 347_475, 690_800, None, None), 75,
    ),
    "range-256": (
        list(range(256)),
        (511, 511, 1_389_888, 2_763_520, 255, {"first": 0, "step": 1, "length": 256}),
        255,
    ),
    "range-255": (
        list(range(255)),
        (509, 509, 1_373_632, 2_731_135, 254, {"first": 0, "step": 1, "length": 255}),
        254,
    ),
    "random-257": (
        random.Random(29).sample(range(1024), 257),
        (2019, 2033, 341_755, 679_538, None, None), 75,
    ),
    "powers-of-two": ([2**k for k in range(41)], (861, 1641, 0, 0, None, None), 1),
    "two-close-pairs": ([0, 1, 10**9 - 1, 10**9], (9, 9, 1, 2, 10**9, None), 2),
    "wide-ap": (
        [0, 10**9, 2 * 10**9],
        (5, 5, 1, 1, 2 * 10**9, {"first": 0, "step": 10**9, "length": 3}), 2,
    ),
}


@pytest.mark.parametrize("xs, fields, top", PROFILES.values(), ids=PROFILES)
def test_profile_fields(xs, fields, top):
    d = mstd_json("profile", literal(xs), timeout=5)
    a = sorted(xs)
    assert max(Counter(y - x for x, y in combinations(a, 2)).values()) == top
    got = tuple(
        d[k] for k in ("sum_size", "diff_size", "equal_sum_pairs",
                       "equal_diff_pairs", "symmetry_center", "ap")
    )
    assert got == naive_profile(a) == fields


@pytest.mark.parametrize(
    "argv, found",
    [
        (["search", "--size-max", "5", "--diameter-max", "30"],
         ([], 14_891, 0, None)),
        (["search", "--size-min", "8", "--size-max", "8", "--diameter-max", "22"],
         ([A1_TEXT], 85_426, 1, 8)),
        (["--workers", "2", "search", "--diameter-max", "24"],
         ([A1_TEXT], 8_392_453, 3455, 8)),
        (["--workers", "2", "search", "--diameter-max", "28"],
         ([A1_TEXT], 134_233_614, 59_108, 8)),
    ],
    ids=["size5-d30", "size8-d22", "d24-workers2", "d28-workers2"],
)
def test_search_sweep(argv, found):
    # (witnesses, classes examined, sum-dominant classes, least MSTD size)
    d = mstd_json(*argv)
    assert (
        [w["set"] for w in d["witnesses"]],
        d["sets_examined"],
        sum(t["sum_dominant"] for t in d["per_diameter"].values()),
        d["min_mstd_size"],
    ) == found


def test_checkpoint_records_list_every_set_they_count(tmp_path):
    path = tmp_path / "ck22.jsonl"
    d = mstd_json("--checkpoint", str(path), "search", "--diameter-max", "22")
    recs = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert all(list(rec) == ["partition_id", "sum_dominant"] for rec in recs)
    assert sum(len(rec["sum_dominant"]) for rec in recs) == 797
    assert [w["set"] for w in d["witnesses"]] == [A1_TEXT]
