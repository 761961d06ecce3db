"""The benchmark's workloads, their correctness checks and the layer probes.

mstd is driven only from outside, through the public functions of
``mstd.search``, ``mstd.verify``, ``mstd.setcore``, ``mstd.structure``,
``mstd.reports`` and ``mstd.cli``.  All load comes from this one process: the
search pool runs at most two workers, and subprocesses start one at a time.

Workloads (why each exists is in README.md):

- ``sweep``: one fixed exhaustive search, driven four ways (one worker; two
  workers writing a checkpoint; a resume from that checkpoint; the CLI with
  its default prunes).
- ``verify``: the twelve grid reports of ``scripts/verify_all.py``, called as
  library functions on the same grids.
- ``interactive``: a seeded corpus of set literals in four size classes,
  through the library, the in-process CLI and CLI cold starts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from mstd import cli, setcore, structure, verify
from mstd.reports import render_json
from mstd.search import (
    SearchConfig,
    explore_min_additions,
    explore_two_ap_unions,
    find_min_mstd,
    iter_normalized,
    scan_sum_dominant,
)
from mstd.setcore import APSpec, IntSet, RationalSet

WITNESS = "0,2,3,4,7,11,12,14"
FIB13 = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)
GEO10 = tuple(5**k * 3 ** (9 - k) for k in range(10))

# Size classes of the interactive corpus: (name, |A|, window).  The window of
# n32sparse is far wider than 64 * |A|^2 bits, so setcore takes its hashed
# pairwise path there instead of the dense bitmask.
CLASSES = (
    ("n8", 8, 20),
    ("n32", 32, 128),
    ("n256", 256, 1024),
    ("n32sparse", 32, 1 << 24),
)
AP2_CLASSES = ("n8", "n32")
PAIR_CLASSES = ("n8", "n32", "n256")
SETCORE_CALLS = ("sum_diff_sizes", "classify", "profile", "sumset", "diffset", "parse")
CLI_COMMANDS = ("classify", "profile", "explain")

VERIFY_LABELS = (
    "verify.thm1_size5",
    "verify.thm1_size7",
    "verify.thm2",
    "verify.deficit",
    "verify.prop2",
    "verify.obs6",
    "verify.lemma3",
    "verify.thm3_fib13",
    "verify.thm3_geo10",
    "verify.size5",
)
EXPLORE_LABELS = ("search.explore_two_ap", "search.explore_min_additions")


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one benchmark scale and the exact results they give."""

    name: str
    sweep_d: int
    cli_d: int
    sweep_examined: int
    sweep_sum_dominant: int
    cli_examined: int
    min_size: int | None
    witnesses: tuple[str, ...]
    thm1: tuple[tuple[int, int], tuple[int, int]]
    thm2_n: int
    obs6: tuple[int, int]  # trials, exhaustive max diameter
    two_ap: tuple[int, int, int]
    verify_cases: tuple[tuple[str, int], ...]
    corpus: tuple[int, ...]  # literals per entry of CLASSES
    cli_per_class: int
    cold_starts: int
    cold_start_output: tuple[str, int, int]  # class, sum_size, diff_size
    setup_probes: int
    scan_ds: tuple[int, ...]
    iter_d: int  # one of scan_ds: its class count is checked against the scan's
    pool_d: int
    pool_pairs: int
    import_probes: int


FULL = Scale(
    name="full",
    sweep_d=22,
    cli_d=16,
    sweep_examined=2_099_048,
    sweep_sum_dominant=797,
    cli_examined=32_974,
    min_size=8,
    witnesses=(WITNESS,),
    thm1=((5, 30), (7, 20)),
    thm2_n=8,
    obs6=(100_000, 12),
    two_ap=(6, 5, 40),
    verify_cases=(
        ("verify.thm1_size5", 14_891),
        ("verify.thm1_size7", 29_982),
        ("verify.thm2", 10_748),
        ("verify.deficit", 833),
        ("verify.prop2", 190),
        ("verify.obs6", 104_096),
        ("verify.lemma3", 3_070),
        ("verify.thm3_fib13", 7_250),
        ("verify.thm3_geo10", 999),
        ("verify.size5", 2),
        ("search.explore_two_ap", 43_740),
        ("search.explore_min_additions", 940),
    ),
    corpus=(400, 100, 40, 100),
    cli_per_class=5,
    cold_starts=15,
    cold_start_output=("sum-dominant", 26, 25),
    setup_probes=9,
    scan_ds=(18, 19, 20, 21, 22),
    iter_d=18,
    pool_d=12,
    pool_pairs=5,
    import_probes=5,
)

# Tiny sizes for the harness's own tests: every path and check runs, fast.
SMOKE = Scale(
    name="smoke",
    sweep_d=10,
    cli_d=10,
    sweep_examined=529,
    sweep_sum_dominant=0,
    cli_examined=529,
    min_size=None,
    witnesses=(),
    thm1=((5, 10), (7, 8)),
    thm2_n=2,
    obs6=(100, 6),
    two_ap=(3, 3, 5),
    verify_cases=(
        ("verify.thm1_size5", 187),
        ("verify.thm1_size7", 129),
        ("verify.thm2", 297),
        ("verify.deficit", 833),
        ("verify.prop2", 190),
        ("verify.obs6", 164),
        ("verify.lemma3", 3_070),
        ("verify.thm3_fib13", 7_250),
        ("verify.thm3_geo10", 999),
        ("verify.size5", 2),
        ("search.explore_two_ap", 594),
        ("search.explore_min_additions", 940),
    ),
    corpus=(4, 3, 2, 3),
    cli_per_class=1,
    cold_starts=2,
    cold_start_output=("sum-dominant", 26, 25),
    setup_probes=2,
    scan_ds=(6, 7, 8, 9, 10),
    iter_d=8,
    pool_d=8,
    pool_pairs=1,
    import_probes=1,
)

SCALES = {"full": FULL, "smoke": SMOKE}


def end_to_end_units(workload: str) -> dict[str, str]:
    """Every end-to-end metric the workload prints, with its unit.

    The first four exist on every workload and are the ones the result line
    carries: times in reference seconds (see refclock.py).  The raw wall
    times, the host's mean calibration slice and the rest are printed and
    recorded too.
    """
    units = {"setup_s": "s", "wall_ref_s": "s", "cases_per_ref_s": "1/s",
             "peak_rss_mb": "MB", "wall_s": "s", "cases_per_s": "1/s",
             "setup_wall_s": "s", "slice_ms": "ms"}
    if workload == "sweep":
        units.update(par_wall_s="s", cli_search_s="s")
    if workload == "interactive":
        units["cold_start_ms"] = "ms"
    units["fail_frac"] = "ratio"
    return units


RESULT_METRICS = ("setup_s", "wall_ref_s", "cases_per_ref_s", "peak_rss_mb")


def per_layer_names(scale: Scale) -> list[str]:
    """Every per-layer metric a traced run emits, in report order."""
    names = [f"setcore.{f}.{c}.us" for f in SETCORE_CALLS for c, _, _ in CLASSES]
    names += [f"setcore.ap_plus_two_decomposition.{c}.us" for c in AP2_CLASSES]
    names += ["setcore.rational_scale.us"]
    names += [
        f"structure.{f}.{c}.us"
        for f in ("equal_sum_pairs", "equal_diff_pairs")
        for c in PAIR_CLASSES
    ]
    names += ["structure.insertion_delta.n32.us"]
    names += ["search.cli.examined", "search.cli.pruned", "search.cli.prune_yield"]
    for d in scale.scan_ds:
        names += [f"search.scan.d{d}.s", f"search.scan.d{d}.classes_per_s"]
    names += [f"search.iter_normalized.d{scale.iter_d}.classes_per_s"]
    names += [
        "search.pool.overhead_ms",
        "search.pool.cpu_util",
        "search.find_min_mstd.workers2.s",
        "search.checkpoint.records",
        "search.checkpoint.bytes",
        "search.resume_ms",
    ]
    names += [f"{label}.s" for label in EXPLORE_LABELS]
    for label in VERIFY_LABELS:
        names += [f"{label}.s", f"{label}.cases"]
    names += ["reports.render_json.us"]
    names += ["cli.import_ms", "cli.cold_start_ms", "cli.main.search.s"]
    names += [f"cli.main.{c}.us" for c in CLI_COMMANDS]
    names += ["bench.trace_overhead_s"]
    return names


COUNT_SUFFIXES = (".cases", ".records", ".bytes", ".examined", ".pruned")


def layer_unit(name: str) -> str:
    if name.endswith(".us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".classes_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    return "ratio"


class Tally:
    """Correctness checks.  Each check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.names: set[str] = set()
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.names.add(name)
        if not ok:
            self.failed += 1
            if len(self.failures) < 100:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def _parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def run_cli(tr, name: str, argv: list[str]) -> tuple[int, str]:
    """``mstd.cli.main`` in this process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = tr.call(name, cli.main, argv)
    return rc, buf.getvalue()


def subprocess_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def timed_subprocess(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc


# --------------------------------------------------------------------- sweep

class Sweep:
    """The fixed search problem, driven four ways per round."""

    name = "sweep"

    def __init__(self, scale: Scale, seed: int, root: str, out_dir: str):
        self.scale = scale
        self.out_dir = out_dir
        self.cfg1 = SearchConfig(diameter_max=scale.sweep_d)
        self.cli_argv = ["--json", "search", "--diameter-max", str(scale.cli_d)]

    def checks(self) -> set[str]:
        return {
            "sweep.min_size", "sweep.witness", "sweep.examined",
            "sweep.sum_dominant", "sweep.workers2_identical",
            "sweep.resume_identical", "sweep.cli_exit", "sweep.cli_examined",
            "sweep.cli_witness",
        }

    def one_pass(self, tr, tally: Tally, clock) -> dict:
        scale = self.scale
        sample = {}
        workdir = tempfile.mkdtemp(prefix="sweep-", dir=self.out_dir)
        try:
            ckpt = os.path.join(workdir, "sweep.jsonl")
            cfg2 = SearchConfig(
                diameter_max=scale.sweep_d, workers=2, checkpoint_path=ckpt
            )
            with tr.span("sweep.phase1"), clock.region() as timed:
                r1 = tr.call("search.find_min_mstd.workers1", find_min_mstd, self.cfg1)
            sample.update(wall_s=timed.wall_s, wall_ref_s=timed.ref_s,
                          slice_s=timed.slice_s)
            with tr.span("sweep.phase2"):
                cpu0 = os.times()
                t0 = time.perf_counter()
                r2 = tr.call("search.find_min_mstd.workers2", find_min_mstd, cfg2)
                sample["par_wall_s"] = wall = time.perf_counter() - t0
                cpu1 = os.times()
            busy = sum(cpu1[:4]) - sum(cpu0[:4])  # user, system, children's too
            sample["cpu_util"] = busy / (wall * 2)
            sample["checkpoint_bytes"] = os.path.getsize(ckpt)
            with open(ckpt, encoding="utf-8") as fh:
                sample["checkpoint_records"] = sum(1 for line in fh if line.strip())
            with tr.span("sweep.phase3"):
                t0 = time.perf_counter()
                r3 = tr.call("search.find_min_mstd.resume", find_min_mstd, cfg2)
                sample["resume_ms"] = (time.perf_counter() - t0) * 1000
        finally:
            shutil.rmtree(workdir)
        with tr.span("sweep.phase4"):
            t0 = time.perf_counter()
            rc, out = run_cli(tr, "cli.main.search", self.cli_argv)
            sample["cli_search_s"] = time.perf_counter() - t0

        doc1 = render_json(r1.to_json_dict())
        witnesses = tuple(str(w) for w, _ in r1.witnesses)
        sd = sum(t["sum_dominant"] for t in r1.per_diameter.values())
        tally.check("sweep.min_size", r1.min_mstd_size == scale.min_size,
                    f"{r1.min_mstd_size} != {scale.min_size}")
        tally.check("sweep.witness", witnesses == scale.witnesses, str(witnesses))
        tally.check("sweep.examined", r1.sets_examined == scale.sweep_examined,
                    f"{r1.sets_examined} != {scale.sweep_examined}")
        tally.check("sweep.sum_dominant", sd == scale.sweep_sum_dominant,
                    f"{sd} != {scale.sweep_sum_dominant}")
        tally.check("sweep.workers2_identical", render_json(r2.to_json_dict()) == doc1)
        tally.check("sweep.resume_identical", render_json(r3.to_json_dict()) == doc1)
        tally.check("sweep.cli_exit", rc == 0, f"exit {rc}")
        payload = _parse_json(out) or {}
        examined = payload.get("sets_examined")
        tally.check("sweep.cli_examined", examined == scale.cli_examined,
                    f"{examined} != {scale.cli_examined}")
        cli_witnesses = tuple(w["set"] for w in payload.get("witnesses", ()))
        tally.check(
            "sweep.cli_witness",
            cli_witnesses == scale.witnesses
            and payload.get("min_mstd_size") == scale.min_size,
            str(cli_witnesses),
        )
        sample["cases"] = r1.sets_examined
        sample["cli_examined"] = examined or 0
        # the prune tally goes away with the prunes; report 0 then
        sample["cli_pruned"] = payload.get("sets_pruned", 0)
        return sample

    def after(self, tr, tally: Tally) -> dict:
        return {}


# -------------------------------------------------------------------- verify

class Verify:
    """The twelve reports of scripts/verify_all.py, on the same grids."""

    name = "verify"

    def __init__(self, scale: Scale, seed: int, root: str, out_dir: str):
        s = scale
        fib = verify.GrowthSequence(FIB13, 3)
        fib_params = verify.Theorem3Params(r=3, n=2, ell=5, m=1, window=(-50, 100))
        geo = verify.GrowthSequence(GEO10, 2)
        geo_params = verify.Theorem3Params(r=2, n=2, ell=4, m=1, window=(-50, 100))
        self.expected = dict(s.verify_cases)
        self.reports = (
            ("verify.thm1_size5", lambda: verify.verify_small_cardinality(*s.thm1[0])),
            ("verify.thm1_size7", lambda: verify.verify_small_cardinality(*s.thm1[1])),
            ("verify.thm2", lambda: verify.verify_ap_plus_two(s.thm2_n)),
            ("verify.deficit", lambda: verify.verify_insertion_deficit(8)),
            ("verify.prop2", lambda: verify.verify_proposition2(20)),
            ("verify.obs6", lambda: verify.verify_observation6(
                s.obs6[0], seed=seed, max_diameter=s.obs6[1])),
            ("verify.lemma3", lambda: verify.verify_symmetric_balanced(20)),
            ("verify.thm3_fib13", lambda: verify.verify_growth_criterion(
                fib, fib_params, seed=seed)),
            ("verify.thm3_geo10", lambda: verify.verify_growth_criterion(
                geo, geo_params, seed=seed)),
            ("verify.size5", verify.verify_size5_witnesses),
            ("search.explore_two_ap", lambda: explore_two_ap_unions(*s.two_ap)),
            ("search.explore_min_additions", lambda: explore_min_additions(
                APSpec(3, 4, 3), 5, (0, 14))),
        )

    def checks(self) -> set[str]:
        return {f"{label}.{what}" for label, _ in self.reports
                for what in ("passed", "cases")}

    def one_pass(self, tr, tally: Tally, clock) -> dict:
        done = []
        with clock.region() as timed:
            for label, run in self.reports:
                done.append((label, tr.call(label, run)))
        sample = {"wall_s": timed.wall_s, "wall_ref_s": timed.ref_s,
                  "slice_s": timed.slice_s}
        for label, report in done:
            tally.check(f"{label}.passed", report.passed, report.summary_line())
            tally.check(f"{label}.cases", report.cases == self.expected[label],
                        f"{report.cases} != {self.expected[label]}")
            sample[f"{label}.cases"] = report.cases
        sample["cases"] = sum(r.cases for _, r in done)
        return sample

    def after(self, tr, tally: Tally) -> dict:
        return {}


# --------------------------------------------------------------- interactive

def _naive(els: tuple[int, ...]) -> tuple[set, set]:
    return {x + y for x in els for y in els}, {x - y for x in els for y in els}


def _is_ap(xs: list[int]) -> bool:
    return all(xs[i + 1] - xs[i] == xs[1] - xs[0] for i in range(len(xs) - 1))


def _has_ap_plus_two(els: tuple[int, ...]) -> bool:
    n = len(els)
    for k in range(3):
        for drop in combinations(range(n), k):
            kept = [e for i, e in enumerate(els) if i not in drop]
            if kept and _is_ap(kept):
                return True
    return False


class Interactive:
    """Set literals through the library, the in-process CLI and cold starts."""

    name = "interactive"

    def __init__(self, scale: Scale, seed: int, root: str, out_dir: str):
        self.scale = scale
        self.env = subprocess_env(root)
        rng = random.Random(seed)
        self.items = []  # (class, literal, insertion point)
        self.cli_calls = []  # (command, argv, item index)
        for (cls, n, window), count in zip(CLASSES, scale.corpus):
            first = len(self.items)
            for _ in range(count):
                els = sorted(rng.sample(range(window), n))
                x = rng.randrange(window)
                while x in els:
                    x = rng.randrange(window)
                self.items.append((cls, ",".join(map(str, els)), x))
            for i in range(first, first + scale.cli_per_class):
                for cmd in CLI_COMMANDS:
                    self.cli_calls.append((cmd, ["--json", cmd, self.items[i][1]], i))
        self.calls = sum(8 + (cls in AP2_CLASSES) for cls, _, _ in self.items)
        self.calls += len(self.cli_calls)
        self.expected = None

    def checks(self) -> set[str]:
        return {
            "interactive.parse", "interactive.sum_diff_sizes", "interactive.classify",
            "interactive.profile", "interactive.render_json", "interactive.sumset",
            "interactive.diffset", "interactive.insertion_delta",
            "interactive.ap_plus_two", "interactive.cli_exit", "interactive.cli_json",
            "interactive.cli_values", "interactive.cold_start_exit",
            "interactive.cold_start_output",
        }

    def one_pass(self, tr, tally: Tally, clock) -> dict:
        out = []
        with clock.region() as timed:
            self._calls(tr, out)
            cli_out = [run_cli(tr, f"cli.main.{cmd}", argv)
                       for cmd, argv, _ in self.cli_calls]
        self._check(out, cli_out, tally)
        return {"wall_s": timed.wall_s, "wall_ref_s": timed.ref_s,
                "slice_s": timed.slice_s, "cases": self.calls}

    def _calls(self, tr, out: list):
        call = tr.call
        for cls, literal, x in self.items:
            a = call(f"setcore.parse.{cls}", IntSet.parse, literal)
            sizes = call(f"setcore.sum_diff_sizes.{cls}", setcore.sum_diff_sizes, a)
            kind = call(f"setcore.classify.{cls}", setcore.classify, a)
            prof = call(f"setcore.profile.{cls}", setcore.profile, a)
            doc = call("reports.render_json", render_json, prof.to_json_dict())
            sums = call(f"setcore.sumset.{cls}", setcore.sumset, a)
            diffs = call(f"setcore.diffset.{cls}", setcore.diffset, a)
            delta = call(f"structure.insertion_delta.{cls}", structure.insertion_delta, a, x)
            split = None
            if cls in AP2_CLASSES:
                split = call(f"setcore.ap_plus_two_decomposition.{cls}",
                             setcore.ap_plus_two_decomposition, a)
            out.append((a, sizes, kind, prof, doc, sums, diffs, delta, split))

    def _oracle(self) -> list:
        expected = []
        for cls, literal, x in self.items:
            els = tuple(int(t) for t in literal.split(","))
            sums, diffs = _naive(els)
            sums_x, diffs_x = _naive(tuple(sorted(els + (x,))))
            kind = ("sum-dominant" if len(sums) > len(diffs) else
                    "difference-dominant" if len(sums) < len(diffs) else "balanced")
            expected.append((
                els, (len(sums), len(diffs)), kind, tuple(sorted(sums)),
                tuple(sorted(diffs)),
                (len(sums_x) - len(sums), (len(diffs_x) - len(diffs)) // 2),
                cls in AP2_CLASSES and _has_ap_plus_two(els),
            ))
        return expected

    def _check(self, out, cli_out, tally: Tally):
        if self.expected is None:
            self.expected = self._oracle()  # once, outside every timed region
        for (cls, _lit, _x), got, want in zip(self.items, out, self.expected):
            a, sizes, kind, prof, doc, sums, diffs, delta, split = got
            els, want_sizes, want_kind, want_sums, want_diffs, want_delta, has_split = want
            tally.check("interactive.parse", a.elements == els)
            tally.check("interactive.sum_diff_sizes", sizes == want_sizes,
                        f"{cls} {sizes} != {want_sizes}")
            tally.check("interactive.classify", kind.value == want_kind)
            tally.check(
                "interactive.profile",
                (prof.size, prof.sum_size, prof.diff_size, prof.set_class.value)
                == (len(els), *want_sizes, want_kind),
            )
            tally.check("interactive.render_json", _parse_json(doc) == prof.to_json_dict())
            tally.check("interactive.sumset", sums.elements == want_sums)
            tally.check("interactive.diffset", diffs.elements == want_diffs)
            tally.check("interactive.insertion_delta", delta.as_tuple() == want_delta)
            if cls in AP2_CLASSES:
                if split is None:
                    ok = not has_split
                else:
                    ap, extra = split
                    ok = (len(extra) <= 2
                          and sorted(ap.elements() + extra.elements) == list(els))
                tally.check("interactive.ap_plus_two", ok, f"{cls} {split}")
        for (cmd, _argv, i), (rc, text) in zip(self.cli_calls, cli_out):
            tally.check("interactive.cli_exit", rc == 0, f"{cmd} exit {rc}")
            payload = _parse_json(text)
            if not tally.check("interactive.cli_json", isinstance(payload, dict), cmd):
                continue
            els, want_sizes = self.expected[i][0], self.expected[i][1]
            if cmd == "explain":
                ok = payload.get("gaps") == [b - a for a, b in zip(els, els[1:])]
            else:
                ok = (payload.get("sum_size"), payload.get("diff_size")) == want_sizes
            tally.check("interactive.cli_values", ok, cmd)

    def after(self, tr, tally: Tally) -> dict:
        """Sequential CLI cold starts, run last."""
        argv = [sys.executable, "-m", "mstd", "--json", "classify", WITNESS]
        want = self.scale.cold_start_output
        times = []
        for _ in range(self.scale.cold_starts):
            elapsed, proc = timed_subprocess(argv, self.env)
            times.append(elapsed * 1000)
            tally.check("interactive.cold_start_exit", proc.returncode == 0,
                        f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            payload = _parse_json(proc.stdout) or {}
            got = (payload.get("class"), payload.get("sum_size"), payload.get("diff_size"))
            tally.check("interactive.cold_start_output", got == want, str(got))
        return {"cold_start_ms": times}


WORKLOADS = {w.name: w for w in (Sweep, Verify, Interactive)}


def repeat(workload, tr, tally: Tally, clock, seconds: float) -> list[dict]:
    """Run whole passes while another one still fits in ``seconds`` (at least one)."""
    samples = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            samples.append(workload.one_pass(tr, tally, clock))
        except Exception as exc:  # a crash is a failed operation, not a lost run
            traceback.print_exc()
            tally.check(f"{workload.name}.raised", False, repr(exc))
            break
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    return samples


# -------------------------------------------------------------- layer probes

def layer_probes(scale: Scale, seed: int, interactive: Interactive, tr,
                 tally: Tally, env: dict) -> dict:
    """Calls into single layers that no workload pass makes on its own."""
    values = {}
    examined_at = {}
    for d in scale.scan_ds:
        cfg = SearchConfig(diameter_min=d, diameter_max=d)
        t0 = time.perf_counter()
        examined = tr.call(f"search.scan.d{d}", scan_sum_dominant, cfg)[0]
        took = time.perf_counter() - t0
        examined_at[d] = examined
        values[f"search.scan.d{d}.s"] = took
        values[f"search.scan.d{d}.classes_per_s"] = examined / took

    d = scale.iter_d
    cfg = SearchConfig(diameter_min=d, diameter_max=d)
    t0 = time.perf_counter()
    classes = tr.call(f"search.iter_normalized.d{d}",
                      lambda: sum(1 for _ in iter_normalized(cfg)))
    values[f"search.iter_normalized.d{d}.classes_per_s"] = classes / (time.perf_counter() - t0)
    tally.check("probe.iter_matches_scan", classes == examined_at[d],
                f"{classes} != {examined_at[d]}")

    gaps = []
    for _ in range(scale.pool_pairs):
        docs = []
        took = []
        for workers in (1, 2):
            cfg = SearchConfig(diameter_max=scale.pool_d, workers=workers)
            t0 = time.perf_counter()
            result = tr.call(f"search.pool.workers{workers}", find_min_mstd, cfg)
            took.append(time.perf_counter() - t0)
            docs.append(render_json(result.to_json_dict()))
        gaps.append((took[1] - took[0]) * 1000)
        tally.check("probe.pool_identical", docs[0] == docs[1])
    values["search.pool.overhead_ms"] = statistics.median(gaps)

    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(1, 8)
        points = [Fraction(i) for i in range(n)]
        points += [Fraction(rng.randint(-16, 24), rng.randint(1, 2)) for _ in range(2)]
        ints, den = tr.call("setcore.rational_scale",
                            lambda: setcore.scale_to_integers(RationalSet.from_fractions(points)))
        tally.check("probe.rational_scale",
                    [Fraction(v, den) for v in ints] == sorted(set(points)))

    for cls, literal, _x in interactive.items:
        if cls in PAIR_CLASSES:
            a = IntSet.parse(literal)
            tr.call(f"structure.equal_sum_pairs.{cls}", structure.equal_sum_pairs, a)
            tr.call(f"structure.equal_diff_pairs.{cls}", structure.equal_diff_pairs, a)

    bare, imported = [], []
    for _ in range(scale.import_probes):
        for argv, into in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import mstd.cli"], imported)):
            elapsed, proc = timed_subprocess(argv, env)
            into.append(elapsed * 1000)
            tally.check("probe.import_exit", proc.returncode == 0, proc.stderr[-300:])
    values["cli.import_ms"] = statistics.median(imported) - statistics.median(bare)
    return values


def probe_checks() -> set[str]:
    return {"probe.iter_matches_scan", "probe.pool_identical",
            "probe.rational_scale", "probe.import_exit"}
