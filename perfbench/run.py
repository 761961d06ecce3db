#!/usr/bin/env python3
"""mstd benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
is the separate traced run: it records spans around every phase and every
call into a layer, and reports the per-layer metrics and the tracing
overhead of the named workload.  Every metric is printed by name with its
unit; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run record (commit, nproc,
Python version, seed, every raw sample and count) and the spans are written
under ``.bench_out/`` in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import REF_SLICE_S, NullClock, RefClock, run_slice
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep", "verify", "interactive")
SETUP_PROBE_SLICES = 10


def load_harness():
    """Import the harness against this checkout's ``src/mstd``, or exit."""
    pkg = SRC / "mstd"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no mstd package under {SRC}; "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mstd
    import workloads

    if Path(mstd.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported mstd from {mstd.__file__}, not {pkg}")
    return workloads


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Max RSS of this process and of its waited-for children (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def setup_times(args, count: int) -> tuple[list[float], list[float]]:
    """Interpreter start to first timed call, in fresh processes, one at a time.

    Returns the times in reference seconds and as wall seconds.  Each probe
    samples the host's speed while it sets up (see ``setup_probe``).
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    ref, wall = [], []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        ready, sliced, slice_s = map(float, proc.stdout.split()[-3:])
        wall.append(ready - start)
        ref.append((ready - start - sliced) * REF_SLICE_S / slice_s)
    return ref, wall


def setup_probe(args) -> int:
    """The child side of ``setup_times``: set up, then print when it was ready.

    Prints the ready time, the time its calibration slices took inside the
    set-up, and the mean slice time, measured in and just after the set-up.
    """
    with RefClock().region() as timed:
        wl = load_harness()
        scale = wl.SCALES["smoke" if args.smoke else "full"]
        wl.WORKLOADS[args.workload](scale, args.seed, str(ROOT), str(OUT))
        ready = time.monotonic()
    timed.slices += [run_slice() for _ in range(SETUP_PROBE_SLICES)]
    print(ready, timed.wall_s - timed.work_s, timed.slice_s)
    return 0


class Run:
    """Outcome of one benchmark run: metrics, raw samples, counts, checks."""

    def __init__(self, args, scale_name: str):
        self.args = args
        self.scale = scale_name
        self.metrics: dict[str, tuple[float, str]] = {}
        self.shown: dict[str, tuple[float, str]] = {}  # printed, not in the result
        self.samples: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.tally = None
        self.spans = None
        self.check_names: set[str] = set()

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }

    def record(self) -> dict:
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "scale": self.scale,
            "commit": git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "samples": self.samples,
            "counts": self.counts,
            "checks": {
                "attempted": self.tally.attempted,
                "failed": self.tally.failed,
                "failures": self.tally.failures,
            },
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in {**self.metrics, **self.shown}.items()},
        }


def measure(wl, args, scale) -> Run:
    """Untraced run: the end-to-end metrics of one workload."""
    run = Run(args, scale.name)
    run.tally = tally = wl.Tally()
    workload = wl.WORKLOADS[args.workload](scale, args.seed, str(ROOT), str(OUT))
    run.check_names = workload.checks()
    start = time.perf_counter()
    setup, setup_wall = setup_times(args, scale.setup_probes)
    passes = wl.repeat(workload, NullTracer, tally, RefClock(),
                       args.seconds - (time.perf_counter() - start))
    extra = workload.after(NullTracer, tally)
    if not passes:
        raise RuntimeError("no pass of the workload completed")

    units = wl.end_to_end_units(args.workload)
    walls = [p["wall_s"] for p in passes]
    refs = [p["wall_ref_s"] for p in passes]
    run.samples = {"setup_s": setup, "setup_wall_s": setup_wall, "wall_ref_s": refs,
                   "wall_s": walls, "slice_s": [p["slice_s"] for p in passes]}
    for key in ("par_wall_s", "cli_search_s", "resume_ms"):
        if key in passes[0]:
            run.samples[key] = [p[key] for p in passes]
    run.samples.update(extra)
    values = {
        "setup_s": statistics.median(setup),
        "wall_ref_s": statistics.median(refs),
        "cases_per_ref_s": passes[0]["cases"] / statistics.median(refs),
        "peak_rss_mb": peak_rss_mb(),
        "wall_s": statistics.median(walls),
        "cases_per_s": passes[0]["cases"] / statistics.median(walls),
        "setup_wall_s": statistics.median(setup_wall),
        "slice_ms": statistics.median(run.samples["slice_s"]) * 1000,
    }
    for key in ("par_wall_s", "cli_search_s", "cold_start_ms"):
        if key in run.samples:
            values[key] = statistics.median(run.samples[key])
    values["fail_frac"] = tally.failed / max(1, tally.attempted)
    for key, unit in units.items():
        target = run.metrics if key in wl.RESULT_METRICS else run.shown
        target[key] = (values[key], unit)
    run.counts = {k: v for k, v in passes[0].items()
                  if k == "cases" or k.endswith((".cases", "_examined", "_pruned",
                                                  "_records", "_bytes"))}
    run.counts["passes"] = len(passes)
    return run


def trace(wl, args, scale) -> Run:
    """Traced run: every per-layer metric, and this workload's tracing overhead."""
    run = Run(args, scale.name)
    run.tally = tally = wl.Tally()
    loads = {name: wl.WORKLOADS[name](scale, args.seed, str(ROOT), str(OUT))
             for name in WORKLOAD_NAMES}
    run.check_names = set().union(*(w.checks() for w in loads.values()), wl.probe_checks())
    tr = Tracer()
    passes, after = {}, {}
    for name, workload in loads.items():
        if name != args.workload:
            with tr.span(name):
                passes[name] = workload.one_pass(tr, tally, NullClock)
                after[name] = workload.after(tr, tally)

    # the named workload: untraced and traced passes in pairs, alternating
    # which side goes first, while another pair fits into --seconds
    target = loads[args.workload]
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for side in (NullTracer, tr) if len(traced) % 2 == 0 else (tr, NullTracer):
            with side.span(args.workload):
                sample = target.one_pass(side, tally, NullClock)
            if side is tr:
                passes[args.workload] = sample
                traced.append(sample["wall_s"])
            else:
                untraced.append(sample["wall_s"])
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    after[args.workload] = target.after(tr, tally)
    with tr.span("probes"):
        probed = wl.layer_probes(scale, args.seed, loads["interactive"], tr, tally,
                                 wl.subprocess_env(str(ROOT)))

    us = {f"{f}.us": tr.p50(f) * 1e6 for f in
          [f"setcore.{c}.{k}" for c in wl.SETCORE_CALLS for k, _, _ in wl.CLASSES]
          + [f"setcore.ap_plus_two_decomposition.{k}" for k in wl.AP2_CLASSES]
          + ["setcore.rational_scale", "structure.insertion_delta.n32",
             "reports.render_json"]
          + [f"structure.{f}.{k}" for f in ("equal_sum_pairs", "equal_diff_pairs")
             for k in wl.PAIR_CLASSES]
          + [f"cli.main.{c}" for c in wl.CLI_COMMANDS]}
    sweep, checked = passes["sweep"], passes["verify"]
    values = {**probed, **us}
    values["search.cli.examined"] = sweep["cli_examined"]
    values["search.cli.pruned"] = sweep["cli_pruned"]
    values["search.cli.prune_yield"] = sweep["cli_pruned"] / max(1, sweep["cli_examined"])
    values["search.pool.cpu_util"] = sweep["cpu_util"]
    values["search.find_min_mstd.workers2.s"] = tr.p50("search.find_min_mstd.workers2")
    values["search.checkpoint.records"] = sweep["checkpoint_records"]
    values["search.checkpoint.bytes"] = sweep["checkpoint_bytes"]
    values["search.resume_ms"] = tr.p50("search.find_min_mstd.resume") * 1000
    for label in wl.EXPLORE_LABELS:
        values[f"{label}.s"] = tr.p50(label)
    for label in wl.VERIFY_LABELS:
        values[f"{label}.s"] = tr.p50(label)
        values[f"{label}.cases"] = checked[f"{label}.cases"]
    values["cli.cold_start_ms"] = statistics.median(after["interactive"]["cold_start_ms"])
    values["cli.main.search.s"] = tr.p50("cli.main.search")
    values["bench.trace_overhead_s"] = statistics.median(
        t - u for t, u in zip(traced, untraced))

    names = wl.per_layer_names(scale)
    missing = set(names) ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with their names: {missing}")
    run.metrics = {name: (values[name], wl.layer_unit(name)) for name in names}
    run.samples = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "cold_start_ms": after["interactive"]["cold_start_ms"],
    }
    run.counts = {name: value for name, (value, unit) in run.metrics.items()
                  if unit == "count"}
    run.spans = tr
    return run


def run_once(wl, args) -> Run:
    scale = wl.SCALES["smoke" if args.smoke else "full"]
    OUT.mkdir(exist_ok=True)
    return (trace if args.trace else measure)(wl, args, scale)


def report(run: Run):
    args = run.args
    print(f"# mstd benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} scale={run.scale} seconds={args.seconds}")
    record = run.record()
    print(f"# commit={record['commit']} nproc={record['nproc']} "
          f"python={record['python']}")
    for name, (value, unit) in {**run.metrics, **run.shown}.items():
        if name in run.counts:
            continue
        n = len(run.samples.get(name, ()))
        note = f"  (median of {n})" if n > 1 else ""
        print(f"{name:<44} {value:>16.6f} {unit}{note}")
    for name, value in run.counts.items():
        print(f"{name:<44} {value:>16} count")
    print(f"{'checks attempted / failed':<44} {run.tally.attempted:>10} / {run.tally.failed}")
    for failure in run.tally.failures:
        print(f"FAILED {failure}")
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-{run.scale}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if run.spans is not None:
        run.spans.write(OUT / f"{stem}.spans.jsonl")
    print(f"# record: {OUT / stem}.json")
    print(json.dumps(run.result()))


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter, plus one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"# {name}: exit {proc.returncode}")
            summary["correct"] = False
            status = 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # the CLI's default worker count comes from this variable; pin it to 1
    os.environ.pop("MSTD_WORKERS", None)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    report(run_once(wl=load_harness(), args=args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
