#!/usr/bin/env python3
"""Long discovery sweep for minimal sum-dominant sets.

Enumerates every canonical affine class up to the diameter ceiling, with
checkpointed partitions so an interrupted sweep resumes where it stopped.

    python scripts/run_sweep.py --diameter-max 24 --workers 8 \
        --checkpoint sweep24.jsonl
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mstd.reports import render_json
from mstd.search import DEFAULT_SWEEP_DIAMETER, SearchConfig, find_min_mstd


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--diameter-max", type=int, default=DEFAULT_SWEEP_DIAMETER)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--checkpoint")
    args = ap.parse_args()

    config = SearchConfig(
        diameter_max=args.diameter_max,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
    )
    t0 = time.perf_counter()
    result = find_min_mstd(config)
    wall = time.perf_counter() - t0
    print(render_json(result.to_json_dict()))
    print(
        f"# swept diameters [0,{args.diameter_max}] in {wall:.1f}s: "
        f"{result.sets_examined} canonical sets, min sum-dominant size "
        f"{result.min_mstd_size}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
