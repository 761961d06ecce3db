"""Shape of the root-level BENCH_*.json records of measured performance.

Each file holds, per workload run, a parent and a change side: the commit
and the git tree of its src/, the seeds, one value per run of each gated
end-to-end metric, their medians, and the failed-check count.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
METRICS = ("wall_ref_s", "setup_s", "cases_per_ref_s", "peak_rss_mb")
SIDE_KEYS = {"commit", "src_tree", "seeds", *METRICS, "median", "failed"}
HEX40 = re.compile(r"[0-9a-f]{40}")


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_shape(path):
    doc = json.loads(path.read_text())
    assert set(doc) == {"issue", "host", "seconds", "note", "workloads"}
    assert path.name == f"BENCH_{doc['issue']}.json"
    assert set(doc["host"]) == {"nproc", "python", "platform"}
    assert doc["seconds"] > 0
    assert doc["workloads"]
    for workload, sides in doc["workloads"].items():
        assert set(sides) == {"parent", "change"}, workload
        for name, side in sides.items():
            where = f"{workload}.{name}"
            assert set(side) == SIDE_KEYS, where
            assert HEX40.fullmatch(side["commit"]), where
            assert HEX40.fullmatch(side["src_tree"]), where
            runs = len(side["seeds"])
            assert runs > 0 and all(type(s) is int for s in side["seeds"]), where
            assert set(side["median"]) == set(METRICS), where
            for metric in METRICS:
                values = side[metric]
                assert len(values) == runs, f"{where}.{metric}"
                assert side["median"][metric] == statistics.median(values), where
            assert side["failed"] == 0, where
        assert sides["parent"]["seeds"] == sides["change"]["seeds"], workload
        assert sides["parent"]["commit"] != sides["change"]["commit"], workload
