"""Canonical enumeration and high-throughput search for sum-dominant sets.

The search space is one representative per affine equivalence class
(translation, positive dilation, reflection): subsets of [0, D] that contain
both 0 and D, whose element gcd is 1, and that are lexicographically <= their
reflection.  For masks anchored at 0 the lexicographic test reduces to an
integer comparison against the mirrored mask.

One depth-first walk per diameter enumerates them.  It adds elements in
increasing order and carries the sum and positive-difference masks along,
so each step costs a constant number of big-int operations.  The walk is
partitioned by (diameter, membership of the elements 1..log2 p); partitions
are independent work units whose tallies merge by addition, so results do
not depend on scheduling.  A checkpoint file of line-delimited JSON records
lets long sweeps resume.

The walk skips subtrees that hold no canonical class, by one lemma.  Let A
be canonical of diameter d with an element strictly between 0 and d, and
let k be its least positive element.  The mask comparison visits the pairs
(i, d - i) from the outside in, i = 1, 2, ...: bit d - i of A's mask is
[d - i in A], that of its mirror is [i in A].  For i < k the mirror's bit is
0, so A's must be 0 as well, or A would exceed its mirror.  Hence A has no
element in (d - k, d), and since k itself is not in that interval,
k <= d - k.  So the walk never adds an element >= lim, an exclusive bound
that is d // 2 + 1 while the node holds no positive element and d - k + 1
once k is known.  Dropping whole subtrees does not reorder the ones that
remain, so each partition still yields its classes in lexicographic order.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import index
from typing import Iterator, Optional

from .reports import VerificationReport
from .setcore import (
    APSpec,
    IntSet,
    SetClass,
    _bit_indices,
    _sum_diff_masks,
    classify,
    is_normalized,
    mask_sizes,
    profile,
    reflect_canonical,
    sizes_of,
)

# Default diameter ceiling for open-ended sweeps; an engineering choice,
# always echoed in reports.
DEFAULT_SWEEP_DIAMETER = 24

# Version of the checkpoint layout: a header record, then one record per
# completed partition.
CHECKPOINT_FORMAT = 2


@dataclass
class SearchConfig:
    diameter_min: int = 0
    diameter_max: int = DEFAULT_SWEEP_DIAMETER
    size_min: Optional[int] = None
    size_max: Optional[int] = None
    workers: int = 1
    checkpoint_path: Optional[str] = None

    def __post_init__(self):
        for v in (self.diameter_min, self.diameter_max, self.size_min,
                  self.size_max, self.workers):
            if v is not None:
                index(v)  # a float or Fraction: TypeError
        if not 0 <= self.diameter_min <= self.diameter_max:
            raise ValueError("need 0 <= diameter_min <= diameter_max")
        lo = 1 if self.size_min is None else self.size_min
        hi = self.size_max
        if lo < 1 or (hi is not None and hi < lo):
            raise ValueError("inconsistent size bounds")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def size_range(self) -> tuple[int, int]:
        lo = 1 if self.size_min is None else self.size_min
        hi = (self.diameter_max + 1) if self.size_max is None else self.size_max
        return lo, hi

    def space_json_dict(self) -> dict:
        """The fields that fix the search space (not how it is scheduled)."""
        return {
            "diameter_min": self.diameter_min,
            "diameter_max": self.diameter_max,
            "size_min": self.size_min,
            "size_max": self.size_max,
        }


@dataclass
class SearchResult:
    min_mstd_size: Optional[int]
    witnesses: list  # [(IntSet, SetProfile)], reflection-canonical, sorted
    sets_examined: int
    per_diameter: dict
    config: SearchConfig

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.space_json_dict(),
            "min_mstd_size": self.min_mstd_size,
            "witnesses": [
                {"set": str(a), "profile": p.to_json_dict()}
                for a, p in self.witnesses
            ],
            "sets_examined": self.sets_examined,
            "per_diameter": {
                str(d): dict(t) for d, t in sorted(self.per_diameter.items())
            },
        }


def _canonical_classes(
    d: int, j: int, p: int, size_lo: int, size_hi: int
) -> Iterator[tuple[int, int, int]]:
    """Yield (mask, |A+A|, |A-A|) for each canonical class in one partition.

    The partition holds the sets of diameter d whose elements 1..log2(p)
    are present exactly where j has a bit set; it needs
    p.bit_length() <= d, so that those elements lie below d.  Classes come
    out in lexicographic order of their element tuples: a node closes (adds
    d) after all its extensions, and A + {x, ...} + {d} sorts before A + {d}.

    By the lemma in the module docstring, the walk adds no element at or
    past ``lim``: d - k + 1 with k the least positive element, from the
    fixed elements or from the first one added, and d // 2 + 1 at the
    root {0}.  That drops whole subtrees, so the rest keep their order.
    Below the root, the child that adds lim - 1 has no children; it is
    closed from its parent's masks, with no push and pop.  The tests
    ``full <= mirror`` and gcd 1 still decide every class.
    """
    if d == 0:
        if j == 0 and size_lo <= 1 <= size_hi:
            yield 1, 1, 1  # the singleton class {0}
        return
    if j.bit_count() + 2 > size_hi:
        return  # the fixed elements plus {0, d} already exceed the size cap
    top, top2 = 1 << d, 1 << (2 * d)
    # root node: {0} plus the fixed elements, built with the shared kernel
    a = 1 | (j << 1)
    s, p_diffs = _sum_diff_masks(a)
    p_diffs ^= 1  # keep positive differences only
    m = g = 0
    for e in _bit_indices(a):
        m |= top >> e  # mirror: bit d - e
        g = gcd(g, e)
    n = a.bit_count()
    x = p.bit_length()  # first element the walk may add
    # exclusive bound on the elements the walk may add
    lim = d - (j & -j).bit_length() + 1 if j else d // 2 + 1
    stack = []
    while True:
        if x < lim and n + 2 <= size_hi:
            if x + 1 < lim or n == 1:
                # descend: add x, the smallest untried element
                stack.append((a, m, s, p_diffs, g, n, x, lim))
                if n == 1:
                    lim = d - x + 1  # x is the least positive element
                s |= (a << x) | (1 << (2 * x))
                p_diffs |= (m << x) >> d  # the new differences x - e
                a |= 1 << x
                m |= top >> x
                g = gcd(g, x)
                n += 1
                x += 1
                continue
            # the last child, A + {x}, has no children: close it with d here
            # (x = d - k and g divides k, so x leaves the gcd test unchanged)
            ax = a | (1 << x)
            full = ax | top
            mx = m | (top >> x)
            if full <= mx | 1 and size_lo <= n + 2 and gcd(g, d) == 1:
                nsum = (s | (ax << x) | (ax << d) | top2).bit_count()
                ndiff = (p_diffs | ((m << x) >> d) | mx).bit_count()
                yield full, nsum, 2 * ndiff + 1
        # every extension of this node is done: close it with d
        full = a | top
        if full <= m | 1 and size_lo <= n + 1 and gcd(g, d) == 1:
            nsum = (s | (a << d) | top2).bit_count()
            yield full, nsum, 2 * (p_diffs | m).bit_count() + 1
        if not stack:
            return
        a, m, s, p_diffs, g, n, x, lim = stack.pop()
        x += 1


def iter_normalized(config: SearchConfig) -> Iterator[IntSet]:
    """Yield one canonical representative per affine class.

    Order is deterministic: diameter ascending, then lexicographic on the
    element tuple.  Each class appears exactly once.
    """
    size_lo, size_hi = config.size_range()
    for d in range(config.diameter_min, config.diameter_max + 1):
        for mask, _, _ in _canonical_classes(d, 0, 1, size_lo, size_hi):
            yield IntSet.from_mask(mask)


def _partitions(config: SearchConfig) -> list[tuple[int, int, int]]:
    # the count depends on the diameter alone, so partition ids are stable
    # across worker counts
    parts = []
    for d in range(config.diameter_min, config.diameter_max + 1):
        p = 1 << max(0, min(8, d - 16))
        for j in range(p):
            parts.append((d, j, p))
    return parts


def _scan_partition(args) -> tuple[int, list[int]]:
    """Scan one partition; return (classes examined, sum-dominant masks)."""
    examined = 0
    sd_masks: list[int] = []
    for mask, nsum, ndiff in _canonical_classes(*args):
        examined += 1
        if nsum > ndiff:
            sd_masks.append(mask)
    return examined, sd_masks


def _partition_id(d: int, j: int) -> str:
    return f"{d}/{j}"


def _record_line(rec: dict) -> bytes:
    return json.dumps(rec, separators=(",", ":")).encode() + b"\n"


def _record_tallies(
    rec, parts: dict, sizes: tuple[int, int], where: str
) -> tuple[str, tuple[int, list[IntSet]]]:
    """(partition id, (examined, sum-dominant sets)) of a record, re-checked.

    The record must have the shape `scan_sum_dominant` writes and name a
    partition (d, j, p) of ``parts`` (id -> (d, j, p)) with its diameter d.
    Every listed set must parse, have diameter d and a size in the search's
    ``sizes`` (lo, hi), classify as sum-dominant and be a canonical class of
    the partition: normalized, no larger than its reflection, with elements
    1..log2(p) present where j has a bit set.
    The list must be strictly increasing, the order the walk writes, and
    ``examined`` must count at least the sets listed.
    """
    t = rec.get("tallies") if isinstance(rec, dict) else None
    if not (
        isinstance(t, dict)
        and isinstance(rec.get("partition_id"), str)
        and type(rec.get("diameter")) is int
        and type(t.get("examined")) is int
        and isinstance(t.get("sum_dominant"), list)
        and all(isinstance(a, str) for a in t["sum_dominant"])
    ):
        raise ValueError(f"{where} is not a partition record")
    pid = rec["partition_id"]
    part = parts.get(pid)
    if part is None or part[0] != rec["diameter"]:
        raise ValueError(f"{where} is not a partition of this search")
    (d, j, p), (lo, hi) = part, sizes
    sets = []
    for text in t["sum_dominant"]:
        try:
            a = IntSet.parse(text)
        except ValueError as exc:
            raise ValueError(f"{where} lists {text!r}: {exc}") from None
        if a.diameter != d or classify(a) is not SetClass.SUM_DOMINANT:
            raise ValueError(
                f"{where} lists {text!r}, not a sum-dominant set of diameter {d}"
            )
        if not lo <= len(a) <= hi:
            raise ValueError(f"{where} lists {text!r}, of size outside {lo}..{hi}")
        if (
            not is_normalized(a)
            or reflect_canonical(a) != a
            or (a.mask()[0] >> 1) & (p - 1) != j
        ):
            raise ValueError(
                f"{where} lists {text!r}, not a canonical class of partition {pid}"
            )
        if sets and sets[-1].elements >= a.elements:
            raise ValueError(f"{where} lists {text!r} twice or out of order")
        sets.append(a)
    if t["examined"] < len(sets):
        raise ValueError(
            f"{where} examined {t['examined']} sets but lists {len(sets)}"
        )
    return pid, (t["examined"], sets)


def _load_checkpoint(
    path: str, header: dict, parts: dict, sizes: tuple[int, int]
) -> dict:
    """(examined, sum-dominant sets) of each completed partition, by partition id.

    The first record must equal ``header``; anything else raises ValueError.
    A final line that is unparseable or lacks its newline was torn by a
    crash mid-write: it is cut off the file, so its partition is scanned
    again.  A bad line anywhere else raises ValueError, and so does a later
    record that fails ``_record_tallies`` for the search's ``parts`` (id ->
    (d, j, p)) and ``sizes``, or a second one of its partition.  A new or
    empty file gets the header written.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    except FileNotFoundError:
        lines = []
    records = {}
    intact = 0  # bytes of whole records
    for i, line in enumerate(lines):
        where = f"checkpoint {path}: line {i + 1}"
        try:
            rec = json.loads(line)
            whole = line.endswith(b"\n")
        except ValueError:
            whole = False
        if not whole:
            if i == len(lines) - 1:
                break
            raise ValueError(f"{where} is not a record")
        if i == 0:
            if rec != header:
                raise ValueError(
                    f"checkpoint {path} was written for another search "
                    f"(first record {rec}, want {header}); use a new file"
                )
        else:
            pid, tallies = _record_tallies(rec, parts, sizes, where)
            if pid in records:
                raise ValueError(f"{where} repeats partition {pid}")
            records[pid] = tallies
        intact += len(line)
    with open(path, "ab") as fh:
        fh.truncate(intact)
        if intact == 0:
            fh.write(_record_line(header))
    return records


def scan_sum_dominant(config: SearchConfig) -> tuple[int, dict, list[IntSet]]:
    """Scan the canonical space and collect every sum-dominant set.

    Returns (sets_examined, per-diameter tallies, sum-dominant sets sorted by
    diameter then elements).  Honors workers and checkpoint.
    """
    size_lo, size_hi = config.size_range()
    parts = _partitions(config)
    path = config.checkpoint_path
    done = {}
    if path:
        header = {"format": CHECKPOINT_FORMAT, "config": config.space_json_dict()}
        by_id = {_partition_id(d, j): (d, j, p) for d, j, p in parts}
        done = _load_checkpoint(path, header, by_id, (size_lo, size_hi))

    todo = []
    results = []  # (d, examined, sum-dominant IntSets)
    for d, j, p in parts:
        tallies = done.get(_partition_id(d, j))
        if tallies is not None:
            results.append((d, *tallies))
        else:
            todo.append((d, j, p, size_lo, size_hi))

    # results stream back in partition order; checkpoint records are appended
    # as they arrive so an interrupted sweep loses at most one partition
    pool = None
    ckpt = None
    try:
        if config.workers > 1 and len(todo) > 1:
            pool = ProcessPoolExecutor(max_workers=config.workers)
            chunk = max(1, len(todo) // (config.workers * 4))
            fresh = pool.map(_scan_partition, todo, chunksize=chunk)
        else:
            fresh = map(_scan_partition, todo)
        if path:
            ckpt = open(path, "ab")
        for (d, j, *_), (examined, sd_masks) in zip(todo, fresh):
            sets = [IntSet.from_mask(m) for m in sd_masks]
            results.append((d, examined, sets))
            if ckpt is not None:
                ckpt.write(_record_line({
                    "partition_id": _partition_id(d, j),
                    "diameter": d,
                    "tallies": {
                        "examined": examined,
                        "sum_dominant": [str(a) for a in sets],
                    },
                }))
                ckpt.flush()
    finally:
        if ckpt is not None:
            ckpt.close()
        if pool is not None:
            pool.shutdown()

    per_diameter: dict[int, dict] = {}
    total_examined = 0
    found: list[IntSet] = []
    for d, examined, sets in results:
        tally = per_diameter.setdefault(d, {"examined": 0, "sum_dominant": 0})
        tally["examined"] += examined
        tally["sum_dominant"] += len(sets)
        total_examined += examined
        found.extend(sets)

    found.sort(key=lambda w: (w.diameter, w.elements))
    return total_examined, per_diameter, found


def find_min_mstd(config: SearchConfig) -> SearchResult:
    """Exhaustively locate the smallest sum-dominant sets in the search space.

    Reports the minimum cardinality attained, every canonical witness of that
    cardinality, and per-diameter tallies.
    """
    examined, per_diameter, found = scan_sum_dominant(config)
    min_size = min((len(w) for w in found), default=None)
    best = [w for w in found if len(w) == min_size]
    return SearchResult(
        min_mstd_size=min_size,
        witnesses=[(w, profile(w)) for w in best],
        sets_examined=examined,
        per_diameter=per_diameter,
        config=config,
    )


def explore_two_ap_unions(
    max_len: int = 6, max_step: int = 5, max_shift: int = 40
) -> VerificationReport:
    """Classify every union of two arithmetic progressions on the grid.

    The first progression starts at 0 (translation), steps satisfy d1 <= d2
    (swap symmetry), and the second progression's start ranges over
    [-max_shift, max_shift].  Any sum-dominant union is reported as a
    counterexample; a clean run is a statement about this grid only.
    """
    if min(max_len, max_step, max_shift) < 1:
        raise ValueError("all grid bounds must be >= 1")
    report = VerificationReport(
        check="two-ap-unions",
        grid=f"lengths<={max_len}, steps<={max_step}, |shift|<={max_shift}",
    )
    # one mask per progression AP(0, d, n), keyed in grid order: n, then d
    aps = {
        (n, d): APSpec(0, d, n).mask()
        for n in range(1, max_len + 1)
        for d in range(1, max_step + 1)
    }
    for (n1, d1), first in aps.items():
        for (n2, d2), second in aps.items():
            if d2 < d1:
                continue
            for a2 in range(-max_shift, max_shift + 1):
                # the union's mask, shifted so that bit 0 is its min
                if a2 >= 0:
                    u = first | (second << a2)
                else:
                    u = (first << -a2) | second
                report.cases += 1
                nsum, ndiff = mask_sizes(u)
                if nsum > ndiff:
                    report.add_violation(
                        IntSet.from_mask(u, min(0, a2)),
                        f"AP(0,{d1},{n1}) + AP({a2},{d2},{n2})",
                    )
    return report.finish()


def explore_min_additions(
    ap: APSpec = APSpec(3, 4, 3), k_max: int = 5, window: tuple[int, int] = (0, 14)
) -> VerificationReport:
    """Search for the fewest window integers whose insertion makes an AP sum-dominant.

    For each k up to k_max, tries every k-subset of the window in
    lexicographic order and records the first sum-dominant superset found.
    Hits at k <= 2 are impossible by the AP-plus-two theorem and are
    reported as violations; larger k outcomes land in the notes.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window [{lo},{hi}]")
    base = ap.elements()
    candidates = [x for x in range(lo, hi + 1) if x not in base]
    report = VerificationReport(
        check="min-additions",
        grid=f"AP({ap.first},{ap.step},{ap.length}), k<={k_max}, window=[{lo},{hi}]",
    )
    for k in range(1, k_max + 1):
        hit = None
        for extra in combinations(candidates, k):
            report.cases += 1
            nsum, ndiff = sizes_of(base + extra)
            if nsum > ndiff:
                hit = (extra, IntSet.from_iterable(base + extra))
                break
        if hit is None:
            report.notes.append(f"k={k}: no sum-dominant superset")
        else:
            extra, u = hit
            added = ",".join(str(x) for x in extra)
            report.notes.append(
                f"k={k}: first sum-dominant superset {u} (added {added})"
            )
            if k <= 2:
                report.add_violation(u, f"k={k} additions {added}")
    return report.finish()
