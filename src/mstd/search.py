"""Canonical enumeration and high-throughput search for sum-dominant sets.

The search space is one representative per affine equivalence class
(translation, positive dilation, reflection): subsets of [0, d] that contain
both 0 and d, whose element gcd is 1, and that are lexicographically <= their
reflection.  For masks anchored at 0 the lexicographic test reduces to an
integer comparison against the mirrored mask, which reads the pairs
(i, d - i) from the outside in, i = 1, 2, ...: bit d - i of A's mask is
[d - i in A], that of its mirror is [i in A].

One depth-first walk per diameter decides the pairs in that order.  Each
step adds at most two elements.  A node carries one int holding both A+A
and the signed A-A, a second holding the set and its mirror, the gcd and
the size; a child costs a constant number of big-int operations, and its
fringe test (below) one popcount.  Tie rule: while each decided pair is
symmetric, the walk refuses a pair that holds d - i but not i; once a pair
holds i alone, A is below its mirror whatever follows.  So each class is
one leaf, and the leaves still tied are the symmetric classes.

Fringe lemma (sum-dominance is decided at the fringes, as Martin and
O'Bryant, and Zhao, view it).  Let the pairs with i < w be decided, so only
[w, d - w] is open.  A sum x + y with x open lies in [w, 2d - w], as y lies
in [0, d]; so the sums in [0, w) and (2d - w, 2d] are final, and every
completion has |A+A| <= (those sums) + 2d - 2w + 1.  No added element
removes a difference, so every completion has |A-A| >= 2 * (positive
differences of the decided elements) + 1.  When the first bound is at most
the second, no completion is sum-dominant and the walk skips the subtree.
A child's sum bound is no higher than its parent's (each fringe gains at
most one sum, the open middle loses two) and its difference bound no lower,
so a cut node has no uncut descendant.  A node tests each child against the
next step's bound before it descends, so a cut child costs no call.  Once
w > d - w nothing is open: every sum is final, no slot is left, and the test
is exact, |A+A| > |A-A|.  So the cut walk yields exactly the sum-dominant
classes, and with the cut off it yields every class.

The walk is partitioned by (diameter, decisions on the first pairs);
partitions are independent work units whose tallies merge by addition, so
results do not depend on scheduling.  Class counts come from the closed form
`class_count`, which the tests check the uncut walk against.  A checkpoint
file of line-delimited JSON records lets long sweeps resume.
"""

from __future__ import annotations

import json
import signal
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb, gcd
from operator import index
from typing import Iterator, Optional

from .reports import VerificationReport
from .setcore import (
    APSpec,
    IntSet,
    SetClass,
    _bit_indices,
    _sum_diff_masks,
    is_normalized,
    profile,
    reflect_canonical,
    sizes_of,
)

# Default diameter ceiling for open-ended sweeps; an engineering choice,
# always echoed in reports.
DEFAULT_SWEEP_DIAMETER = 24

# Version of the checkpoint layout: a header record, then one record per
# completed partition.
CHECKPOINT_FORMAT = 3


@dataclass(frozen=True)
class SearchConfig:
    diameter_min: int = 0
    diameter_max: int = DEFAULT_SWEEP_DIAMETER
    size_min: Optional[int] = None
    size_max: Optional[int] = None
    workers: int = 1
    checkpoint_path: Optional[str] = None

    def __post_init__(self):
        for name in ("diameter_min", "diameter_max", "size_min", "size_max", "workers"):
            if getattr(self, name) is not None:  # a float or Fraction: TypeError
                object.__setattr__(self, name, index(getattr(self, name)))
        if not 0 <= self.diameter_min <= self.diameter_max:
            raise ValueError("need 0 <= diameter_min <= diameter_max")
        lo, hi = self.size_range()
        if lo < 1 or (self.size_max is not None and hi < lo):
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


def _squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """(e, mu(e)) for each squarefree divisor e of n >= 1, mu the Moebius function."""
    out, p = [(1, 1)], 2
    while n > 1:
        if n % p == 0:
            out += [(e * p, -mu) for e, mu in out]
            while n % p == 0:
                n //= p
        p += 1
    return out


def class_count(d: int, size_lo: int, size_hi: int) -> int:
    """The number of canonical classes of diameter d with size_lo..size_hi elements.

    By Burnside's lemma for the reflection it is (N + S) / 2 at each size k,
    with N the k-sets of gcd 1 in [0, d] holding 0 and d, and S the
    symmetric ones.  Both follow by Moebius inversion over the divisors e
    of d: the k-sets whose gcd e divides are those of [0, d/e], times e.
    """
    if d == 0:
        return int(size_lo <= 1 <= size_hi)
    total = 0
    for e, mu in _squarefree_divisors(d):
        n = d // e
        for k in range(max(2, size_lo), min(size_hi, d + 1) + 1):
            # a symmetric k-set holds (k - 2) // 2 of the (n - 1) // 2 pairs
            # (i, n - i), and the midpoint n / 2 when k is odd
            sym = comb((n - 1) // 2, (k - 2) // 2) if n % 2 == 0 or k % 2 == 0 else 0
            total += mu * (comb(n - 1, k - 2) + sym)
    return total // 2


def _key_pairs(d: int) -> int:
    # the outer pairs a partition key decides: 1, 3, 10, 36 or 136 partitions
    # for 0 to 4 pairs, set by the diameter alone, so partition ids are
    # stable across worker counts
    return max(0, min(4, (d - 15) // 2))


def _prefix_masks(d: int, j: int, t: int) -> tuple[int, int]:
    """Masks of A and d - A, A = {0, d} plus key j's picks among (i, d - i), i <= t.

    Bit 2i - 2 of j is [i in A] and bit 2i - 1 is [d - i in A].  With every
    bit of j set, A holds every position the key decides.
    """
    a = m = 1 | (1 << d)
    for i in range(1, t + 1):
        low, high = (j >> (2 * i - 2)) & 1, (j >> (2 * i - 1)) & 1
        a |= low << i | high << (d - i)
        m |= high << i | low << (d - i)
    return a, m


@cache
def _fringes(d: int) -> tuple[tuple[int, int], ...]:
    """(final sums mask, open sum slots) at each step w: the fringe lemma's terms.

    With the pairs (i, d - i), i < w, decided, the sums in [0, w) and
    (2d - w, 2d] are final, and at most 2d - 2w + 1 others can occur.  At
    the leaf step, w > d - w, nothing is open: every sum in [0, 2d] is final,
    the slots are 0 and the test is exact.  Built once per diameter and
    shared by its partitions, hence a tuple.
    """
    return tuple(
        (((1 << w) - 1) | (((1 << w) - 1) << (2 * d - w + 1)), 2 * (d - w) + 1)
        for w in range(d // 2 + 1)
    ) + (((1 << 2 * d + 1) - 1, 0),)


@cache
def _steps(d: int, cut: bool) -> tuple[tuple[int, ...], ...]:
    """The walk's constants at each step x, 0 <= x <= d // 2 + 1, built from `_fringes`.

    A node's sums and differences are one int c: A+A in bits [0, 2d] and
    the signed A-A, difference k at bit off + d + k, with off = 2d + 1.
    With dm the difference window, ``(c ^ dm) & final`` holds the final
    sums and ``(c ^ dm) & dm`` the off - |A-A| differences still missing,
    so the fringe test (final sums) + slots > |A-A| is

        ((c ^ dm) & (final | dm)).bit_count() > off - slots.

    Row x holds y = d - x; the shifts x + off and y + off; the test of step
    x + 1 (at the leaf step, the leaf's own) as that mask and threshold;
    the bits that x, y and both add to am = a | m << off, a the set's mask
    and m its mirror's; and those they add to c, both's with the cross
    differences +-(y - x).  Without the cut each threshold is -1, below any
    count.
    """
    off = 2 * d + 1
    dm = ((1 << off) - 1) << off
    leaf = d // 2 + 1
    fringes = _fringes(d) if cut else [(0, 2 * d + 2)] * (leaf + 1)
    rows = []
    for x in range(leaf + 1):
        y = d - x
        final, slots = fringes[min(x + 1, leaf)]
        ax, ay = 1 << x | 1 << off + y, 1 << y | 1 << off + x
        kx, ky = 1 << 2 * x, 1 << 2 * y
        cross = 1 << off + 2 * x | 1 << off + 2 * y
        rows.append((
            y, x + off, y + off, final | dm, off - slots,
            ax, ay, ax | ay, kx, ky, kx | ky | cross,
        ))
    return tuple(rows)


def _canonical_classes(
    d: int, j: int, t: int, size_lo: int, size_hi: int, cut: bool = True
) -> list[tuple[int, int, int]]:
    """(mask, |A+A|, |A-A|) of the canonical classes of one partition, in walk order.

    The partition holds the sets of diameter d whose first t pairs, 2t < d,
    are as key j decides them.  With ``cut`` the list holds exactly the
    sum-dominant classes of the partition; without it, every class.
    """
    if d == 0:
        return [(1, 1, 1)] if size_lo <= 1 <= size_hi and not cut else []
    a, m = _prefix_masks(d, j, t)
    off = 2 * d + 1
    amask, smask, dm = (1 << d + 1) - 1, (1 << off) - 1, ((1 << off) - 1) << off
    am = a | m << off
    elements = _bit_indices(a)
    c = 0
    for e in elements:  # e + A, and e - A from the mirror
        c |= am << e
    leaf = d // 2 + 1
    steps = _steps(d, cut)
    out = []

    def visit(x, c, am, g, n, tied):
        # the pairs (i, d - i) with i < x are decided, and the node has
        # passed the fringe test of step x
        if n >= size_hi:
            x = leaf  # the size cap leaves every open position out
        y, xo, yo, mask, thr, ax, ay, ab, kx, ky, kb = steps[x]
        if x > y:  # a leaf at the size cap skipped its test: test it here
            if g == 1 and size_lo <= n <= size_hi:
                if ((c ^ dm) & mask).bit_count() > thr:
                    nsum, ndiff = (c & smask).bit_count(), (c >> off).bit_count()
                    out.append((am & amask, nsum, ndiff))
            return
        if ((c ^ dm) & mask).bit_count() > thr:
            visit(x + 1, c, am, g, n, tied)
        if g != 1:
            g = gcd(g, x)  # gcd(g, y) too, as d is an element
        # x added: the sums x + A and 2x, the differences x - A and A - x
        a = am & amask
        cx = c | am << x | kx | a << yo
        x_passes = ((cx ^ dm) & mask).bit_count() > thr
        if x == y:  # the midpoint
            if x_passes:
                visit(x + 1, cx, am | ax, g, n + 1, tied)
            return
        if x_passes:
            visit(x + 1, cx, am | ax, g, n + 1, False)
        cy = c | am << y | ky | a << xo
        if not tied and ((cy ^ dm) & mask).bit_count() > thr:
            visit(x + 1, cy, am | ay, g, n + 1, False)
        cb = cx | cy | kb  # x + y = d is a sum already
        if n + 2 <= size_hi and ((cb ^ dm) & mask).bit_count() > thr:
            visit(x + 1, cb, am | ab, g, n + 2, tied)

    _, _, _, mask, thr, *_ = steps[t]
    if ((c ^ dm) & mask).bit_count() > thr:
        visit(t + 1, c, am, gcd(*elements), len(elements), a == m)
    del visit  # visit holds itself: unbind it, or the cycle keeps ``out`` alive
    return out


def _partitions(config: SearchConfig) -> list[tuple[int, int, int]]:
    """(d, j, t) for each partition: the keys j of t pairs that the tie rule allows.

    The rule compares the picks of each pair, outermost first, so it reads
    only the bits of j: the keys of t pairs are found once, at diameter 2t + 1.
    """
    keys, parts = {}, []
    for d in range(config.diameter_min, config.diameter_max + 1):
        t = _key_pairs(d)
        if t not in keys:
            masks = (_prefix_masks(2 * t + 1, j, t) for j in range(1 << (2 * t)))
            keys[t] = [j for j, (a, m) in enumerate(masks) if a <= m]
        parts.extend((d, j, t) for j in keys[t])
    return parts


def iter_normalized(config: SearchConfig) -> Iterator[IntSet]:
    """Yield one canonical representative per affine class.

    Order is deterministic: diameter ascending, then partition, then walk
    order.  Each class appears exactly once.
    """
    size_lo, size_hi = config.size_range()
    for d, j, t in _partitions(config):
        for mask, _, _ in _canonical_classes(d, j, t, size_lo, size_hi, cut=False):
            yield IntSet.from_mask(mask)


def _scan_partition(args) -> list[int]:
    """The masks of one partition's sum-dominant classes, in walk order."""
    return [mask for mask, _, _ in _canonical_classes(*args)]


def _partition_id(d: int, j: int) -> str:
    return f"{d}/{j}"


def _record_line(rec: dict) -> bytes:
    return json.dumps(rec, separators=(",", ":")).encode() + b"\n"


def _record_tallies(
    rec, parts: dict, sizes: tuple[int, int], where: str
) -> tuple[str, list[IntSet]]:
    """(partition id, sum-dominant sets) of a record, re-checked.

    The record must have the shape `scan_sum_dominant` writes and name a
    partition (d, j, t) of ``parts`` (id -> (d, j, t)) with its diameter d.
    Every listed set must parse, have diameter d and a size in the search's
    ``sizes`` (lo, hi), classify as sum-dominant and be a canonical class of
    the partition: normalized, no larger than its reflection, with its
    first t pairs as key j decides them.
    The list must be strictly increasing, the order the sweep writes, and
    ``examined`` must count at least the sets listed: the sweep writes their
    number, and older versions wrote the partition's class count.
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
    (d, j, pairs), (lo, hi) = part, sizes
    decided = _prefix_masks(d, (1 << (2 * pairs)) - 1, pairs)[0]
    key = _prefix_masks(d, j, pairs)[0]
    sets = []
    for text in t["sum_dominant"]:
        try:
            a = IntSet.parse(text)
        except ValueError as exc:
            raise ValueError(f"{where} lists {text!r}: {exc}") from None
        # counted from the elements, so the loaded set keeps no count
        if (
            a.diameter != d
            or SetClass.from_sizes(*sizes_of(a.elements)) is not SetClass.SUM_DOMINANT
        ):
            raise ValueError(
                f"{where} lists {text!r}, not a sum-dominant set of diameter {d}"
            )
        if not lo <= len(a) <= hi:
            raise ValueError(f"{where} lists {text!r}, of size outside {lo}..{hi}")
        if (
            not is_normalized(a)
            or reflect_canonical(a) != a
            or a.mask()[0] & decided != key
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
    return pid, sets


def _load_checkpoint(
    fh, header: dict, parts: dict, sizes: tuple[int, int]
) -> dict:
    """The sum-dominant sets of each completed partition, by partition id.

    ``fh`` is the checkpoint, open in "a+b" mode.  The first record must
    equal ``header``; anything else raises ValueError, which names the
    format of a file written in another one.  A final line that is
    unparseable or lacks its newline was torn by a crash mid-write: it is
    cut off the file, so its partition is scanned again.  A bad line
    anywhere else raises ValueError, and so does a later record that fails
    ``_record_tallies`` for the search's ``parts`` (id -> (d, j, t)) and
    ``sizes``, or a second one of its partition.  An empty file gets the
    header written.
    """
    path = fh.name
    fh.seek(0)
    lines = fh.read().splitlines(keepends=True)
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
        if i == 0 and rec != header:
            fmt = rec.get("format") if isinstance(rec, dict) else None
            if fmt not in (None, CHECKPOINT_FORMAT):
                raise ValueError(
                    f"checkpoint {path} has format {fmt}; this version reads "
                    f"format {CHECKPOINT_FORMAT} only; use a new file"
                )
            raise ValueError(
                f"checkpoint {path} was written for another search "
                f"(first record {rec}, want {header}); use a new file"
            )
        elif i > 0:
            pid, tallies = _record_tallies(rec, parts, sizes, where)
            if pid in records:
                raise ValueError(f"{where} repeats partition {pid}")
            records[pid] = tallies
        intact += len(line)
    fh.truncate(intact)
    if intact == 0:
        fh.write(_record_line(header))
    # nothing left buffered for a forked worker to inherit
    fh.flush()
    return records


def scan_sum_dominant(config: SearchConfig) -> tuple[int, dict, list[IntSet]]:
    """Scan the canonical space and collect every sum-dominant set.

    Returns (sets_examined, per-diameter tallies, sum-dominant sets sorted by
    diameter then elements).  Honors workers and checkpoint.  The examined
    counts are `class_count`'s.
    """
    size_lo, size_hi = config.size_range()
    parts = _partitions(config)
    path = config.checkpoint_path
    with ExitStack() as stack:
        done = {}  # partition id -> sum-dominant IntSets
        if path:
            ckpt = stack.enter_context(open(path, "a+b"))
            header = {"format": CHECKPOINT_FORMAT, "config": config.space_json_dict()}
            by_id = {_partition_id(d, j): (d, j, t) for d, j, t in parts}
            done = _load_checkpoint(ckpt, header, by_id, (size_lo, size_hi))
        todo = [
            (d, j, t, size_lo, size_hi)
            for d, j, t in parts
            if _partition_id(d, j) not in done
        ]
        if config.workers > 1 and len(todo) > 1:
            # leaving the block terminates the workers, so an error or an
            # interrupt stops the sweep at once.  Ctrl-C reaches the whole
            # process group; the workers ignore it and leave it to this one.
            # Imported here: no other path pays for it
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(
                config.workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)
            ))
            chunk = max(1, len(todo) // (config.workers * 4))
            fresh = pool.imap(_scan_partition, todo, chunk)
        else:
            fresh = map(_scan_partition, todo)
        # results stream back in partition order, a chunk at a time, and each
        # record is appended as it arrives.  An interrupted sweep keeps every
        # record written; a resume scans the rest, among them the partitions
        # that had finished but not come back: each worker's chunk in hand,
        # and any chunk done ahead of an earlier one still running
        for (d, j, *_), sd_masks in zip(todo, fresh):
            sets = sorted(map(IntSet.from_mask, sd_masks), key=lambda a: a.elements)
            pid = _partition_id(d, j)
            done[pid] = sets
            if path:
                ckpt.write(_record_line({
                    "partition_id": pid,
                    "diameter": d,
                    "tallies": {
                        "examined": len(sets),
                        "sum_dominant": [str(a) for a in sets],
                    },
                }))
                ckpt.flush()

    per_diameter = {
        d: {"examined": class_count(d, size_lo, size_hi), "sum_dominant": 0}
        for d in range(config.diameter_min, config.diameter_max + 1)
    }
    found: list[IntSet] = []
    for d, j, _ in parts:
        sets = done[_partition_id(d, j)]
        per_diameter[d]["sum_dominant"] += len(sets)
        found.extend(sets)

    found.sort(key=lambda w: (w.diameter, w.elements))
    total = sum(t["examined"] for t in per_diameter.values())
    return total, per_diameter, found


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


def _shifted_union_sizes(fe, ge, shifts):
    """(s, |A+A|, |A-A|) of A = F | (G + s) for each integer s in shifts.

    F and G are finite sets of nonnegative integers that hold 0, given by
    their elements fe and ge (any order, repeats allowed).  Their sums and
    differences are built once: F+F, G+G, F+G, the nonnegative halves of F-F
    and G-G, and G-F and F-G held at offsets max F and max G, so no mask is
    wider than |s| needs.  Each shift then costs a few shifts of these and
    two popcounts; no mask of A is built or decoded.
    """
    mf, mg = max(fe), max(ge)
    f = sum(1 << x for x in set(fe))
    g = sum(1 << y for y in set(ge))
    ff, fd = _sum_diff_masks(f, fe)
    gg, gd = _sum_diff_masks(g, ge)
    # (G << max F) + F is F + G + max F, and (G << max F) - F is G - F + max F
    fg, gf = _sum_diff_masks(g << mf, fe)
    fg >>= mf
    fmg = _sum_diff_masks(f << mg, ge)[1]  # F - G + max G
    parts = fd | gd
    for s in shifts:
        if s >= 0:
            sums = ff | fg << s | gg << 2 * s
            diffs = parts | (gf << s) >> mf | fmg >> (s + mg)
        else:  # A - s is G | (F - s): the same with F and G swapped
            sums = gg | fg << -s | ff << -2 * s
            diffs = parts | (fmg << -s) >> mg | gf >> (mf - s)
        yield s, sums.bit_count(), 2 * diffs.bit_count() - 1


def explore_two_ap_unions(
    max_len: int = 6, max_step: int = 5, max_shift: int = 40
) -> VerificationReport:
    """Classify every union of two arithmetic progressions on the grid.

    The first progression starts at 0 (translation), steps satisfy d1 <= d2
    (swap symmetry), and the second progression's start ranges over
    [-max_shift, max_shift].  Any sum-dominant union is reported as a
    counterexample; a clean run is a statement about this grid only.  Each
    pair of progressions builds its part masks once (`_shifted_union_sizes`),
    so a shift costs a few shifts and two popcounts; a union is built as a
    set only when it is reported.
    """
    if min(max_len, max_step, max_shift) < 1:
        raise ValueError("all grid bounds must be >= 1")
    report = VerificationReport(
        check="two-ap-unions",
        grid=f"lengths<={max_len}, steps<={max_step}, |shift|<={max_shift}",
    )
    # the elements of each progression AP(0, d, n), keyed in grid order: n, then d
    aps = {
        (n, d): APSpec(0, d, n).elements()
        for n in range(1, max_len + 1)
        for d in range(1, max_step + 1)
    }
    shifts = range(-max_shift, max_shift + 1)
    for (n1, d1), first in aps.items():
        for (n2, d2), second in aps.items():
            if d2 < d1:
                continue
            for a2, nsum, ndiff in _shifted_union_sizes(first, second, shifts):
                report.cases += 1
                if nsum > ndiff:
                    report.add_violation(
                        IntSet.from_iterable(first + APSpec(a2, d2, n2).elements()),
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
        if len(candidates) < k:
            report.notes.append(f"k={k}: the window holds fewer than {k} candidates")
        elif hit is None:
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
