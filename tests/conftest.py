"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid every production code path: plain double
loops over element lists, triple loops for midpoint triples and quadruple
loops for collision counts.
"""

from __future__ import annotations

from math import gcd

import pytest

A1 = (0, 2, 3, 4, 7, 11, 12, 14)
FIB13 = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)
GEO10 = tuple(5**k * 3 ** (9 - k) for k in range(10))


def naive_sumset(xs):
    return sorted({a + b for a in xs for b in xs})


def naive_diffset(xs):
    return sorted({a - b for a in xs for b in xs})


def naive_class(xs):
    ns, nd = len(naive_sumset(xs)), len(naive_diffset(xs))
    return "sum-dominant" if ns > nd else ("balanced" if ns == nd else "difference-dominant")


def naive_equal_diff_pairs(xs):
    """Unordered pairs of distinct (i<j) index pairs with equal differences."""
    pairs = [
        (xs[j] - xs[i], (i, j))
        for i in range(len(xs))
        for j in range(i + 1, len(xs))
    ]
    return sum(
        1
        for a in range(len(pairs))
        for b in range(a + 1, len(pairs))
        if pairs[a][0] == pairs[b][0]
    )


def naive_equal_sum_pairs(xs):
    """Unordered pairs of distinct {i<=j} index multisets with equal sums."""
    pairs = [
        (xs[i] + xs[j], (i, j)) for i in range(len(xs)) for j in range(i, len(xs))
    ]
    return sum(
        1
        for a in range(len(pairs))
        for b in range(a + 1, len(pairs))
        if pairs[a][0] == pairs[b][0]
    )


def naive_midpoint_triples(xs):
    """Ordered triples (x, y, a) of elements with x + y = 2a."""
    return sum(1 for x in xs for y in xs for a in xs if x + y == 2 * a)


def tallied_pair_counts(xs):
    """(equal-sum pairs, equal-difference pairs, midpoint triples) by tallies.

    For sets too large for the quadruple loops above: double loops tally each
    pair sum and positive difference, and a value shared by c pairs gives
    c(c-1)/2 equal pairs; midpoint triples by a double loop and a lookup.
    """
    sums, diffs = {}, {}
    for i in range(len(xs)):
        for j in range(i, len(xs)):
            sums[xs[i] + xs[j]] = sums.get(xs[i] + xs[j], 0) + 1
            if j > i:
                diffs[xs[j] - xs[i]] = diffs.get(xs[j] - xs[i], 0) + 1
    members = set(xs)
    return (
        sum(c * (c - 1) // 2 for c in sums.values()),
        sum(c * (c - 1) // 2 for c in diffs.values()),
        sum(1 for x in xs for y in xs if (x + y) % 2 == 0 and (x + y) // 2 in members),
    )


def naive_profile(xs):
    """A profile's JSON fields of a sorted list, by the loops above.

    (|A+A|, |A-A|, equal-sum pairs, equal-difference pairs, symmetry centre,
    AP): the centre is min + max when A is its own reflection about it, the
    AP is the gaps' one value when they share one (step 1 for a singleton).
    """
    esp, edp, _ = tallied_pair_counts(xs)
    centre = xs[0] + xs[-1]
    gaps = {y - x for x, y in zip(xs, xs[1:])}
    return (
        len(naive_sumset(xs)),
        len(naive_diffset(xs)),
        esp,
        edp,
        centre if {centre - x for x in xs} == set(xs) else None,
        {"first": xs[0], "step": min(gaps, default=1), "length": len(xs)}
        if len(gaps) <= 1
        else None,
    )


def lex_canonical_classes(d_min, d_max, size_lo, size_hi):
    """Canonical affine classes as element tuples, by a plain tuple DFS.

    Subsets of [0, d] holding 0 and d, with element gcd 1, no larger than
    their reflection; diameter ascending, then lexicographic.
    """
    for d in range(d_min, d_max + 1):
        if d == 0:
            if size_lo <= 1 <= size_hi:
                yield (0,)
            continue
        yield from _lex_dfs((0,), 0, d, size_lo, size_hi)


def _lex_dfs(prefix, g, d, size_lo, size_hi):
    # g carries the running gcd of the prefix elements
    for e in range(prefix[-1] + 1, d + 1):
        ge = gcd(g, e)
        if e == d:
            n = len(prefix) + 1
            if size_lo <= n <= size_hi and ge == 1:
                els = prefix + (d,)
                if els <= tuple(d - x for x in reversed(els)):
                    yield els
        elif len(prefix) + 2 <= size_hi:
            yield from _lex_dfs(prefix + (e,), ge, d, size_lo, size_hi)


def naive_ap_plus_two_decomposition(a):
    """Split A = B ∪ E, B an AP and |E| <= 2, by trying every removal.

    Smallest E first, then the lexicographically smallest E; None when no
    removal of at most two elements leaves an arithmetic progression.  Unlike
    the plain-loop oracles above it calls ``detect_ap`` on each remainder:
    it checks setcore's run walk, not the AP test.
    """
    from mstd import IntSet, detect_ap

    a._require_nonempty()
    els = a.elements
    n = len(els)
    ap = detect_ap(a)
    if ap is not None:
        return ap, IntSet(())
    for i in range(n):
        rest = IntSet(els[:i] + els[i + 1 :])
        ap = detect_ap(rest) if len(rest) >= 1 else None
        if ap is not None:
            return ap, IntSet((els[i],))
    for i in range(n):
        for j in range(i + 1, n):
            kept = els[:i] + els[i + 1 : j] + els[j + 1 :]
            if not kept:
                continue
            ap = detect_ap(IntSet(kept))
            if ap is not None:
                return ap, IntSet((els[i], els[j]))
    return None


class Index:
    """An integer type that is no int, as a numpy integer is: only __index__."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


def record_kernel(monkeypatch, module, entry="mask_sizes", force=False):
    """What a grid in ``module`` hands the kernel entry ``entry``, in order.

    ``entry`` is ``mask_sizes`` (a mask) or ``sizes_of`` (a sequence of
    integers).  With ``force`` every case gets the sizes (1, 0):
    sum-dominant, unbalanced and below the deficit bound, so each case is a
    violation.
    """
    seen = []
    real = getattr(module, entry)

    def record(arg):
        seen.append(arg)
        return (1, 0) if force else real(arg)

    monkeypatch.setattr(module, entry, record)
    return seen


@pytest.fixture
def a1_set():
    from mstd import IntSet

    return IntSet(A1)
