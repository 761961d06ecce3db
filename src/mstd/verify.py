"""Grid verifiers: every claim the toolkit rests on, checked over finite grids.

Each verifier enumerates an explicit search space, asserts the claimed
property case by case, and returns a VerificationReport whose violations
list carries counterexample witnesses (re-profiled before emission).  Grids
and seeds are echoed so any report can be reproduced exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, lcm, log
from operator import index
from typing import Iterator, Optional, Sequence

from .reports import DEFAULT_SEED, VerificationReport
from .search import (
    SearchConfig,
    explore_min_additions,
    explore_two_ap_unions,
    scan_sum_dominant,
)
from .setcore import (
    IntSet,
    _bit_indices,
    mask_sizes,
    pair_counts_of,
    sizes_of,
    sum_diff_sizes,
)
from .structure import insertion_delta

RANDOM_SET_MAX_SIZE = 12
RANDOM_SET_WINDOW = (0, 64)

GROWTH_PRESETS = {
    # name: (terms, r, n, ell)
    "fib13": ((0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233), 3, 2, 5),
    "geo10": (tuple(5**k * 3 ** (9 - k) for k in range(10)), 2, 2, 4),
}


@dataclass(frozen=True)
class GrowthSequence:
    """Strictly increasing nonnegative terms with growth margin r.

    Requires a_k > a_{k-1} + a_{k-r} for every k >= r+1 (1-indexed), the
    hypothesis under which prefixes resist sum-dominance.
    """

    terms: tuple[int, ...]
    r: int

    def __post_init__(self):
        # a float or Fraction raises TypeError; a bool is stored as an int
        object.__setattr__(self, "r", index(self.r))
        object.__setattr__(self, "terms", tuple(map(index, self.terms)))
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        t, r = self.terms, self.r
        if not t or t[0] < 0:
            raise ValueError("terms must be nonnegative")
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise ValueError("terms must be strictly increasing")
        if any(t[k] <= t[k - 1] + t[k - r] for k in range(r, len(t))):
            raise ValueError(f"terms violate a_k > a_(k-1) + a_(k-r) for r={r}")


@dataclass(frozen=True)
class Theorem3Params:
    """Prefix/insertion parameters for the growth-sequence criterion.

    The checked prefix has size 2r + n + ell; inserting m arbitrary values is
    covered when m*size + m(m+1)/2 <= ell*(n+1).
    """

    r: int
    n: int
    ell: int
    m: int = 1
    window: tuple[int, int] = (-50, 100)

    def __post_init__(self):
        # a float or Fraction raises TypeError; a bool is stored as an int
        for name in ("r", "n", "ell", "m"):
            object.__setattr__(self, name, index(getattr(self, name)))
        lo, hi = map(index, self.window)
        object.__setattr__(self, "window", (lo, hi))
        if self.r < 1 or self.n < 0 or self.ell < 0 or self.m < 0:
            raise ValueError("need r >= 1 and n, ell, m >= 0")
        if lo > hi:
            raise ValueError("empty window")
        if self.m > hi - lo + 1:
            raise ValueError(
                f"m={self.m} distinct insertions need a window of at least "
                f"{self.m} integers; [{lo},{hi}] holds {hi - lo + 1}"
            )


def verify_small_cardinality(
    max_size: int = 5, max_diameter: int = 30, workers: int = 1
) -> VerificationReport:
    """Exhaust all canonical sets with |A| <= max_size and bounded diameter.

    Every sum-dominant set found is a violation; a pass certifies the slice.
    """
    if max_size < 1 or max_diameter < 0:
        raise ValueError("need max_size >= 1 and max_diameter >= 0")
    report = VerificationReport(
        check="small-cardinality", grid=f"size<={max_size}, diameter<={max_diameter}"
    )
    config = SearchConfig(
        diameter_max=max_diameter, size_max=max_size, workers=workers
    )
    report.cases, _per_d, sd_sets = scan_sum_dominant(config)
    for w in sd_sets:
        report.add_violation(w, f"size={len(w)} diameter={w.diameter}")
    return report.finish()


def _grids(n_min: int, n_max: int, window: Optional[tuple[int, int]], q_max: int):
    """Each n with the rationals of denominator <= q_max in window or [-2n, 3n]."""
    for n in range(n_min, n_max + 1):
        lo, hi = window or (-2 * n, 3 * n)
        qs = range(1, q_max + 1)
        yield n, sorted({Fraction(p, q) for q in qs for p in range(lo * q, hi * q + 1)})


def _segment_with(n: int, xs: Sequence[Fraction]) -> list[int]:
    """I_n together with the rationals xs, times L = lcm of their denominators.

    A dilation keeps the class.  No gcd is left to divide out: each prime
    power r^a exactly dividing L exactly divides some denominator q of an
    x = p/q, and r divides neither p nor L/q, so r does not divide p*L/q.
    ``sizes_of`` gates on window bits per listed integer, so each inserted
    integer is listed once (x = y counts once) and one on I_n times L twice,
    which it allows; it gates before any mask, as L can be too large for one.
    """
    try:
        den = lcm(*[x.denominator for x in xs])
    except AttributeError:  # a float or Decimal, which RationalSet refuses too
        raise TypeError(f"expected ints or Fractions, got {xs}") from None
    inserted = {x.numerator * (den // x.denominator) for x in xs}
    return [*range(0, n * den, den), *inserted]


def ap_plus_two_violation(n: int, x: Fraction, y: Fraction) -> Optional[IntSet]:
    """I_n with x and y inserted, if that set is sum-dominant (a counterexample).

    The claim covers every n >= 1 and every pair of rationals; x = y and
    points inside I_n are allowed.
    """
    if n < 1:
        raise ValueError(f"ap-plus-two needs n >= 1, got n={n}")
    a = _segment_with(n, (x, y))
    nsum, ndiff = sizes_of(a)
    return IntSet.from_iterable(a) if nsum > ndiff else None


def in_deficit_domain(n: int, x: Fraction) -> bool:
    """n >= 2, x not congruent to 1/2 mod 1, and x not an integer in [-1, n]."""
    q = getattr(x, "denominator", None)  # None for a float or Decimal
    if q is None:
        raise TypeError(f"expected an int or Fraction, got {x!r}")
    return n >= 2 and q != 2 and not (q == 1 and -1 <= x <= n)


def insertion_deficit_violation(n: int, x: Fraction) -> Optional[IntSet]:
    """I_n with x inserted, if that set has |A-A| < |A+A| + 1 (a counterexample)."""
    if not in_deficit_domain(n, x):
        raise ValueError(
            f"insertion-deficit claims nothing at n={n}, x={x}: it needs n >= 2, "
            "x not congruent to 1/2 mod 1 and x not an integer in [-1, n]"
        )
    a = _segment_with(n, (x,))
    nsum, ndiff = sizes_of(a)
    return IntSet.from_iterable(a) if ndiff < nsum + 1 else None


def verify_points(check: str, grid: str, predicate, points) -> VerificationReport:
    """Apply a point predicate to (n, x[, y]) grid points, recording violations.

    The grid verifiers below and the CLI's explicit ``--case`` points share it.
    """
    report = VerificationReport(check=check, grid=grid)
    for point in points:
        report.cases += 1
        witness = predicate(*point)
        if witness is not None:
            names = " ".join(f"{k}={v}" for k, v in zip("xy", point[1:]))
            report.add_violation(witness, f"n={point[0]} {names}")
    return report.finish()


def _window_desc(window: Optional[tuple[int, int]]) -> str:
    """Grid label for an explicit window, or for the default [-2n, 3n] per n."""
    if window is None:
        return "[-2n,3n]"
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window [{lo},{hi}]")
    return f"[{lo},{hi}]"


def verify_ap_plus_two(
    n_max: int = 8, window: Optional[tuple[int, int]] = None, q_max: int = 2
) -> VerificationReport:
    """Check that I_n plus at most two bounded-denominator rationals never turns sum-dominant.

    The pair grid includes x = y (single insertion) and points inside I_n, so
    the one-insertion and pure-AP cases ride along for free.  Mixed
    integrality of x+y versus x-y is exercised rather than assumed.
    """
    if n_max < 1 or q_max < 1:
        raise ValueError("need n_max >= 1 and q_max >= 1")
    wdesc = _window_desc(window)

    points = (
        (n, x, y)
        for n, vals in _grids(1, n_max, window, q_max)
        for i, x in enumerate(vals)
        for y in vals[i:]
    )
    return verify_points(
        "ap-plus-two",
        f"n<={n_max}, x,y in {wdesc} with denominator<={q_max}",
        ap_plus_two_violation,
        points,
    )


def verify_insertion_deficit(
    n_max: int = 8, window: Optional[tuple[int, int]] = None, q_max: int = 4
) -> VerificationReport:
    """Check |A-A| >= |A+A| + 1 for A = I_n with one rational inserted.

    Applies for n >= 2 when the inserted x is not congruent to 1/2 mod 1 and
    is a genuinely new element (x outside I_n and not the AP-extending values
    -1 or n, all of which give balanced sets).
    """
    if n_max < 2 or q_max < 1:
        raise ValueError("need n_max >= 2 and q_max >= 1")
    wdesc = _window_desc(window)

    points = (
        (n, x)
        for n, vals in _grids(2, n_max, window, q_max)
        for x in vals
        if in_deficit_domain(n, x)
    )
    return verify_points(
        "insertion-deficit",
        f"2<=n<={n_max}, x in {wdesc} with denominator<={q_max}, "
        f"x-1/2 not integral, x not in I_n+{{-1,n}}",
        insertion_deficit_violation,
        points,
    )


def verify_proposition2(n_max: int = 20) -> VerificationReport:
    """Exact insertion deltas for x = (n-1)+k into I_n: k+1 sums, k differences."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    report = VerificationReport(
        check="insertion-delta-exactness", grid=f"2<=n<={n_max}, 1<=k<=n-1"
    )
    for n in range(2, n_max + 1):
        base = IntSet(tuple(range(n)))
        for k in range(1, n):
            report.cases += 1
            delta = insertion_delta(base, (n - 1) + k)
            if delta.as_tuple() != (k + 1, k):
                report.add_violation(
                    IntSet(base.elements + ((n - 1) + k,)),
                    f"n={n} k={k} got {delta.as_tuple()} want ({k + 1},{k})",
                )
    return report.finish()


def exhaustive_translation_corpus(max_diameter: int) -> Iterator[IntSet]:
    """All sets with diameter <= max_diameter, one per translation class.

    They are the odd masks below 2^(max_diameter + 1): by diameter, then by
    the interior bits.
    """
    return map(IntSet.from_mask, _translation_masks(max_diameter))


def _translation_masks(max_diameter: int) -> range:
    if max_diameter < 0:
        raise ValueError(f"need max_diameter >= 0, got {max_diameter}")
    return range(1, 2 << max_diameter, 2)


def random_corpus(trials: int, seed: int = DEFAULT_SEED) -> Iterator[IntSet]:
    """Seeded random sets: uniform size, then uniform distinct elements.

    The sets of `_random_tuples`, each sorted into an IntSet.
    """
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    return map(IntSet.from_iterable, _random_tuples(trials, seed))


def _sample_uses_pool(n: int, k: int) -> bool:
    """Whether ``random.sample`` draws k of n by swap-removing from a pool.

    Its own rule: the pool when an n-list is smaller than a k-set.
    """
    setsize = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
    return n <= setsize


def _random_tuples(trials: int, seed: int) -> Iterator[tuple[int, ...]]:
    """Per trial, the set of ``rng.sample(window, rng.randint(1, max size))``.

    ``rng`` is ``random.Random(seed)``.  The draws call its ``getrandbits``
    directly, with ``_randbelow``'s rejection steps and the method ``sample``
    picks, so the sets are the stdlib's without its three or four Python
    frames per draw.  Each comes unsorted, as the pool method draws it or as
    the set method's set iterates: `pair_counts_of` takes any order.
    """
    lo, hi = RANDOM_SET_WINDOW
    n = hi - lo + 1
    if n < RANDOM_SET_MAX_SIZE:
        raise ValueError(
            f"window [{lo},{hi}] holds fewer than {RANDOM_SET_MAX_SIZE} integers"
        )
    getrandbits = random.Random(seed).getrandbits
    size_bits = RANDOM_SET_MAX_SIZE.bit_length()
    n_bits = n.bit_length()
    universe = list(range(lo, hi + 1))
    uses_pool = [_sample_uses_pool(n, k) for k in range(RANDOM_SET_MAX_SIZE + 1)]
    # the pool method's k steps: pool[:m] is not yet picked, m has bits bits
    steps = [
        tuple((m, m.bit_length()) for m in range(n, n - k, -1))
        for k in range(RANDOM_SET_MAX_SIZE + 1)
    ]
    for _ in range(trials):
        k = getrandbits(size_bits)
        while k >= RANDOM_SET_MAX_SIZE:
            k = getrandbits(size_bits)
        k += 1
        if uses_pool[k]:
            pool = universe[:]
            picked = []
            for m, bits in steps[k]:
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                picked.append(pool[j])
                pool[j] = pool[m - 1]
        else:
            picked = set()
            while len(picked) < k:
                j = getrandbits(n_bits)
                if j < n:
                    picked.add(lo + j)
        yield tuple(picked)


def verify_observation6(
    trials: int = 100_000, seed: int = DEFAULT_SEED, max_diameter: int = 12
) -> VerificationReport:
    """Check 2 * equal_sum_pairs >= equal_diff_pairs, exhaustively then randomly.

    Each set is held to the identity 2 * ESP - EDP = (T - |A|) / 2, with
    T = #{(x, y, a) in A^3 : x + y = 2a}, which is stronger: T >= |A| from the
    triples (a, a, a).  The kernel counts ESP, EDP and T each from its own
    definition, so the identity is not a tautology of the code.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    report = VerificationReport(
        check="equal-pair-inequality",
        grid=f"exhaustive diameter<={max_diameter} plus {trials} random sets "
        f"(size<={RANDOM_SET_MAX_SIZE}, window={list(RANDOM_SET_WINDOW)})",
        seed=seed,
    )
    total_t = 0
    # the corpora of exhaustive_translation_corpus and random_corpus, as
    # element sequences: an IntSet is built only for a violation
    for label, corpus in (
        ("exhaustive", map(_bit_indices, _translation_masks(max_diameter))),
        ("random", _random_tuples(trials, seed)),
    ):
        for i, els in enumerate(corpus):
            report.cases += 1
            esp, edp, t = pair_counts_of(els)
            total_t += t
            if 2 * (2 * esp - edp) != t - len(els):
                report.add_violation(
                    IntSet.from_iterable(els),
                    f"{label} #{i}: 2*ESP-EDP={2 * esp - edp}, T={t}",
                )
    report.notes.append(
        f"exact on every set: 2*ESP - EDP = (T - |A|)/2, sum of T = {total_t}"
    )
    return report.finish()


def _symmetric_masks(max_diameter: int) -> Iterator[int]:
    """Masks of all symmetric sets with min 0 and diameter <= max_diameter.

    Built from mirrored halves: any subset of the h positions strictly left
    of the center, its mirror image, the endpoints, and (for even diameter)
    an optional center.  Bit i of a half's mirror is bit h - 1 - i of the
    half, so the mirror table fills from the half shifted right by one.
    """
    yield 1
    for d in range(1, max_diameter + 1):
        h = (d + 1) // 2 - 1
        centers = (0, 1 << (d // 2)) if d % 2 == 0 else (0,)
        mirror = [0] * (1 << h)
        for bits in range(1, 1 << h):
            mirror[bits] = (mirror[bits >> 1] >> 1) | ((bits & 1) << (h - 1))
        ends = 1 | (1 << d)
        for bits in range(1 << h):
            half = ends | (bits << 1) | (mirror[bits] << (d - h))
            for c in centers:
                yield half | c


def verify_symmetric_balanced(max_diameter: int = 30) -> VerificationReport:
    """Every generated symmetric set must classify as balanced."""
    if max_diameter < 0:
        raise ValueError("need max_diameter >= 0")
    report = VerificationReport(
        check="symmetric-balanced", grid=f"mirrored halves, diameter<={max_diameter}"
    )
    for mask in _symmetric_masks(max_diameter):
        report.cases += 1
        nsum, ndiff = mask_sizes(mask)
        if nsum != ndiff:
            report.add_violation(
                IntSet.from_mask(mask), f"diameter={mask.bit_length() - 1}"
            )
    return report.finish()


def verify_growth_criterion(
    seq: GrowthSequence,
    params: Theorem3Params,
    subset_budget: int = 50,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Check the growth-sequence criterion on prefixes, subsets and insertions.

    Pre-checks that no subset of the supplied terms with size <= 2r+n is
    sum-dominant, then asserts for the prefix of size 2r+n+ell (and up to
    subset_budget random same-size subsets) that the set is not sum-dominant
    with |S-S| - |S+S| >= ell*(n+1), and that inserting every m-tuple from
    the window (exhaustive for m = 1, seeded sample otherwise) never yields a
    sum-dominant set.
    """
    if params.r != seq.r:
        raise ValueError(f"params.r={params.r} does not match sequence r={seq.r}")
    size = 2 * params.r + params.n + params.ell
    if len(seq.terms) < size:
        raise ValueError(f"need at least {size} terms, got {len(seq.terms)}")
    if subset_budget < 0:
        raise ValueError(f"need subset_budget >= 0, got {subset_budget}")
    bound = params.ell * (params.n + 1)
    lhs = params.m * size + params.m * (params.m + 1) // 2
    if lhs > bound:  # m = 0 gives lhs = 0 <= bound
        raise ValueError(
            f"inadmissible insertion count: m*|S| + m(m+1)/2 = {lhs} > {bound} = ell*(n+1)"
        )

    lo, hi = params.window
    report = VerificationReport(
        check="growth-criterion",
        grid=f"{len(seq.terms)} terms, r={params.r}, n={params.n}, "
        f"ell={params.ell}, m={params.m}, window=[{lo},{hi}]",
        seed=seed,
    )

    # hypothesis: no small subset of the terms is sum-dominant
    small_cap = 2 * params.r + params.n
    for k in range(1, small_cap + 1):
        for sub in combinations(seq.terms, k):
            report.cases += 1
            nsum, ndiff = sizes_of(sub)
            if nsum > ndiff:
                report.add_violation(IntSet(sub), f"hypothesis subset size={k}")

    rng = random.Random(seed)
    subjects = [IntSet(seq.terms[:size])]
    if len(seq.terms) > size:
        for _ in range(subset_budget):
            idx = sorted(rng.sample(range(len(seq.terms)), size))
            subjects.append(IntSet(tuple(seq.terms[i] for i in idx)))

    for si, s in enumerate(subjects):
        label = "prefix" if si == 0 else f"subset#{si}"
        report.cases += 1
        nsum, ndiff = sum_diff_sizes(s)
        deficit = ndiff - nsum
        if deficit < bound:  # bound >= 0, so this rules out nsum > ndiff too
            report.add_violation(s, f"{label} deficit={deficit} < {bound}")
        if si == 0:
            rel = "=" if deficit == bound else ">"
            report.notes.append(
                f"prefix deficit |S-S|-|S+S| = {deficit} {rel} {bound} = ell*(n+1)"
            )
        if params.m == 0:
            continue
        if params.m == 1:
            tuples = ((b,) for b in range(lo, hi + 1))
        else:
            tuples = (
                tuple(sorted(rng.sample(range(lo, hi + 1), params.m)))
                for _ in range(subset_budget)
            )
        for bs in tuples:
            report.cases += 1
            nsum, ndiff = sizes_of(s.elements + bs)
            if nsum > ndiff:
                report.add_violation(
                    IntSet.from_iterable(s.elements + bs), f"{label} + {list(bs)}"
                )

    if params.m >= 1:
        rel = "=" if lhs == bound else "<"
        report.notes.append(f"admissibility m*|S|+m(m+1)/2 = {lhs} {rel} {bound}")
    return report.finish()


def verify_size5_witnesses() -> VerificationReport:
    """The two size-5 boundary sets must be balanced with 11 sums and 11 differences."""
    report = VerificationReport(check="size5-witnesses", grid="two fixed sets")
    for els in ((0, 1, 3, 4, 5), (0, 1, 2, 4, 5)):
        report.cases += 1
        a = IntSet(els)
        nsum, ndiff = sum_diff_sizes(a)
        if not (nsum == ndiff == 11):
            report.add_violation(a, f"sizes ({nsum},{ndiff}) != (11,11)")
    return report.finish()


def verify_all(seed: int = DEFAULT_SEED, workers: int = 1) -> list[VerificationReport]:
    """The twelve reports of ``mstd verify all``, in a fixed order.

    Every check and explorer runs on its default grid and thm3 on each growth
    preset; thm1 adds a second slice (size <= 7, diameter <= 20), and lemma3
    runs at diameter <= 20.
    """
    return [
        verify_small_cardinality(workers=workers),
        verify_small_cardinality(7, 20, workers=workers),
        verify_ap_plus_two(),
        verify_insertion_deficit(),
        verify_proposition2(),
        verify_observation6(seed=seed),
        verify_symmetric_balanced(20),
        *(
            verify_growth_criterion(
                GrowthSequence(terms, r), Theorem3Params(r, n, ell), seed=seed
            )
            for terms, r, n, ell in GROWTH_PRESETS.values()
        ),
        verify_size5_witnesses(),
        explore_two_ap_unions(),
        explore_min_additions(),
    ]
