"""Exact arithmetic, classification, and canonical forms for finite integer sets.

Sets are immutable, sorted tuples of integers.  Sumset/difference-set
cardinalities are computed on a dense bitmask over the set's window (a Python
int doubles as an arbitrary-width machine bitset), shifted by each element the
caller holds, or by each set bit of a mask alone: |A| x window bit operations.
A set given by its elements goes pairwise, |A|^2 / 2 hashed visits, when its
window exceeds a fixed number of bits per element; a built mask always runs
dense.  A mask is decoded in one pass over its binary digits, so `sumset` and
`diffset` decode one only if it has no more bits than pairs.
Equal-sum and equal-difference pair counts likewise convolve the window by
big-int multiplication (Kronecker substitution), one byte per count up to 256
elements, or count the pairs; they take the elements in any order.  p*p
holds the ordered pairs r_s per sum, and since (x, y) and (y, x) match up
unless x = y, the unordered count is ceil(r_s / 2), read through a table.
Only the middle sum, min + max, can hold |A| pairs; one comes off it first.
`sizes_of` and an IntSet's first count share one builder.  An IntSet keeps
what it builds, outside ==, hash, repr and asdict: its sizes, and A+A and
A-A as bitmasks over a dense window (with the element mask) or as unsorted
tuples over a wider one.  `sum_diff_sizes`, `classify` and `profile` read
it, `sumset` and `diffset` decode or sort it, and `insertion_growth` counts
only what a new element x adds: x + A, 2x and |x - A|, against the kept sets.
"""

from __future__ import annotations

import enum
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from numbers import Rational
from operator import index, lt, mul
from typing import Iterable, Iterator, Optional, Sequence


class EmptySetError(ValueError):
    """Raised when an operation needs at least one element."""


class SetLiteralError(ValueError):
    """Malformed set literal; carries the 1-based index of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class SetClass(enum.Enum):
    SUM_DOMINANT = "sum-dominant"
    BALANCED = "balanced"
    DIFFERENCE_DOMINANT = "difference-dominant"

    @classmethod
    def from_sizes(cls, nsum: int, ndiff: int) -> "SetClass":
        """The class of a set with |A+A| = nsum and |A-A| = ndiff."""
        if nsum > ndiff:
            return cls.SUM_DOMINANT
        if nsum < ndiff:
            return cls.DIFFERENCE_DOMINANT
        return cls.BALANCED


@dataclass(frozen=True)
class IntSet:
    """Finite set of integers, stored strictly increasing."""

    elements: tuple[int, ...]

    def __post_init__(self):
        els = self.elements
        if type(els) is not tuple:  # a list is stored as a tuple, so it hashes
            els = tuple(els)
        for e in els:
            if type(e) is not int:  # a bool or numpy int is stored as its int
                els = tuple(map(index, els))  # a float or Fraction: TypeError
                break
        if els is not self.elements:
            object.__setattr__(self, "elements", els)
        if not all(map(lt, els, els[1:])):
            raise ValueError(f"elements must be strictly increasing: {els}")

    @classmethod
    def _trusted(cls, els: tuple[int, ...]) -> "IntSet":
        """The set of els, a strictly increasing tuple of exact ints, unchecked."""
        a = object.__new__(cls)
        object.__setattr__(a, "elements", els)
        return a

    @classmethod
    def from_iterable(cls, xs: Iterable[int]) -> "IntSet":
        """The set of the integers xs; a float or Fraction raises TypeError."""
        return cls._trusted(tuple(sorted(set(map(index, xs)))))  # index: exact int

    @classmethod
    def from_mask(cls, mask: int, lo: int = 0) -> "IntSet":
        """The set {lo + i : bit i of mask is set}; the inverse of ``mask``."""
        if mask < 0:
            raise ValueError(f"mask must be nonnegative: {mask}")
        return cls._trusted(tuple(_bit_indices(mask, lo)))  # a float lo: TypeError

    @classmethod
    def parse(cls, text: str) -> "IntSet":
        """Parse a comma-separated integer literal like "0,2,3,4"."""
        return cls.from_iterable(_parse_tokens(text, allow_rational=False))

    @property
    def min(self) -> int:
        self._require_nonempty()
        return self.elements[0]

    @property
    def max(self) -> int:
        self._require_nonempty()
        return self.elements[-1]

    @property
    def diameter(self) -> int:
        return self.max - self.min

    def _require_nonempty(self):
        if not self.elements:
            raise EmptySetError("operation requires a nonempty set")

    @cached_property
    def _kept(self) -> tuple:
        return _sum_diff_of(self.elements)  # kept in __dict__, not a dataclass field

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.elements)

    def mask(self) -> tuple[int, int]:
        """Dense bitmask of A - min(A) plus the offset min(A)."""
        self._require_nonempty()
        lo = self.elements[0]
        m = 0
        for e in self.elements:
            m |= 1 << (e - lo)
        return m, lo


@dataclass(frozen=True)
class APSpec:
    """Arithmetic progression {first + i*step : 0 <= i < length}."""

    first: int
    step: int
    length: int

    def __post_init__(self):
        for name in ("first", "step", "length"):  # a float or Fraction: TypeError
            object.__setattr__(self, name, index(getattr(self, name)))
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.step < 1:
            raise ValueError("step must be a positive integer")

    def elements(self) -> tuple[int, ...]:
        return tuple(self.first + i * self.step for i in range(self.length))

    def mask(self) -> int:
        """Dense bitmask of the progression less its first term."""
        return sum(1 << (i * self.step) for i in range(self.length))

    def to_json_dict(self) -> dict:
        return {"first": self.first, "step": self.step, "length": self.length}


@dataclass(frozen=True)
class RationalSet:
    """Exact rationals as integer numerators over one positive denominator.

    Normalized so gcd(denominator, gcd of numerators) = 1, which keeps the
    representation unique without changing any element value.
    """

    numerators: IntSet
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")
        g = self.denominator
        for n in self.numerators:
            g = gcd(g, n)
        if g > 1:
            object.__setattr__(
                self, "numerators", IntSet(tuple(n // g for n in self.numerators))
            )
            object.__setattr__(self, "denominator", self.denominator // g)

    @classmethod
    def from_fractions(cls, xs: Iterable[Fraction]) -> "RationalSet":
        """The set of the rationals xs; a float or Decimal raises TypeError."""
        fracs = set()
        for x in xs:
            if not isinstance(x, Rational):
                raise TypeError(f"expected an int or Fraction, got {x!r}")
            fracs.add(Fraction(x))
        fracs = sorted(fracs)
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        nums = IntSet(tuple(int(f * den) for f in fracs))
        return cls(nums, den)


@dataclass(frozen=True)
class SetProfile:
    """Full classification record for one set."""

    size: int
    sum_size: int
    diff_size: int
    set_class: SetClass
    equal_sum_pairs: int
    equal_diff_pairs: int
    diameter: int
    symmetry_center: Optional[int]
    ap: Optional[APSpec]

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "sum_size": self.sum_size,
            "diff_size": self.diff_size,
            "class": self.set_class.value,
            "equal_sum_pairs": self.equal_sum_pairs,
            "equal_diff_pairs": self.equal_diff_pairs,
            "diameter": self.diameter,
            "symmetry_center": self.symmetry_center,
            "ap": self.ap.to_json_dict() if self.ap else None,
        }


def _parse_tokens(text: str, allow_rational: bool):
    vals = []
    for i, tok in enumerate(text.split(","), start=1):
        tok = tok.strip()
        if not tok:
            raise SetLiteralError(f"empty token at position {i}", i)
        try:
            if "/" in tok:
                if not allow_rational:
                    raise ValueError("rational tokens not allowed here")
                p, q = tok.split("/")
                vals.append(Fraction(int(p), int(q)))
            else:
                vals.append(int(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise SetLiteralError(
                f"invalid token {tok!r} at position {i}: {exc}", i
            ) from None
    if not vals:
        raise SetLiteralError("empty set literal", 1)
    return vals


# Dense and pairwise break even between 384 and 768 window bits per element at
# |A| = 5..256 (measured).  A built mask runs dense: decoding costs O(width).
_DENSE_BITS_PER_ELEMENT = 512


def _use_dense(size: int, diameter: int) -> bool:
    return diameter + 1 <= _DENSE_BITS_PER_ELEMENT * size


def _bit_indices(mask: int, lo: int = 0) -> list[int]:
    """lo + i for each set bit i of mask, ascending.

    One pass over the binary digits: clearing the lowest bit in a loop would
    copy the whole int once per set bit.
    """
    return [i for i, c in enumerate(bin(mask)[:1:-1], lo) if c == "1"]


def _sum_diff_masks(mask: int, els=None, lo: int = 0) -> tuple[int, int]:
    """Bit-parallel A+A (width 2D+1) and nonnegative A-A (width D+1) of a mask,
    shifted by the elements els of A = lo + mask (any order, repeats allowed)
    when the caller holds them, else by each set bit of the mask alone.
    """
    sums = 0
    diffs = mask  # shift by element 0: the window is anchored at min(A)
    if els is not None:
        for x in els:
            sums |= mask << (x - lo)
            diffs |= mask >> (x - lo)
        return sums, diffs
    m = mask
    while m:
        lsb = m & -m
        i = lsb.bit_length() - 1
        sums |= mask << i
        diffs |= mask >> i
        m ^= lsb
    return sums, diffs


# The pair-count kernel convolves while the window is small next to the |A|^2
# pairs the Counter path visits: two products of byte-digit windows, then one
# pass over their digits.  The products grow faster than the window
# (Karatsuba), so the gate compares diameter^2 with |A|^3; wider windows, and
# their allocations, go pairwise.  Constants from a measured crossover.
_CONV_PAIR_FACTOR = 8
_CONV_SLACK = 4096
# Low and high byte of i^2 and of ceil(i/2)^2: bytes.translate squares a run
# of one-byte digits with no int per digit.
_SQ_LO = bytes([i * i & 255 for i in range(256)])
_SQ_HI = bytes([i * i >> 8 for i in range(256)])
_HALF_SQ_LO = bytes([(i + 1 >> 1) ** 2 & 255 for i in range(256)])
_HALF_SQ_HI = bytes([(i + 1 >> 1) ** 2 >> 8 for i in range(256)])
_DIGIT_TYPECODES = {2: "H", 4: "I", 8: "Q"}


def _use_convolution(size: int, diameter: int) -> bool:
    return diameter * diameter <= _CONV_PAIR_FACTOR * size * size * size + _CONV_SLACK


def _pair_sums_pairwise(els: Sequence[int]) -> tuple[int, int, int]:
    sums = Counter([x + y for i, x in enumerate(els) for y in els[i:]])
    diffs = Counter([y - x for i, x in enumerate(els) for y in els[i + 1 :]])
    return (
        sum(c * c for c in sums.values()),
        sum(c * c for c in diffs.values()),
        # r_2a = 2 u_2a - 1 ordered pairs: (a, a) and both orders of the rest
        2 * sum(sums[2 * x] for x in els) - len(els),
    )


def _spread(digits: bytearray, width: int) -> bytearray:
    out = bytearray(len(digits) * width)
    out[::width] = digits
    return out


def _pair_sums_by_digits(els: Sequence[int], lo: int, d: int) -> tuple[int, int, int]:
    # els in any order, lo = min A and d = max A - lo; digit e of p is
    # [lo + e in A], and r mirrors it
    n = len(els)
    # digit d of p*p loses one pair; then every digit read out is at most
    # n - 1, which one byte holds up to n = 256; a wider digit also holds
    # the n its halving below may reach
    width = 1 if n <= 256 else next(w for w in _DIGIT_TYPECODES if n < 256**w)
    one = bytearray(d + 1)
    for x in els:
        one[x - lo] = 1
    if width == 1:
        digits = one
        r = int.from_bytes(one, "big")
    else:  # each digit spreads over width bytes
        digits = _spread(one, width)
        # read big-endian, the digits run mirrored, each 1 in its top byte
        r = int.from_bytes(digits, "big") >> 8 * (width - 1)
    p = int.from_bytes(digits, "little")
    # digit s of p*p: r_s ordered pairs (x, y) with sum 2 lo + s.  r_s <= n,
    # with equality only at s = d (A = 2 lo + s - A forces s = d), and digit d
    # holds at least the pair (max, min), which comes off so that n = 256
    # stays on one byte; digit d + k of p*r: ordered pairs at difference k.
    # Digits d - k and d + k are equal, so only k >= 1 is read; the centre's
    # n pairs (x, x) come off first, as n itself may not fit one digit
    centre = 8 * width * d
    pp = p * p - (1 << centre)
    sums = pp.to_bytes((2 * d + 1) * width, "little")
    diffs = ((p * r - (n << centre)) >> centre + 8 * width).to_bytes(
        d * width, "little"
    )
    # (x, y) and (y, x) pair up unless x = y, so r_s is odd exactly when
    # s = 2(a - lo) for a in A, and u_s, the pairs {x <= y}, is ceil(r_s / 2)
    if width == 1:  # zero digits, most of a sparse window's, are dropped
        sq_sums = sum(sums.translate(_HALF_SQ_LO, b"\0"))
        sq_diffs = sum(diffs.translate(_SQ_LO, b"\0"))
        if n > 16:  # a digit past 15 (past 30 halved) has a two-byte square
            sq_sums += sum(sums.translate(_HALF_SQ_HI, b"\0")) << 8
            sq_diffs += sum(diffs.translate(_SQ_HI, b"\0")) << 8
    else:
        code = _DIGIT_TYPECODES[width]
        # digit by digit, ceil(r / 2) = (r + (r & 1)) >> 1: each digit is made
        # even, so the shift moves no bit into the digit below
        ones = int.from_bytes((b"\1" + bytes(width - 1)) * (2 * d + 1), "little")
        half = (pp + (pp & ones)) >> 1
        half = array(code, half.to_bytes(len(sums), "little"))
        sums, diffs = array(code, sums), array(code, diffs)
        if sys.byteorder == "big":
            half.byteswap()
            sums.byteswap()
            diffs.byteswap()
        sq_sums = sum(map(mul, half, half))
        sq_diffs = sum(map(mul, diffs, diffs))
    t = sum([sums[2 * (x - lo)] for x in els])  # r_2(a - lo) for a in A
    mid = sums[d]  # r_d - 1
    if not mid & 1:  # r_d is odd: d = 2(a - lo), a the midpoint of min and max
        sq_sums += mid + 1  # ceil((mid + 1) / 2)^2 - ceil(mid / 2)^2
        t += 1
    return sq_sums, sq_diffs, t


def equal_pair_counts(a: IntSet) -> tuple[int, int, int]:
    """(equal-sum pairs, equal-difference pairs, midpoint triples) of A.

    Equal-sum pairs: unordered pairs of index multisets {i <= j} that share a
    sum.  Equal-difference pairs: unordered pairs of index pairs (i < j) that
    share a positive difference.  Midpoint triples: T = #{(x, y, a) in A^3 :
    x + y = 2a}.  Each comes from its own representation function, never from
    another through the additive-energy identity: with u_s the pairs {x <= y}
    summing to s, r_s the ordered pairs and D_k the pairs x < y at difference
    k, the kernel sums u_s^2, D_k^2 and r_2a over a in A, from one Counter
    pass over the pairs or, for a small window, by Kronecker substitution:
    A - min A becomes p = sum 256^e, so p*p and p*mirror(p) hold r_s and D_k
    as one-byte digits (wider past 256 elements).  The pairs (x, y) and
    (y, x) match up unless x = y, so r_s is odd exactly when s/2 is in A and
    u_s = ceil(r_s / 2): the u_s^2 come from p*p's digits through a table of
    ceil(i/2)^2, and T reads the same digits at 2a, so a wrong table moves
    ESP and not T.  Only the middle digit of p*p, at max A + min A, can reach
    |A|; one pair comes off it before the readout and its share is added
    back.  The digits of p*mirror(p) mirror about its centre, so only those
    above it, the D_k at k >= 1, are read, each squared through a table.
    """
    a._require_nonempty()
    els = a.elements
    return _pair_counts(els, els[0], els[-1] - els[0])


def pair_counts_of(els: Sequence[int]) -> tuple[int, int, int]:
    """`equal_pair_counts` of the nonempty, distinct integers els, in any order.

    The verifier corpora call this with mask decodes and unsorted random
    draws, no IntSet.  The digit kernel needs only min and max; the pairwise
    path sorts for itself.
    """
    lo = min(els)
    return _pair_counts(els, lo, max(els) - lo)


def _pair_counts(els: Sequence[int], lo: int, d: int) -> tuple[int, int, int]:
    n = len(els)
    if _use_convolution(n, d):
        sq_sums, sq_diffs, t = _pair_sums_by_digits(els, lo, d)
    else:
        sq_sums, sq_diffs, t = _pair_sums_pairwise(sorted(els))
    # sum u_s = n(n+1)/2 and sum D_k = n(n-1)/2
    return (
        (sq_sums - n * (n + 1) // 2) // 2,
        (sq_diffs - n * (n - 1) // 2) // 2,
        t,
    )


def _pair_sums(els: Sequence[int]) -> set[int]:
    """x + y over the pairs x <= y of distinct, increasing els."""
    return {x + y for i, x in enumerate(els) for y in els[i:]}


def _positive_diffs(els: Sequence[int]) -> set[int]:
    """y - x over the pairs x < y of distinct, increasing els."""
    return {y - x for i, x in enumerate(els) for y in els[i + 1 :]}


def mask_sizes(mask: int) -> tuple[int, int]:
    """(|A+A|, |A-A|) of A = {i : bit i of mask is set}, for a positive mask.

    The verifier grids build each set as such a mask and classify it here,
    with no IntSet.  Trailing zero bits are shifted out (both sizes are
    translation-invariant).  The mask always runs dense, however wide: the
    pairwise fallback is for sets given by their elements (`sizes_of`).
    """
    if mask <= 0:
        raise ValueError(f"mask must be positive: {mask}")
    if not mask & 1:
        mask >>= (mask & -mask).bit_length() - 1
    sums, diffs = _sum_diff_masks(mask)
    return sums.bit_count(), 2 * diffs.bit_count() - 1


def sizes_of(xs: Sequence[int]) -> tuple[int, int]:
    """(|A+A|, |A-A|) of the set of the integers xs, in any order, repeats allowed."""
    return _sum_diff_of(xs, keep=False)[0]


def _sum_diff_of(xs: Sequence[int], keep: bool = True) -> tuple:
    """((|A+A|, |A-A|), mask, sums, diffs) of the set of the integers xs.

    xs may come in any order, with repeats.  Over a window that passes the
    dense gate, ``mask`` is A - min A, ``sums`` A+A - 2 min A and ``diffs``
    the nonnegative half of A-A, all bitmasks.  Over a wider one, ``mask`` is
    None and ``sums`` (A+A) and ``diffs`` (the positive differences) are
    tuples in set order, unsorted: a tuple holds a set's members in about a
    quarter of the set's memory.  With ``keep`` false, for a caller that
    keeps nothing, they are the sets they are counted from, with no copy.
    The gate is checked before any mask is built, so a window too wide for
    the dense kernel costs no big int.
    """
    lo = min(xs)
    if not _use_dense(len(xs), max(xs) - lo):
        els = sorted(set(xs))
        if keep:  # each set goes before the next is built
            sums, diffs = tuple(_pair_sums(els)), tuple(_positive_diffs(els))
        else:
            sums, diffs = _pair_sums(els), _positive_diffs(els)
        return (len(sums), 2 * len(diffs) + 1), None, sums, diffs
    mask = 0
    for x in xs:
        mask |= 1 << (x - lo)
    sums, diffs = _sum_diff_masks(mask, xs, lo)
    return (sums.bit_count(), 2 * diffs.bit_count() - 1), mask, sums, diffs


def sum_diff_sizes(a: IntSet) -> tuple[int, int]:
    """(|A+A|, |A-A|), counted once per IntSet.

    The first count keeps A+A and A-A on the set (bitmasks over a dense
    window, unsorted tuples over a wider one); `classify`, `profile`,
    `sumset`, `diffset` and `insertion_growth` read them.  They are no part
    of ==, hash, repr or asdict.
    """
    a._require_nonempty()
    return a._kept[0]


def sumset(a: IntSet) -> IntSet:
    """All pairwise sums a_i + a_j (i = j allowed)."""
    a._require_nonempty()
    _, mask, sums, _ = a._kept
    if mask is None:
        return IntSet._trusted(tuple(sorted(sums)))
    n = len(a)
    if 2 * a.diameter + 1 <= n * (n + 1) // 2:  # decode no more bits than pairs
        return IntSet.from_mask(sums, 2 * a.elements[0])
    return IntSet._trusted(tuple(sorted(_pair_sums(a.elements))))


def diffset(a: IntSet) -> IntSet:
    """All pairwise differences a_i - a_j, symmetric about 0."""
    a._require_nonempty()
    _, mask, _, pos = a._kept
    if mask is None:
        pos = sorted(pos)
    else:
        n = len(a)
        if a.diameter + 1 <= n * (n - 1) // 2:  # decode no more bits than pairs
            pos = _bit_indices(pos)[1:]
        else:
            pos = sorted(_positive_diffs(a.elements))
    return IntSet._trusted((*[-v for v in reversed(pos)], 0, *pos))


def _shift(mask: int, k: int) -> int:
    return mask << k if k >= 0 else mask >> -k


def insertion_growth(a: IntSet, x: int) -> tuple[int, int]:
    """(new sums, new positive differences) of inserting x, not in A, into A.

    Counts only what x adds, x + A, 2x and |x - A|, against A's kept sets: a
    few mask operations over a dense window, never wider than three windows
    (the bit-reversed mirror of A gives x - e for the e below x), or over a
    wider one the set of x's sums less the kept sums, and of its distances
    less the kept differences.
    """
    a._require_nonempty()
    _, mask, sums, diffs = a._kept
    els = a.elements
    n = len(els)
    if mask is None:  # x + x is 2x; a midpoint x meets two e at one distance
        new_sums = {x + e for e in (x, *els)}.difference(sums)
        return len(new_sums), len({abs(x - e) for e in els}.difference(diffs))
    t, d = x - els[0], els[-1] - els[0]
    if not -d <= t <= 2 * d:  # x + A and |x - A| miss both windows
        return n + 1, n
    new_sums = n - (_shift(mask, t) & sums).bit_count()
    new_sums += t < 0 or not sums >> 2 * t & 1
    mirror = int(bin(mask)[:1:-1], 2)  # bit j is bit d - j of the mask
    dists = _shift(mask, -t) | _shift(mirror, t - d)  # e - x above x, x - e below
    return new_sums, dists.bit_count() - (dists & diffs).bit_count()


def classify(a: IntSet) -> SetClass:
    """Compare |A+A| against |A-A|."""
    return SetClass.from_sizes(*sum_diff_sizes(a))


def is_symmetric(a: IntSet) -> Optional[int]:
    """Center a with A = a - A, if any.  The only candidate is min+max."""
    a._require_nonempty()
    c = a.min + a.max
    els = a.elements
    n = len(els)
    if all(els[i] + els[n - 1 - i] == c for i in range(n // 2 + 1)):
        return c
    return None


def detect_ap(a: IntSet) -> Optional[APSpec]:
    """APSpec iff all consecutive gaps are equal; any set of size <= 2 qualifies."""
    a._require_nonempty()
    els = a.elements
    if len(els) == 1:
        return APSpec(els[0], 1, 1)
    step = els[1] - els[0]
    if any(els[i + 1] - els[i] != step for i in range(1, len(els) - 1)):
        return None
    return APSpec(els[0], step, len(els))


def profile(a: IntSet) -> SetProfile:
    """Aggregate classification, pair counts, symmetry and AP structure."""
    nsum, ndiff = sum_diff_sizes(a)
    esp, edp, _ = equal_pair_counts(a)
    return SetProfile(
        size=len(a),
        sum_size=nsum,
        diff_size=ndiff,
        set_class=SetClass.from_sizes(nsum, ndiff),
        equal_sum_pairs=esp,
        equal_diff_pairs=edp,
        diameter=a.diameter,
        symmetry_center=is_symmetric(a),
        ap=detect_ap(a),
    )


def is_normalized(a: IntSet) -> bool:
    if not a.elements or a.min != 0:
        return False
    g = 0
    for e in a.elements:
        g = gcd(g, e)
    return g == 1 or len(a) == 1


def reflect_canonical(a: IntSet) -> IntSet:
    """Lexicographic minimum of a normalized set and its mirror max(A) - A."""
    if not is_normalized(a):
        raise ValueError(f"input must be normalized (min 0, gap gcd 1): {a}")
    d = a.elements[-1]
    r = tuple([d - e for e in reversed(a.elements)])
    return a if a.elements <= r else IntSet(r)


def scale_to_integers(r: RationalSet) -> tuple[IntSet, int]:
    """Clear the denominator; a dilation, so classification is unchanged."""
    return r.numerators, r.denominator


def ap_plus_two_decomposition(a: IntSet) -> Optional[tuple[APSpec, IntSet]]:
    """Split A = B ∪ E with B an arithmetic progression and |E| <= 2.

    Prefers the smallest E and then the lexicographically smallest E.  None
    when no such split exists.  O(|A|): with els = A sorted, n >= 3 and A
    not an AP, any valid B keeps at least n - 2 elements, and at least 2 when
    n = 3 (a one-element E always exists there).  Everything before B's first
    element is in E, so that element is one of els[0..2]; everything before
    its second, bar the first, is in E, so that one is one of els[1..3].
    B's step is therefore one of the at most 6 differences els[k] - els[i],
    i < k <= 3.  For each, the full run els[i] + t*step through A is the best
    B: a shorter run only adds elements to E.
    """
    a._require_nonempty()
    ap = detect_ap(a)
    if ap is not None:
        return ap, IntSet(())
    els = a.elements
    n = len(els)
    members = set(els)
    splits = []
    for k in range(1, min(n, 4)):
        for i in range(k):
            first, step = els[i], els[k] - els[i]
            end = first
            while end in members:
                end += step
            length = (end - first) // step
            if length >= n - 2:
                extras = tuple(
                    e for e in els if e < first or e >= end or (e - first) % step
                )
                splits.append((len(extras), extras, first, step, length))
    if not splits:
        return None
    _, extras, first, step, length = min(splits)
    return APSpec(first, step, length), IntSet(extras)
