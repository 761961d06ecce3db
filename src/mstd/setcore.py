"""Exact arithmetic, classification, and canonical forms for finite integer sets.

Sets are immutable, sorted tuples of integers.  Sumset/difference-set
cardinalities are computed on a dense bitmask over the set's window (a Python
int doubles as an arbitrary-width machine bitset), shifted by each element the
caller holds, or by each set bit of a mask alone: |A| x window bit operations.
A set given by its elements goes pairwise, |A|^2 / 2 hashed visits, when its
window exceeds a fixed number of bits per element; a built mask always runs
dense.  A mask is decoded in one pass over its binary digits, so `sumset` and
`diffset` decode one only if it has no more bits than pairs.
Equal-sum and equal-difference pair counts likewise convolve a window by
big-int multiplication (Kronecker substitution), one byte per count up to 256
elements, or count the pairs; the gate reads |A| and the hull before any
window is built.  The convolution takes a set as its window's indicator, one
0/1 byte per integer, and a run of sets inside one window, such as a
verifier corpus, shares its setup; `pair_counter` says how it reads the
counts off the digits.
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
from itertools import compress
from math import gcd, lcm
from numbers import Rational
from operator import index, lt, mul
from typing import Callable, Iterable, Iterator, Optional, Sequence
from zlib import adler32


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
    try:  # int strips whitespace itself; a p/q token or a bad one takes the loop
        return list(map(int, text.split(",")))
    except ValueError:
        pass
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


# the binary digits "0" and "1" as the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _indicator(mask: int) -> bytes:
    """Byte i is bit i of the nonnegative mask, up to its top set bit."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _bit_indices(mask: int, lo: int = 0) -> list[int]:
    """lo + i for each set bit i of mask, ascending.

    One pass over the binary digits: clearing the lowest bit in a loop would
    copy the whole int once per set bit.
    """
    bits = _indicator(mask)
    lo = index(lo)  # an exact int: a float raises TypeError
    return list(compress(range(lo, lo + len(bits)), bits))


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
# Low and high byte of i^2 and of ceil(i/2)^2, and i kept only when odd:
# bytes.translate maps a run of one-byte digits with no int per digit.
_SQ_LO = bytes([i * i & 255 for i in range(256)])
_SQ_HI = bytes([i * i >> 8 for i in range(256)])
_HALF_SQ_LO = bytes([(i + 1 >> 1) ** 2 & 255 for i in range(256)])
_HALF_SQ_HI = bytes([(i + 1 >> 1) ** 2 >> 8 for i in range(256)])
_ODD = bytes([i if i & 1 else 0 for i in range(256)])
_DIGIT_TYPECODES = {2: "H", 4: "I", 8: "Q"}


def _use_convolution(size: int, diameter: int) -> bool:
    return diameter * diameter <= _CONV_PAIR_FACTOR * size * size * size + _CONV_SLACK


def _pair_counts_pairwise(els: Sequence[int]) -> tuple[int, int, int]:
    sums = Counter([x + y for i, x in enumerate(els) for y in els[i:]])
    diffs = Counter([y - x for i, x in enumerate(els) for y in els[i + 1 :]])
    return (
        sum(c * (c - 1) for c in sums.values()) // 2,
        sum(c * (c - 1) for c in diffs.values()) // 2,
        # r_2a = 2 u_2a - 1 ordered pairs: (a, a) and both orders of the rest
        2 * sum(sums[2 * x] for x in els) - len(els),
    )


def _spread(digits: bytes, width: int) -> bytearray:
    out = bytearray(len(digits) * width)
    out[::width] = digits
    return out


def pair_counter(d: int) -> Callable[[bytes], tuple[int, int, int, int]]:
    """(ESP, EDP, T) of `equal_pair_counts`, then |A|, per set in [lo, lo + d].

    The counter takes a nonempty set as the window's indicator: d + 1 bytes
    (unchecked), byte e 1 when lo + e is in the set and 0 when it is not.
    The counts are translation-invariant, so lo itself is never needed.
    The window-level work is done once, so a run of sets that share a
    window, such as a verifier corpus, pays it once.  The counter always
    convolves; `equal_pair_counts` gates first.

    By Kronecker substitution the set becomes p = sum 256^e over its e, so
    p*p and p*mirror(p) hold r_s and D_k as one-byte digits.  The pairs
    (x, y) and (y, x) match up unless x = y, so r_s is odd exactly when s/2
    is in A and u_s = ceil(r_s / 2): the u_s^2 come from p*p's digits
    through a table of ceil(i/2)^2, and T is the sum of the odd digits, read
    through a table of its own, so a wrong ceil(i/2)^2 table moves ESP and
    not T.  The digits of p*mirror(p) mirror about its centre, so only those
    above it, the D_k at k >= 1, are read, each squared through a table.
    Up to 16 elements u_s <= 8 and D_k <= 15, so every square fits one byte;
    at most 136 sums and 120 differences are nonzero, so T <= 240,
    sum u_s^2 <= 8704 and sum D_k^2 <= 27000 on any window.  Each stays
    below 65520, so zlib's Adler-32, whose low half is 1 + the byte sum
    mod 65521, sums the translated digits in C.  Past 16 each sum adds a
    high-byte table and drops the zero digits first.
    Only the middle digit of p*p, at min + max, can reach |A|.  Below 256
    elements no digit exceeds |A| <= 255, so min and max are never read; at
    256 and past, the pair (max, min) comes off the middle sum before the
    readout and its share is added back, and past 256 a digit spreads over
    2, 4 or 8 bytes.
    """
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    nsums = 2 * d + 1
    above = 8 * (d + 1)  # digit d + 1 of p*mirror(p) on, at one byte per digit
    from_bytes = int.from_bytes
    half_lo, half_hi, sq_lo, sq_hi = _HALF_SQ_LO, _HALF_SQ_HI, _SQ_LO, _SQ_HI
    odd = _ODD
    ones = {}  # per digit width past one byte: a 1 in each digit's low byte

    def count(one):
        # digit e of p is byte e of one, and mirror(p) mirrors it
        p = from_bytes(one, "little")
        n = p.bit_count()  # a 1 byte has one bit set
        if n < 256:  # r_s <= n and D_k <= n fit one byte: nothing comes off
            width = 1
            sums = (p * p).to_bytes(nsums, "little")
            diffs = (p * from_bytes(one, "big") >> above).to_bytes(d, "little")
        else:
            # r_s <= n, with equality only at the middle sum, min + max
            # (A = min + max - A); it holds at least the pair (max, min),
            # which comes off so that n = 256 stays on one byte.  A wider
            # digit also holds the n its halving below may reach
            m = one.index(1) + one.rindex(1)  # min + max - 2 lo
            width = 1
            digits = one
            if n > 256:  # each digit spreads over width bytes
                width = next(w for w in _DIGIT_TYPECODES if n < 256**w)
                digits = _spread(one, width)
                p = from_bytes(digits, "little")
            # read big-endian, the digits run mirrored, each 1 in its top byte
            r = from_bytes(digits, "big") >> 8 * (width - 1)
            pp = p * p - (1 << 8 * width * m)
            sums = pp.to_bytes(nsums * width, "little")
            # the centre's n pairs (x, x) come off, as n may not fit one digit
            centre = 8 * width * d
            diffs = ((p * r - (n << centre)) >> centre + 8 * width).to_bytes(
                d * width, "little"
            )
        # digit s of p*p: r_s ordered pairs (x, y) with sum 2 lo + s; (x, y)
        # and (y, x) pair up unless x = y, so r_s is odd exactly when
        # s = 2(a - lo) for a in A: T, the sum of r_2(a - lo), is the sum of
        # the odd digits, and u_s, the pairs {x <= y}, is ceil(r_s / 2).
        # Digit d + k of p*mirror(p): pairs at difference k, the same as
        # digit d - k, so only k >= 1 is read
        if n <= 16:
            # each sum is below 65520 (see above): Adler-32's low half is 1 + it
            t = (adler32(sums.translate(odd)) & 0xFFFF) - 1
            sq_sums = (adler32(sums.translate(half_lo)) & 0xFFFF) - 1
            sq_diffs = (adler32(diffs.translate(sq_lo)) & 0xFFFF) - 1
        elif width == 1:
            # zero digits, most of a sparse window's, are dropped; a digit
            # past 15 (past 30 halved) has a two-byte square
            t = sum(sums.translate(odd, b"\0"))
            sq_sums = sum(sums.translate(half_lo, b"\0"))
            sq_sums += sum(sums.translate(half_hi, b"\0")) << 8
            sq_diffs = sum(diffs.translate(sq_lo, b"\0"))
            sq_diffs += sum(diffs.translate(sq_hi, b"\0")) << 8
        else:
            code = _DIGIT_TYPECODES[width]
            if width not in ones:
                ones[width] = from_bytes((b"\1" + bytes(width - 1)) * nsums, "little")
            # digit by digit, ceil(r / 2) = (r + (r & 1)) >> 1: each digit is
            # made even, so the shift moves no bit into the digit below
            half = (pp + (pp & ones[width])) >> 1
            half = array(code, half.to_bytes(len(sums), "little"))
            # only an even digit can be odd: the low bytes of digits 0, 2, ...
            odd_digits = sums[:: 2 * width].translate(odd)
            sums, diffs = array(code, sums), array(code, diffs)
            if sys.byteorder == "big":
                half.byteswap()
                sums.byteswap()
                diffs.byteswap()
            t = sum(compress(sums[::2], odd_digits))
            sq_sums = sum(map(mul, half, half))
            sq_diffs = sum(map(mul, diffs, diffs))
        if n >= 256:
            rm = sums[m]  # r_m - 1: the pair taken off flips the digit's parity
            if rm & 1:  # r_m is even, and T took its digit as odd if it read it
                if width == 1 or not m & 1:
                    t -= rm
            else:  # r_m is odd: m = 2(a - lo), a midway from min to max
                sq_sums += rm + 1  # ceil((rm + 1) / 2)^2 - ceil(rm / 2)^2
                t += rm + 1
        # sum u_s = n(n+1)/2 and sum D_k = n(n-1)/2
        return (
            (sq_sums - n * (n + 1) // 2) // 2,
            (sq_diffs - n * (n - 1) // 2) // 2,
            t,
            n,
        )

    return count


def equal_pair_counts(a: IntSet) -> tuple[int, int, int]:
    """(equal-sum pairs, equal-difference pairs, midpoint triples) of A.

    Equal-sum pairs: unordered pairs of index multisets {i <= j} that share a
    sum.  Equal-difference pairs: unordered pairs of index pairs (i < j) that
    share a positive difference.  Midpoint triples: T = #{(x, y, a) in A^3 :
    x + y = 2a}.  Each comes from its own representation function, never from
    another through the additive-energy identity: with u_s the pairs {x <= y}
    summing to s, r_s the ordered pairs and D_k the pairs x < y at difference
    k, the kernel sums u_s^2, D_k^2 and r_2a over a in A.  The gate reads
    only |A| and the hull: a wide window goes pairwise, one Counter pass over
    the pairs, with no indicator built.  A small one runs `pair_counter` over
    the hull [min A, max A], whose docstring says how it reads the counts.
    """
    a._require_nonempty()
    els = a.elements
    lo, d = els[0], els[-1] - els[0]
    if not _use_convolution(len(els), d):
        return _pair_counts_pairwise(els)
    one = bytearray(d + 1)
    for x in els:
        one[x - lo] = 1
    return pair_counter(d)(one)[:3]


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
    """Aggregate classification, pair counts, symmetry and AP structure.

    Three exact facts read off (|A+A|, |A-A|) decide which scans can find
    anything, for n = |A|:
    - |A+A| = n(n+1)/2 exactly when A is a Sidon set (every sum a + b,
      a <= b, is distinct), and then no two index pairs share a sum or a
      positive difference: ESP = EDP = 0 with no pair count;
    - A = c - A gives A+A = c + (A-A), so only a set with |A+A| = |A-A|
      can be symmetric;
    - |A+A| >= 2n - 1, with equality exactly when A is an arithmetic
      progression (Freiman's 2k - 1 bound), so only then can the gap scan
      find one.
    """
    nsum, ndiff = sum_diff_sizes(a)
    n = len(a)
    if nsum == n * (n + 1) // 2:
        esp = edp = 0
    else:
        esp, edp, _ = equal_pair_counts(a)
    return SetProfile(
        size=n,
        sum_size=nsum,
        diff_size=ndiff,
        set_class=SetClass.from_sizes(nsum, ndiff),
        equal_sum_pairs=esp,
        equal_diff_pairs=edp,
        diameter=a.diameter,
        symmetry_center=is_symmetric(a) if nsum == ndiff else None,
        ap=detect_ap(a) if nsum == 2 * n - 1 else None,
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
