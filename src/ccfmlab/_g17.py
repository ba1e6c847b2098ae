"""``"%.17g"`` for a block of float rows at once: the text of :func:`ccfmlab.integrate.write_trajectory_csv`.

A value's 17 significant digits are the integer D = round(|x|*10**(16 - X)),
10**16 <= D < 10**17, X its decimal exponent.  The product is taken in
double-double arithmetic: Dekker's exact product of |x| and the double
nearest 10**(16 - X), plus |x| times the rest of 10**(16 - X).  Its error is
below _TIE units of D, so D is certified where the product's fraction lies
farther than _TIE from 1/2; where 10**(16 - X) is a double the product is
exact and a tie rounds half to even.  "%.17g" itself formats every other
value: nan, the infinities, |x| outside [1e-270, 1e290) but zero, and the
near-ties.

Each value then gets a cell of _CELL bytes, of which a keep-mask selects its
characters, and one boolean index compacts a block's cells into its text:

  cols 0-7    "-d." at cols 5-7 (d the leading digit); or, for -4 <= X < 0,
              the sign and "0.", "0.0" .. "0.000" before d at col 7
  cols 8-23   digits 2..17, four to a 32-bit lane
  cols 24-31  "e-05" or "e+123" in exponent notation (X < -4 or X >= 17),
              then ',' or, after a row's last value, '\\n'

In fixed notation with X >= 1, digits 2..X+1 move one column left over the
'.', which then follows them.  The mask keeps the suffix and cols
[start, end): start is at the sign, or at the first digit when the sign bit
is clear; end follows the last nonzero digit or the integer part, so trailing
zeros and a bare '.' drop out, as in "%g".
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

_CELL = 32
_X_LO, _X_HI = -272, 292  # decimal exponents of the tables; a certified |x| lies in [1e-270, 1e290)
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_TIE = 2.0**-46  # above the product's error bound, 4 * 2**-106 * 1e17 < 5e-15


def _pow10(j: int) -> tuple[float, float]:
    """10**j = hi + lo, hi the double nearest to it and lo the double nearest to the rest, in integer arithmetic."""
    if j >= 0:
        hi = float(10**j)
        return hi, float(10**j - int(hi))
    den = 10**-j
    hi = 1 / den
    num, two = hi.as_integer_ratio()
    return hi, (two - num * den) / (two * den)


class _Tables(NamedTuple):
    estimate: np.ndarray  # per biased binary exponent e: floor(log10(2**e)) - _X_LO
    ceiling: np.ndarray  # per biased binary exponent: 10**(estimate + 1) rounded up to a double
    hi: np.ndarray  # per X: 10**(16 - X) = hi + lo, hi = head + tail in 26-bit halves
    lo: np.ndarray
    head: np.ndarray
    tail: np.ndarray
    suffix: np.ndarray  # per (X, last in row): cols 24-31 as one uint64
    moved: np.ndarray  # per X: the digits before the '.' where they move, else 0
    prefix_row: np.ndarray  # per X: its first row of prefix
    mask_row: np.ndarray  # per X: its first row of mask
    prefix: np.ndarray  # per (zeros after "0.", leading digit): cols 0-7 as one uint64
    mask: np.ndarray  # per (form, sign bit, trailing zeros of D): a cell's keep-mask
    shift: np.ndarray  # per moved: 1 at the columns that take their right neighbour's character
    lanes: np.ndarray  # per 4-digit group: its characters as one uint32
    zeros: np.ndarray  # per 4-digit group: its trailing zeros


@functools.cache
def _tables() -> _Tables:
    """The tables of :func:`format_rows`, built on first use from Python arithmetic and bytes.

    numpy arithmetic on the types the formatting does not use would page in
    more of numpy's code, 64 KiB at a time, which the process then keeps.
    """
    xs = range(_X_LO, _X_HI + 1)
    hi, lo = zip(*(_pow10(16 - x) for x in xs))
    head = [hi_x * _SPLIT - (hi_x * _SPLIT - hi_x) for hi_x in hi]
    estimate = [min(max(math.floor((e - 1023) * math.log10(2)), _X_LO), _X_HI - 1) - _X_LO for e in range(2048)]
    above = [math.nextafter(up, math.inf) if rest > 0 else up for up, rest in map(_pow10, range(_X_LO + 1, _X_HI + 1))]

    # A cell's form: fixed notation for each X in -4..16, then exponent notation with 2 and 3 exponent digits.
    forms = [(max(-x, 0), max(x + 1, 0), 0) for x in range(-4, 17)] + [(0, 1, 4), (0, 1, 5)]  # zeros before
    # the leading digit, digits before the '.', length of "e-05" or "e+123"
    form = [x + 4 if -4 <= x < 17 else 21 if abs(x) < 100 else 22 for x in xs]
    signs = (b"-" if x < 0 else b"+" for x in xs)
    powers = (b"e%c%0*d" % (sign, forms[f][2] - 2, abs(x)) if f > 20 else b"" for x, f, sign in zip(xs, form, signs))
    suffix = b"".join((p + b",").ljust(8, b"\0") + (p + b"\n").ljust(8, b"\0") for p in powers)
    prefix = b"".join(
        (b"-%d." % lead if z == 0 else b"-0." + b"0" * (z - 1) + b"%d" % lead).rjust(8, b"\0")
        for z in range(5)
        for lead in range(10)
    )
    mask = b"".join(
        (b"\0" * start + b"\1" * (end - start)).ljust(24, b"\0") + b"\1" * (length + 1) + b"\0" * (7 - length)
        for zeros, whole, length in forms
        for start in (6 - zeros, 5 - zeros)  # sign bit clear, set
        for end in (8 + last if last >= whole else 6 + whole for last in range(16, -2, -1))  # last nonzero digit
    )
    pairs = [b"%02d" % i for i in range(100)]
    lanes = b"".join(b"".join(a + b for b in pairs) for a in pairs)
    last2 = np.array([pair.endswith(b"0") + (pair == b"00") for pair in pairs])  # trailing zeros of 2 digits
    zeros = np.tile(last2, 100)
    zeros[::100] += last2  # where the last 2 digits are "00", the first 2 add theirs
    return _Tables(
        estimate=np.array(estimate),
        ceiling=np.array([above[x] for x in estimate]),
        hi=np.array(hi),
        lo=np.array(lo),
        head=np.array(head),
        tail=np.array([hi_x - head_x for hi_x, head_x in zip(hi, head)]),
        suffix=np.frombuffer(suffix, np.uint64),
        moved=np.array([x + 1 if 1 <= x < 17 else 0 for x in xs]),
        prefix_row=np.array([forms[f][0] * 10 for f in form]),
        mask_row=np.array([f * 36 for f in form]),
        prefix=np.frombuffer(prefix, np.uint64),
        mask=np.frombuffer(mask, np.bool_).reshape(-1, _CELL),
        shift=np.frombuffer(bytes(7 <= c <= 5 + w for w in range(18) for c in range(_CELL)), np.uint8).reshape(18, -1),
        lanes=np.frombuffer(lanes, np.uint32),
        zeros=zeros,
    )


def _product(a: np.ndarray, tab: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X - _X_LO of each a in [1e-270, 1e290), and a*10**(16 - X) as p + s: p the rounded product, s the rest.

    p + s is off by at most 4*2**-106*a*10**(16 - X), below 5e-15, and exact
    where 10**(16 - X) is a double.
    """
    e2 = a.view(np.int64) >> 52
    xo = tab.estimate.take(e2)
    xo += a >= tab.ceiling.take(e2)
    del e2
    p = tab.hi.take(xo)
    p *= a
    # Dekker: split a into 26-bit halves, so that ah*head + ... + al*tail - p is a*hi - p exactly.
    ah = a * _SPLIT
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    s = tab.head.take(xo)
    t = al * s
    s *= ah
    s -= p
    ah *= tab.tail.take(xo)
    s += ah
    s += t
    al *= tab.tail.take(xo)
    s += al
    np.multiply(a, tab.lo.take(xo), out=al)
    s += al
    return xo, p, s


def _digits(ax: np.ndarray, tab: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D and X - _X_LO of each |x| (D = 0 and X = 0 for a zero), and the indices "%.17g" must format."""
    odd = np.flatnonzero(~((ax >= 1e-270) & (ax < 1e290)))
    a = ax
    if odd.size:
        a = ax.copy()
        a[odd] = 1.0
    xo, p, s = _product(a, tab)
    del a
    frac = s
    units = np.floor(frac)
    frac -= units
    d = p.astype(np.int64)
    d += units.astype(np.int64)
    d += frac > 0.5
    del p, units
    # Near-ties, carries and a D out of range, one element at a time.
    suspect = np.flatnonzero((np.abs(frac - 0.5) <= _TIE) | (d < 10**16) | (d >= 10**17))
    fallback = [odd[ax.take(odd) != 0]]
    if suspect.size:
        ds, fs = d[suspect], frac[suspect]
        floor = ds - (fs > 0.5)
        exact = tab.lo.take(xo[suspect]) == 0
        ok = (floor >= 10**16) & (floor < 10**17) & ((np.abs(fs - 0.5) > _TIE) | exact)
        ds += (fs == 0.5) & (floor % 2 == 1)
        carry = ds == 10**17
        ds[carry] = 10**16
        d[suspect] = ds
        xo[suspect] += carry
        fallback.append(suspect[~ok])
    zero = odd[ax.take(odd) == 0]
    d[zero] = 0
    xo[zero] = -_X_LO
    return d, xo, np.concatenate(fallback)


def format_rows(block: np.ndarray) -> np.ndarray:
    """The CSV text of a 2-d float64 block as uint8: "%.17g" of each value, ',' between values, '\\n' after each row."""
    tab = _tables()
    rows, cols = block.shape
    v = block.ravel()
    d, xo, fallback = _digits(np.abs(v), tab)
    lead = d // 10**16
    d -= lead * 10**16
    high = d // 10**8
    low = d
    low -= high * 10**8
    del d
    g1, g3 = high // 10**4, low // 10**4
    high -= g1 * 10**4
    low -= g3 * 10**4
    groups = (g1, high, g3, low)  # digits 2..17
    tz = tab.zeros.take(low)  # trailing zeros of D
    empty = np.flatnonzero(low == 0)
    if empty.size:  # D ends in 0000: count on through the groups before
        live = np.ones(empty.size, bool)
        for g in groups[2::-1]:
            ge = g[empty]
            tz[empty] += live * tab.zeros.take(ge)
            live &= ge == 0
        tz[empty] += live & (lead[empty] == 0)  # D = 0, a zero: its one digit is 0 too

    cells = np.empty((v.size, _CELL), np.uint8)
    words, lanes = cells.view(np.uint64), cells.view(np.uint32)
    key = tab.prefix_row.take(xo)
    key += lead
    words[:, 0] = tab.prefix.take(key)
    for i, g in enumerate(groups):
        lanes[:, 2 + i] = tab.lanes.take(g)
    del lead, groups, g1, high, g3, low
    np.multiply(xo, 2, out=key)
    key.reshape(rows, cols)[:, -1] += 1
    words[:, 3] = tab.suffix.take(key)
    key = tab.mask_row.take(xo)
    key += tz
    key += np.signbit(v) * 18
    keep = tab.mask.take(key, axis=0)
    del key, tz

    moved = np.flatnonzero(tab.moved.take(xo))
    if moved.size:
        whole = tab.moved.take(xo.take(moved))
        sub = cells.take(moved, axis=0)
        flat = sub.ravel()
        right = np.empty_like(flat)
        right[:-1] = flat[1:]
        right[-1] = 0
        flat += (right - flat) * tab.shift.take(whole, axis=0).ravel()
        flat[np.arange(moved.size) * _CELL + 6 + whole] = ord(".")
        cells[moved] = sub
    for i in fallback.tolist():
        text = b"%.17g" % v[i]
        cells[i, 24 - len(text) : 24] = np.frombuffer(text, np.uint8)
        cells[i, 24] = ord("\n" if i % cols == cols - 1 else ",")
        keep[i] = False
        keep[i, 24 - len(text) : 25] = True
    return cells[keep]
