"""Shortest round-trip decimals of float64 arrays, and text rows of them.

`shortest(values)` gives each finite float the decimal that `repr`
prints: the fewest significant digits that read back as the same
float, and of those the nearest to it.  It is Ryu (Adams, PLDI 2018)
as whole-array operations on uint64.  The 64 x 128-bit products are
taken in 32-bit limbs, the 5^q multipliers are made at import from
Python integers for each binary exponent, and each pass of the digit
removal runs over every value that is still shortening.

`format_rows(start, columns, labels)` is the text of rows start,
start + 1, ... as `id[<TAB>label]<TAB>value...` lines, each value as
`repr` writes it: fixed notation where the decimal point falls after
-3 to 16 digits, `d.ddde±XX` otherwise.  Each field of a row is built
in whole uint64 words, whose bytes are the field's text in order with
0 bytes between, so a block of rows is one (rows, words) matrix; one
boolean index over its bytes leaves out the 0 bytes and packs the
text.  `write_rows` writes a table that way a block at a time, every
block in one scratch matrix.
"""

from __future__ import annotations

from typing import IO

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_MANTISSA = _U((1 << 52) - 1)
_ONE, _TWO, _TEN = _U(1), _U(2), _U(10)
_P10 = np.array([10 ** k for k in range(20)], np.uint64)


def _exponent_tables() -> dict[str, np.ndarray]:
    """Ryu's constants for each biased binary exponent, 0..2047 (2047,
    infinities and NaN, gets harmless ones): the multiplier, 5^-q or
    5^i scaled to 125 bits, as four 32-bit limbs and two 64-bit halves;
    the shift that ends each product, less 65; the decimal exponent of
    the scaled bounds; the low bits of 4 m2 that must be 0 for vr to be
    a whole number that ends in the digits to remove; where the bounds
    are whole numbers, the case of their tests (1: q <= 1, 2: by 5^q);
    and 5^q."""
    pow5 = [1]
    while len(pow5) < 400:
        pow5.append(5 * pow5[-1])
    rows = []
    for biased in range(2047):
        e2 = max(biased, 1) - 1077  # the value is 4 m2 * 2^e2
        if e2 >= 0:
            q = (e2 * 78913 >> 18) - (e2 > 3)  # floor(e2 log10 2), less 1
            bits = pow5[q].bit_length()
            mul = (1 << bits - 1 + 125) // pow5[q] + 1
            shift, e10, low = -e2 + q + bits - 1 + 125, q, ~0
            case = 2 if q <= 21 else 0
        else:
            q = (-e2 * 732923 >> 20) - (-e2 > 1)  # floor(-e2 log10 5), less 1
            power = pow5[-e2 - q]
            excess = power.bit_length() - 125
            mul = power >> excess if excess >= 0 else power << -excess
            shift, e10 = q - excess, q + e2
            low = 0 if q <= 1 else (1 << q) - 1 if q < 63 else ~0
            case = 1 if q <= 1 else 0
        rows.append((mul, shift - 65, e10, low & (1 << 64) - 1, case,
                     pow5[q] if case == 2 else 1))
    rows.append((0, 1, 0, 0, 0, 1))
    mul, shift, e10, low, case, pow5 = zip(*rows)
    return {"limbs": [np.array([m >> 32 * k & 0xFFFFFFFF for m in mul],
                               np.uint64) for k in range(4)],
            "lo": np.array([m & (1 << 64) - 1 for m in mul], np.uint64),
            "hi": np.array([m >> 64 for m in mul], np.uint64),
            "shift": np.array(shift, np.uint64),
            "e10": np.array(e10, np.int16),
            "low": np.array(low, np.uint64),
            "case": np.array(case, np.int8),
            "pow5": np.array(pow5, np.uint64)}


_TABLE = _exponent_tables()
_HIDDEN = np.array([0] + [1 << 52] * 2047, np.uint64)  # m2's leading bit


def _shr(mid: np.ndarray, hi: np.ndarray, shift: np.ndarray,
         spill: np.ndarray) -> np.ndarray:
    """(hi * 2^64 + mid) >> (64 + shift), spill = 64 - shift, in mid."""
    mid >>= shift
    hi <<= spill
    mid |= hi
    return mid


def shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent): each finite value's shortest round-trip
    decimal as |value| = digits * 10^exponent, digits a uint64 of at
    most 17 decimal digits with no trailing 0 (0 and 0 for a zero), as
    `repr` prints it; exponent is int16.  Non-finite values give
    meaningless digits."""
    bits = np.ascontiguousarray(values, np.float64).view(np.uint64)
    biased = (bits >> _U(52)).astype(np.intp)
    biased &= 0x7FF
    m2 = bits & _MANTISSA
    m2 |= _HIDDEN.take(biased)

    # P = 2 m2 * mul, in 192 bits lo, mid, hi, from 32-bit limbs
    x0 = m2 << _ONE
    x1 = x0 >> _U(32)  # < 2^22, so x1 * limb fits in 64 bits
    x0 &= _LOW32
    b0, b1, b2, b3 = (limb.take(biased) for limb in _TABLE["limbs"])
    p = x0 * b0
    lo = p & _LOW32
    c = p >> _U(32)
    c += np.multiply(x1, b0, out=b0)
    np.multiply(x0, b1, out=p)
    c += np.bitwise_and(p, _LOW32, out=b0)
    lo |= c << _U(32)
    c >>= _U(32)
    c += p >> _U(32)
    np.multiply(x0, b2, out=p)
    c += np.bitwise_and(p, _LOW32, out=b0)
    c += np.multiply(x1, b1, out=b1)
    mid = c & _LOW32
    c >>= _U(32)
    c += p >> _U(32)
    np.multiply(x0, b3, out=p)
    c += np.bitwise_and(p, _LOW32, out=b0)
    c += np.multiply(x1, b2, out=b2)
    mid |= c << _U(32)
    hi = c >> _U(32)
    hi += p >> _U(32)
    hi += np.multiply(x1, b3, out=b3)
    del p, c, x0, x1, b0, b1, b2, b3

    # vr = 4 m2 mul >> j, vp = (4 m2 + 2) mul >> j and vm = (4 m2 - 2)
    # mul >> j: (P, P + mul, P - mul) >> (j - 1)
    shift = _TABLE["shift"].take(biased)
    spill = _U(64) - shift
    mul_lo, mul_hi = _TABLE["lo"].take(biased), _TABLE["hi"].take(biased)
    low = lo + mul_lo
    up = mid + mul_hi
    up += low < lo
    vp = _shr(up, hi + (up < mid), shift, spill)
    np.subtract(lo, mul_lo, out=low)
    down = mid - mul_hi
    down -= low > lo
    vm = _shr(down, hi - (down > mid), shift, spill)
    # at a power of two the lower neighbour is half as far: vm = (4 m2 -
    # 1) mul >> j = (2P - mul) >> j
    far = np.flatnonzero(m2 == _ONE << _U(52))
    far = far[biased[far] > 1]
    if far.size:
        f_lo, f_mid, f_hi = lo[far], mid[far], hi[far]
        t_lo = f_lo << _ONE
        t_mid = (f_mid << _ONE) | (f_lo >> _U(63))
        t_hi = (f_hi << _ONE) | (f_mid >> _U(63))
        low = t_lo - mul_lo[far]
        down = t_mid - mul_hi[far] - (low > t_lo)
        vm[far] = _shr(down, t_hi - (down > t_mid), shift[far] + _ONE,
                       spill[far] - _ONE)
    vr = _shr(mid, hi, shift, spill)
    del lo, mid, hi, low, up, down, mul_lo, mul_hi, shift, spill

    # is the exact vr a whole number that ends in the digits to remove,
    # and, for large values, vm
    mv = m2 << _TWO
    vr_zeros = (mv & _TABLE["low"].take(biased)) == 0
    vm_zeros = np.zeros(len(mv), bool)
    large = np.flatnonzero(_TABLE["case"].take(biased))
    if large.size:
        _large_bounds(large, biased[large], mv[large], vp, vr_zeros,
                      vm_zeros)
    digits, removed = _remove_digits(vr, vp, vm, vr_zeros, vm_zeros, m2)
    removed += _TABLE["e10"].take(biased)
    zero = np.flatnonzero((bits << _ONE) == 0)
    digits[zero], removed[zero] = 0, 0
    return digits, removed


def _large_bounds(index, biased, mv, vp, vr_zeros, vm_zeros) -> None:
    """Ryu's trailing-zero tests of the values at `index`, whose bounds
    are whole numbers: exact where 5^q (2^q for q <= 1) divides them."""
    accept = mv & _U(4) == 0  # even m2: a bound reads back as the value
    near = mv != _U(1 << 54)  # vm = 4 m2 - 2, not 4 m2 - 1
    pow5 = _TABLE["pow5"].take(biased)
    fives = mv % _U(5) == 0
    by_five = _TABLE["case"].take(biased) == 2
    small_q = ~by_five  # q <= 1: vr is exact, vm where near, vp not
    vr_zeros[index] = np.where(by_five, fives & (mv % pow5 == 0),
                               vr_zeros[index])
    vm_zeros[index] = np.where(
        by_five, ~fives & accept & ((mv - _ONE - near) % pow5 == 0),
        small_q & accept & near)
    vp[index] -= np.where(by_five, ~fives & ~accept
                          & ((mv + _TWO) % pow5 == 0), small_q & ~accept)


def _remove_digits(vr, vp, vm, vr_zeros, vm_zeros, m2
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's digit removal: drop vr's last digit while vp and vm differ
    above it, and where vm is exact, then while vm's last digit is 0;
    round what is left.  (digits, int16 count removed)."""
    flags = bool(vr_zeros.any() or vm_zeros.any())
    state = [vr, vp, vm, np.zeros(len(vr), np.uint64), vr_zeros, vm_zeros]
    state, removed = _strip(state, False, flags)
    exact = np.flatnonzero(state[5])
    if exact.size:
        part, more = _strip([a[exact] for a in state], True, flags)
        for whole, piece in zip(state, part):
            whole[exact] = piece
        removed[exact] += more
    vr, vp, vm, last, vr_zeros, vm_zeros = state
    if not flags:  # no bound is exact
        vr += (vr == vm) | (last >= 5)
        return vr, removed
    # exactly halfway rounds to even; a bound that does not read back
    # (odd m2) is not a candidate
    last[vr_zeros & (last == 5) & (vr & _ONE == 0)] = 4
    vr += (vr == vm) & ((m2 & _ONE != 0) | ~vm_zeros) | (last >= 5)
    return vr, removed


def _strip(state: list[np.ndarray], exact: bool, flags: bool
           ) -> tuple[list[np.ndarray], np.ndarray]:
    """Drop the last digit of vr, vp and vm in `state` (vr, vp, vm, vr's
    last dropped digit, and the trailing-zero flags of vr and vm) while
    vp and vm differ above it, or while vm's last digit is 0 if `exact`;
    (the new state, the number of digits each value dropped).  A pass
    runs over the whole arrays while at least a quarter of the values
    still shorten, then over those that do."""
    vr, vp, vm, last, vr_zeros, vm_zeros = state
    removed = np.zeros(len(vr), np.int16)
    while True:
        m10 = vm // _TEN
        p10 = vp if exact else vp // _TEN  # vp is not used when exact
        go = vm == m10 * _TEN if exact else p10 > m10
        count = np.count_nonzero(go)
        if 4 * count < len(go):
            state = [vr, vp, vm, last, vr_zeros, vm_zeros]
            if count:
                live = np.flatnonzero(go)
                part, more = _strip([a[live] for a in state], exact, flags)
                for whole, piece in zip(state, part):
                    whole[live] = piece
                removed[live] += more
            return state, removed
        if flags:
            vm_zeros &= ~go | (vm == m10 * _TEN)
            vr_zeros &= ~go | (last == 0)
        r10 = vr // _TEN
        if count == len(go):
            last = vr - r10 * _TEN
            vr, vp, vm = r10, p10, m10
            removed += 1
        else:
            np.copyto(last, vr - r10 * _TEN, where=go)
            np.copyto(vr, r10, where=go)
            np.copyto(vm, m10, where=go)
            np.copyto(vp, p10, where=go)
            removed += go


def _word(text: str) -> int:
    """The bytes of `text` as an integer, the first byte lowest."""
    return int.from_bytes(text.encode(), "little")


def _words(table: list[int], words: int) -> list[np.ndarray]:
    """Each word of a table of byte strings as integers."""
    return [np.array([t >> 64 * k & (1 << 64) - 1 for t in table], np.uint64)
            for k in range(words)]


# the four ASCII digits of 0..9999 as a word, first digit lowest
_DIGITS4 = sum((np.arange(10000, dtype=np.uint64) // _U(10 ** (3 - k)) % _TEN
                + _U(ord("0"))) << _U(8 * k) for k in range(4))
# by the biased exponent of float(x), x < 2^63: the decimal digits of
# the power of two at or below x, and the power of ten one digit up
_COUNT = np.array([len(str(1 << max(e - 1023, 0))) for e in range(1087)],
                  np.int16)
_NEXT10 = _P10.take(_COUNT)
# words of a 24-byte string: its first `count` bytes all ones, and "."
# at byte `count`, for count = 0..24
_FIRST = _words([(1 << 8 * count) - 1 for count in range(25)], 3)
_DOT = _words([ord(".") << 8 * count for count in range(25)], 3)
# the sign and "0." and zeros before the digits of a value below 1 in
# fixed notation, at sign + 2 * (length of "0.00.."), that length 2..5
_PREFIX = np.array([_word(sign + ("0." + "0" * (length - 2)) * (length > 0))
                    for length in range(6) for sign in ("", "-")], np.uint64)
# "e" and the exponent of a value in exponent notation whose decimal
# point comes after `point` digits, at point + _EXP_BIAS; 0 at 0
_EXP_BIAS = 400
_EXPONENTS = np.array([0] + [_word(f"e{point - 1:+03d}") for point in
                             range(1 - _EXP_BIAS, _EXP_BIAS)], np.uint64)


def _digit_count(x: np.ndarray) -> np.ndarray:
    """The decimal digits of each x < 2^63 (1 for 0), as int16."""
    biased = x.astype(np.float64).view(np.int64) >> 52
    count = _COUNT.take(biased)
    count += x >= _NEXT10.take(biased)
    return count


def _digit_words(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 16 zero-padded ASCII digits of each x < 10^16, as two words."""
    high = x // _U(10 ** 8)
    low = x - high * _U(10 ** 8)
    words = []
    for half in (high, low):
        top = half // _U(10 ** 4)
        half -= top * _U(10 ** 4)
        word = _DIGITS4.take(half.view(np.int64))
        word <<= _U(32)
        word |= _DIGITS4.take(top.view(np.int64))
        words.append(word)
    return words[0], words[1]


def _value_words(values: np.ndarray, end: str) -> list[np.ndarray]:
    """uint64 words whose bytes, with their 0 bytes left out, are each
    value's `repr` and then `end`: three of sign, digits and point, and
    the exponent and `end` in a fourth, or in the last byte of the third
    (which fixed notation leaves free) when no value needs an exponent."""
    finite = np.isfinite(values)
    digits, exponent = shortest(values)
    count = _digit_count(digits)
    point = count + exponent  # the decimal point after `point` digits
    fixed = (point > -4) & (point <= 16)
    whole = fixed & (point > 0)
    below = fixed & ~whole  # 0.000ddd
    fixed |= ~finite

    # the digits, padded with "0" to 17, at bytes 0..16 of three words
    digits *= _P10.take(17 - count)
    lead = digits // _U(10 ** 16)
    high, low = _digit_words(digits - lead * _U(10 ** 16))
    lead += _U(ord("0"))
    lead |= high << _U(8)
    high >>= _U(56)
    high |= low << _U(8)
    low >>= _U(56)
    text = [lead, high, low]
    # every significant digit, and in fixed notation the zeros up to the
    # point and one after it
    shown = np.where(whole, np.maximum(count, point + 1), count)
    # the point: after `point` digits, or after the first in exponent
    # notation unless that is the only one (24: no point)
    at = np.where(whole, point, np.where(fixed | (count == 1), 24, 1))
    # the digits after the point move up a byte; then the sign and
    # "0.000" go before the digits
    length = np.where(below, 2 - point, 0)
    sign = np.signbit(values)
    by = (sign + length).astype(np.uint64)
    by <<= _U(3)
    spill = _U(64) - by
    moved = carry = None
    for k, word in enumerate(text):
        word &= _FIRST[k].take(shown)
        after = word & ~_FIRST[k].take(at)
        word ^= after
        word |= _DOT[k].take(at)
        word |= after << _U(8)
        if k:
            word |= moved >> _U(56)
        moved, spilled = after, word >> spill
        word <<= by
        if k:
            word |= carry
        carry = spilled
    text[0] |= _PREFIX.take(sign + 2 * length)
    for k in np.flatnonzero(~finite):
        text[0][k] = _word(repr(float(values[k])))
        text[1][k] = text[2][k] = 0
    if fixed.all():
        text[2] |= _U(_word(end) << 56)
    else:
        text.append(_EXPONENTS.take(np.where(fixed, 0, point + _EXP_BIAS)))
        text[3] |= _U(_word(end) << 56)
    return text


def _pack(start: int, columns: list[np.ndarray], labels: tuple[str, ...],
          scratch: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(the text of `format_rows` as a uint8 array, the uint64 scratch
    array of its words, which a later call may reuse if it is large
    enough)."""
    rows = len(columns[0])
    if start < 0 or start + rows > 10 ** 15:
        raise ValueError(f"row ids {start}..{start + rows - 1} are not "
                         "below 10^15")
    ids = np.arange(start, start + rows, dtype=np.uint64)
    # up to 7 (15) digits and a tab, leading zeros left out but the last
    high, low = _digit_words(ids)
    width = 1 if start + rows <= 10 ** 7 else 2
    fields = [high >> _U(8) | low << _U(56),
              low >> _U(8) | _U(ord("\t") << 56)][2 - width:]
    blank = 8 * width - 1 - _digit_count(ids)
    for k, word in enumerate(fields):
        word &= ~_FIRST[k].take(blank)
    if labels:
        names = [(label + "\t").encode() for label in labels]
        which = (ids % _U(len(labels))).view(np.int64)
        fields += [word.take(which) for word in _words(
            [int.from_bytes(name, "little") for name in names],
            -(-max(map(len, names)) // 8))]
    for k, values in enumerate(columns):
        fields += _value_words(values, "\t" if k + 1 < len(columns) else "\n")
    size = rows * len(fields)
    if scratch is None or len(scratch) < size:
        scratch = np.empty(size, np.uint64)
    words = scratch[:size].reshape(rows, len(fields))
    np.stack(fields, axis=1, out=words)
    text = words.view(np.uint8)
    return text[text != 0], scratch


def format_rows(start: int, columns, labels: tuple[str, ...] = ()) -> bytes:
    """The UTF-8 lines `id[<TAB>label]<TAB>value...` of rows start,
    start + 1, ... (ids below 10^15) of float64 `columns`, each value
    its `repr`; row i gets `labels[i % len(labels)]`, and no label
    holds a NUL."""
    columns = [np.asarray(column, np.float64) for column in columns]
    return _pack(start, columns, labels, None)[0].tobytes()


def write_rows(fh: IO[bytes], columns, labels: tuple[str, ...] = (),
               rows: int = 1 << 14) -> None:
    """Write `format_rows` of every row of `columns` to the binary file
    `fh`, `rows` rows at a time, the blocks sharing one scratch array."""
    scratch = None
    for start in range(0, len(columns[0]), rows):
        block = [np.asarray(column[start:start + rows], np.float64)
                 for column in columns]
        text, scratch = _pack(start, block, labels, scratch)
        fh.write(text)
