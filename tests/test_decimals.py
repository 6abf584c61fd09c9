"""Shortest round-trip decimals against `repr`, byte for byte.

`decimals.format_rows` must give the bytes of `conftest.oracle_rows`,
one `%r` format per value, for every float64: raw bit patterns,
hypothesis floats, and the edge cases of Ryu's bounds and of the switch
between `repr`'s fixed and exponent notations.
"""

import io
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgesub import decimals

from conftest import oracle_rows

DIRECTIONS = ("tail-query", "head-query")
MAX = sys.float_info.max
TINY = sys.float_info.min  # the smallest normal double


def ulps(values, k: int = 1) -> np.ndarray:
    """Each value and its k neighbours below and above, as float64."""
    values = np.asarray(values, np.float64)
    out = [values]
    down = up = values
    for _ in range(k):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def same_text(values, start: int = 0, labels: tuple[str, ...] = ()) -> None:
    """One column of `values` and its negation, as two columns and as one."""
    values = np.asarray(values, np.float64)
    for columns in ([values], [values, -values]):
        assert decimals.format_rows(start, columns, labels) == \
            oracle_rows(start, columns, labels)


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
EDGES = {
    "subnormals": np.concatenate([
        ulps([5e-324], 3), ulps([TINY], 3), TINY * np.arange(1, 50) / 64,
        np.random.default_rng(1).integers(1, 1 << 52, 500)
        .view(np.float64)]),
    "smallest and largest": np.array([5e-324, 1e-323, TINY,
                                      np.nextafter(TINY, 0), MAX,
                                      np.nextafter(MAX, 0)]),
    # the lower bound of 2^k (mantissa 0) is half as far as the upper
    "powers of two and one ulp": ulps(POWERS_OF_TWO[:-1]),
    "notation switch near 1e-4": ulps([1e-4, 1e-5, 9.999999999999999e-05,
                                       0.00011, 0.000123456789], 4),
    "notation switch near 1e16": ulps([1e16, 1e15, 1e17, 9999999999999998.0,
                                       1.2345678901234567e16], 4),
    "integers to and past 2^53": np.concatenate([
        np.arange(0, 2000), 2.0 ** 53 + np.arange(-40, 41),
        2.0 ** 54 + np.arange(-40, 41, 2), 10.0 ** np.arange(23),
        np.arange(1, 64) * 2.0 ** 60, [1e22, 1e23, 2.0 ** 63, 2.0 ** 64]]),
    "short decimals and halves": np.concatenate([
        np.arange(1, 1000) / 1000, np.arange(1, 200) / 8,
        [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 5e-324 * 3, 0.5, 1.5, 2.5]]),
    "signed zeros": np.array([0.0, -0.0]),
    "exponents of every width": 10.0 ** np.arange(-323, 309, dtype=float),
}


class TestShortest:
    def test_raw_bit_patterns(self):
        """200,000 uint64 patterns cover every binary exponent, NaN and
        the infinities included."""
        bits = np.random.default_rng(36).integers(
            0, 1 << 64, 200_000, dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        assert decimals.format_rows(0, [values]) == oracle_rows(0, [values])

    @pytest.mark.parametrize("case", sorted(EDGES))
    def test_edge_cases(self, case):
        same_text(EDGES[case])

    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_hypothesis_floats(self, values):
        same_text(values)

    def test_digits_and_exponent(self):
        """At most 17 digits, none trailing, whose value reads back as
        the float, with repr's digits."""
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.integers(0, 0x7FF0 << 48, 20_000, dtype=np.uint64)
            .view(np.float64), EDGES["integers to and past 2^53"]])
        digits, exponent = decimals.shortest(values)
        assert exponent.dtype == np.int16
        for value, d, e in zip(values.tolist(), digits.tolist(),
                               exponent.tolist()):
            assert float(f"{d}e{e}") == value
            assert d == 0 == e if value == 0 else d % 10 and d < 10 ** 17
            mantissa = repr(value).split("e")[0].replace(".", "").lstrip("0")
            assert str(d) == (mantissa.rstrip("0") or "0")


class TestRows:
    @pytest.mark.parametrize("start", [0, 1, 9, 95, 9_995, 10 ** 7 - 5,
                                       10 ** 14 - 3])
    def test_ids_across_powers_of_ten(self, start):
        values = np.random.default_rng(start).lognormal(size=12)
        same_text(values, start, DIRECTIONS)

    @pytest.mark.parametrize("labels", [("a",), ("", "bc", "défg"),
                                        ("a label of twenty chars",)])
    def test_labels_of_any_length(self, labels):
        same_text(np.arange(10) / 7, 5, labels)

    def test_three_columns(self):
        rng = np.random.default_rng(3)
        columns = [rng.normal(size=50), rng.gamma(1.0, size=50),
                   rng.normal(size=50) * 1e300]
        assert decimals.format_rows(4, columns, DIRECTIONS) == \
            oracle_rows(4, columns, DIRECTIONS)

    @pytest.mark.parametrize("rows", [1, 3, 7, 100])
    def test_blocks_of_every_layout_share_scratch(self, rows):
        """Blocks with and without exponents, and a column of zeros and
        non-finite values, written block by block into one file."""
        values = np.concatenate([np.arange(9) * 1e300, np.arange(9) / 3,
                                 [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e16],
                                 np.arange(30.0)])
        columns = [values, values[::-1].copy()]
        out = io.BytesIO()
        decimals.write_rows(out, columns, DIRECTIONS, rows)
        assert out.getvalue() == oracle_rows(0, columns, DIRECTIONS)

    def test_ids_beyond_fifteen_digits_are_refused(self):
        same_text([1.0], 10 ** 15 - 1)
        with pytest.raises(ValueError, match="not below 10"):
            decimals.format_rows(10 ** 15 - 1, [[1.0, 2.0]])
