"""The sweep CSV kernel: its bytes are exactly those of "%.10g"."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corrwork import _sweepcsv, cli
from corrwork._sweepcsv import format_blocks
from corrwork.information import mutual_information_many


def reference(block) -> bytes:
    """What the kernel must return: "%" formatting of the whole block."""
    k, c = block.shape
    line = ",".join(["%.10g"] * c) + "\n"
    return ((line * k) % tuple(block.ravel().tolist())).encode("ascii")


def as_block(values, c=4):
    """``values`` padded with zeros to a (k, c) block."""
    values = np.asarray(values, dtype=np.float64).ravel()
    pad = -len(values) % c
    return np.concatenate([values, np.zeros(pad)]).reshape(-1, c)


def assert_formats_like_percent(values):
    block = as_block(values)
    got, want = b"".join(format_blocks([block])), reference(block)
    if got != want:
        wrong = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(wrong)} lines differ, first {wrong[:3]}")


def neighbours(values):
    """Each value and the doubles one ulp below and above it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


def _midpoint(digits: int, exponent: int) -> float:
    """The double nearest to the 11-digit decimal digits.5 * 10**(exponent - 9)."""
    return float(Decimal(2 * digits + 1) / 2 * Decimal(10) ** (exponent - 9))


#: values outside the kernel's domain, and an exact tie; the last two print
#: as -1.797693135e+308 and -4.940656458e-324, the longest "%.10g" texts
FALLBACKS = np.array([math.nan, math.inf, -math.inf, 5e-324, 9e-291, 10.0, -10.0,
                      9.9999999996, 1.0009765625, -1.7976931348623157e308, -5e-324])

VALUES = st.one_of(
    st.floats(),  # +-0, subnormals, +-inf, NaN, |x| >= 10
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e-300, max_value=1e-4),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-290,
                     9.9999999995, 9.99999999996, 10.0, math.pi, math.log(2.0)]),
    st.builds(_midpoint, st.integers(10**9, 10**10 - 1), st.integers(-300, 0)),
)


class TestKernel:
    @settings(max_examples=2000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.binary(max_size=8 * 16), st.lists(VALUES, min_size=1, max_size=8))
    def test_block_matches_percent_formatting(self, raw, values):
        bits = np.frombuffer(raw[: len(raw) // 8 * 8], dtype="<u8")  # any bit pattern
        block = as_block(np.concatenate([bits.view("<f8"), values]))
        assert b"".join(format_blocks([block])) == reference(block)

    @pytest.mark.parametrize("exponent", [0, -1, -2, -3, -4, -5, -12, -22, -23, -99,
                                          -100, -150, -250, -290])
    def test_decimal_midpoints_and_their_neighbours(self, exponent):
        rng = np.random.default_rng(-exponent)
        digits = rng.integers(10**9, 10**10, 400).tolist()
        assert_formats_like_percent(neighbours([_midpoint(d, exponent) for d in digits]))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = [float(f"1e{e}") for e in range(0, -301, -1)]
        assert_formats_like_percent(np.concatenate([neighbours(powers),
                                                    -neighbours(powers)]))

    def test_values_that_round_up_to_the_next_decade(self):
        # N rounds to 10**10: the digits become 1 and the exponent grows,
        # which can change the layout class
        edges = [9.9999999995, 9.99999999951, 0.99999999996, 0.000099999999996,
                 9.99999999996e-5, 9.999999999951e-6, 9.9999999996e-100,
                 9.9999999996e-11, 9.99999999996e-290]
        assert_formats_like_percent(neighbours(edges + [-e for e in edges]))

    def test_two_and_three_digit_exponents(self):
        values = [1.5e-5, 1.234567891e-10, 4.2e-99, 9.87654321e-100, 1.0e-100,
                  3.3e-150, 7.77e-289, 1e-290, 2.2250738585072014e-308, 5e-324]
        assert_formats_like_percent(values + [-v for v in values])

    def test_fixed_classes_and_trailing_zeros(self):
        values = [0.0, -0.0, 1.0, -1.0, 0.5, 0.25, 0.1, 0.01, 0.001, 0.0001, 0.00012,
                  1.5, 2.000000001, 3.14159265358979, 0.1000000001, 0.0001234567891]
        assert_formats_like_percent(values + [-v for v in values])

    @pytest.mark.parametrize("exponent", [0, -1, -2, -3, -4, -5, -42, -99, -100, -290])
    def test_every_sign_layout_class_and_digit_count(self, exponent):
        # X = 0..-4 print in fixed notation, the others with a 2- or 3-digit
        # exponent; each count of significant digits from 1 to 10 ends in a
        # nonzero digit, with zeros before it ("9005") and without ("1234")
        texts = [d for count in range(1, 11)
                 for d in ("1234567891"[:count], ("9" + "0" * 8)[: count - 1] + "5")]
        values = [float(f"{d}e{exponent - len(d) + 1}") for d in texts]
        values = np.array(values + [-v for v in values])
        x, n, slow = _sweepcsv._round(values)
        assert not slow.any() and (x == exponent).all()
        assert n.tolist() == [int(d.ljust(10, "0")) for d in texts] * 2
        assert_formats_like_percent(values)

    def test_exact_ties_round_half_even(self):
        # j / 1024 (X = 0) and j / 2048 (X = -1) for odd j have 11 significant
        # digits ending in 5: exact ties for 10 digits
        assert_formats_like_percent([1025 / 1024, 1027 / 1024, 10239 / 1024,
                                     205 / 2048, -1025 / 1024])

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 7])
    def test_any_column_count(self, c):
        rng = np.random.default_rng(c)
        block = rng.uniform(-1.0, 1.0, (33, c)) * 10.0 ** rng.integers(-40, 1, (33, c))
        block[0, 0], block[-1, -1] = math.nan, 0.0
        assert b"".join(format_blocks([block])) == reference(block)
        # only fallback fields, each value in every column, the last one too
        block = np.array([np.roll(FALLBACKS, k)[:c] for k in range(len(FALLBACKS))])
        assert b"".join(format_blocks([block])) == reference(block)

    def test_sweep_values_take_the_vector_path(self):
        theta = np.linspace(0.0, math.pi, 4097)
        e = -np.cos(theta)
        values = np.concatenate([theta, e, np.abs(e) * 0.69, [0.0, -0.0, 1e-290]])
        *_, slow = _sweepcsv._round(values)
        assert not slow.any()

    def test_values_outside_the_domain_take_the_fallback(self):
        *_, slow = _sweepcsv._round(FALLBACKS)
        assert slow.all()
        assert max(len(b"%.10g" % v) for v in FALLBACKS) == 17


class TestBuffers:
    """format_blocks formats every block of a sequence in the same slot and
    line buffers: no field may print a byte that an earlier block left there."""

    def test_short_fields_after_the_longest_fallbacks(self):
        k = cli.SWEEP_BLOCK
        longest = [-1.7976931348623157e308, -5e-324, math.nan]  # 17, 17 and 3 bytes
        blocks = [as_block(np.resize(longest, 4 * k)),
                  as_block(np.resize([0.0, -1.0, 0.5], 4 * k)),
                  as_block(np.resize([0.5, 0.0, -1.0, 0.25, math.pi], 4 * (k // 3)))]
        # a block of more than _ROWS rows comes out in several pieces
        assert b"".join(format_blocks(blocks)) == b"".join(map(reference, blocks))

    def test_a_larger_block_grows_the_buffers(self):
        blocks = [as_block([1.5, -2.0]), as_block(np.linspace(-1.0, 1.0, 4 * 300)),
                  as_block(FALLBACKS)]
        assert list(format_blocks(blocks)) == [reference(b) for b in blocks]

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_sequences_of_shrinking_blocks_match_percent_formatting(self, data):
        c = data.draw(st.integers(1, 5), label="c")
        ks = sorted(data.draw(st.sets(st.integers(1, 12), min_size=1, max_size=4),
                              label="ks"), reverse=True)
        blocks = [np.array(data.draw(st.lists(VALUES, min_size=k * c, max_size=k * c)),
                           dtype=np.float64).reshape(k, c) for k in ks]
        assert list(format_blocks(blocks)) == [reference(b) for b in blocks]


class TestColumnReuse:
    """A column whose bits equal those of its left neighbour prints that
    column's fields; any other column is formatted on its own."""

    @staticmethod
    def assert_matches(block):
        block = np.asarray(block, dtype=np.float64)
        assert b"".join(format_blocks([block])) == reference(block)

    def test_equal_values_with_other_bits_are_formatted_again(self):
        # comparing values would reuse -0.0 for 0.0 and print "0,0,-0,-0"
        self.assert_matches([[0.0, 0.0, -0.0, 0.0], [-0.0, -0.0, 0.0, 0.0]])
        self.assert_matches([[-0.0, 0.0, -0.0, 0.0]])

    def test_equal_nan_bits_reuse_the_nan_fields(self):
        nan = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]  # a payload
        self.assert_matches([[math.nan, math.nan, nan, nan, -math.nan],
                             [1.0, 1.0, 0.5, 0.5, 0.5]])

    def test_repeats_that_are_not_the_last_column(self):
        rng = np.random.default_rng(5)
        a, b, c = rng.uniform(-1.0, 1.0, (3, 17))
        for columns in ([a, a, b, c], [a, a, a, b], [a, b, b, c, c], [a, a, a, a]):
            self.assert_matches(np.column_stack(columns))

    @pytest.mark.parametrize("k", [1, 2, 4097])
    def test_single_column_blocks(self, k):
        block = np.linspace(-1.0, 1.0, k)[:, None]
        block[0, 0] = math.nan
        self.assert_matches(block)

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_blocks_with_repeated_columns_match_percent_formatting(self, data):
        c = data.draw(st.integers(1, 6), label="c")
        k = data.draw(st.integers(1, 6), label="k")
        block = np.array(data.draw(st.lists(VALUES, min_size=k * c, max_size=k * c)),
                         dtype=np.float64).reshape(k, c)
        for j in range(1, c):
            how = data.draw(st.sampled_from(["own", "repeat", "flip zeros"]))
            if how != "own":
                block[:, j] = block[:, j - 1]
            if how == "flip zeros":  # equal values, other bits
                block[:, j] = np.where(block[:, j] == 0.0, -block[:, j], block[:, j])
        self.assert_matches(block)

    def test_blocks_longer_than_a_slice(self):
        rows = _sweepcsv._ROWS
        theta = np.linspace(0.0, math.pi, 2 * rows + 5)
        e = -np.cos(theta)
        i = mutual_information_many(e)
        block = np.column_stack((theta, e, i, i))  # a sweep block: w_kT repeats I
        block[rows - 1 : rows + 1, 1] = [math.nan, -1.7976931348623157e308]
        pieces = list(format_blocks([block, block[: rows + 1]]))
        slices = [block[:rows], block[rows : 2 * rows], block[2 * rows :],
                  block[:rows], block[rows : rows + 1]]
        assert pieces == [reference(s) for s in slices]
