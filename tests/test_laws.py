"""Correlation laws and angle canonicalization."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from corrwork.laws import Angle, CorrelationLaw, canonical_radians, tabulated_from_csv

CLASSICAL = CorrelationLaw.classical()
QUANTUM = CorrelationLaw.quantum()
SUPERQUANTUM = CorrelationLaw.superquantum()
ALL_LAWS = [CLASSICAL, QUANTUM, SUPERQUANTUM]

#: every finite double: a uniform draw from a range such as (-20, 20) lies on
#: a 3.5e-15 grid, where a rounded theta + 2*pi is exact and hides the rounding
FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: small negative misalignments, where a rounded theta + 2*pi loses digits
SMALL_NEGATIVE = (-1e-20, -1e-10, -0.1)


def exact_reduction(raw: float) -> float:
    """|theta| reduced to [0, pi] modulo 2*pi, exactly (IEEE remainder)."""
    return abs(math.remainder(raw, 2.0 * math.pi))


def with_small_negatives(test):
    for raw in SMALL_NEGATIVE:
        test = example(raw)(test)
    return test


class TestAngle:
    def test_identity_case(self):
        assert Angle(0.0).radians == 0.0

    def test_reflection_of_three_half_pi(self):
        assert Angle(3.0 * math.pi / 2.0).radians == math.pi / 2.0

    @with_small_negatives
    @given(FINITE)
    def test_reduction_is_exact(self, raw):
        assert Angle(raw).radians == exact_reduction(raw)

    @with_small_negatives
    @given(FINITE)
    def test_evenness(self, raw):
        assert Angle(-raw) == Angle(raw)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            Angle(bad)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_canonical_range_and_idempotence(self, raw):
        first = Angle(raw)
        assert 0.0 <= first.radians <= math.pi
        assert Angle(first.radians).radians == first.radians

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_cosine_agrees_at_raw_and_canonical(self, raw):
        assert math.cos(raw) == pytest.approx(
            math.cos(Angle(raw).radians), abs=1e-12
        )


class TestClassicalLaw:
    def test_quarter_pi(self):
        assert CLASSICAL.evaluate(Angle(math.pi / 4.0)) == -0.5

    def test_zero_endpoint(self):
        assert CLASSICAL.evaluate(Angle(0.0)) == -1.0

    def test_three_quarter_pi(self):
        assert CLASSICAL.evaluate(Angle(3.0 * math.pi / 4.0)) == 0.5


class TestQuantumLaw:
    def test_quarter_pi(self):
        assert QUANTUM.evaluate(Angle(math.pi / 4.0)) == pytest.approx(
            -math.sqrt(2.0) / 2.0, abs=1e-15
        )

    def test_half_pi(self):
        assert QUANTUM.evaluate(Angle(math.pi / 2.0)) == pytest.approx(0.0, abs=1e-15)

    def test_pi_endpoint(self):
        assert QUANTUM.evaluate(Angle(math.pi)) == 1.0


class TestSuperquantumLaw:
    def test_quarter_pi(self):
        assert SUPERQUANTUM.evaluate(Angle(math.pi / 4.0)) == -1.0

    def test_three_quarter_pi(self):
        assert SUPERQUANTUM.evaluate(Angle(3.0 * math.pi / 4.0)) == 1.0

    def test_half_pi_is_zero(self):
        assert SUPERQUANTUM.evaluate(Angle(math.pi / 2.0)) == 0.0


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.name)
def test_values_bounded_by_one(law):
    for i in range(2001):
        theta = math.pi * i / 2000
        assert abs(law.evaluate(Angle(theta))) <= 1.0


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.name)
@given(theta=st.floats(min_value=0.0, max_value=math.pi))
def test_antisymmetry_about_half_pi(law, theta):
    left = law.evaluate(Angle(math.pi - theta))
    right = -law.evaluate(Angle(theta))
    assert left == pytest.approx(right, abs=1e-12)


TABLE_LAWS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=math.pi),
              st.floats(min_value=-1.0, max_value=1.0)),
    min_size=1, max_size=12, unique_by=lambda knot: knot[0],
).map(lambda knots: CorrelationLaw.tabulated(sorted(knots)))
RAW_ANGLES = st.lists(st.one_of(st.floats(min_value=-50.0, max_value=50.0), FINITE),
                      min_size=1, max_size=40)


class TestArrayTwins:
    @example(raw=list(SMALL_NEGATIVE))
    @given(raw=RAW_ANGLES)
    def test_canonical_radians_matches_angle(self, raw):
        got = canonical_radians(np.array(raw)).tolist()
        assert got == [Angle(r).radians for r in raw] == [exact_reduction(r) for r in raw]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            canonical_radians(np.array([0.0, bad]))

    @given(law=st.one_of(st.sampled_from(ALL_LAWS), TABLE_LAWS), raw=RAW_ANGLES)
    def test_evaluate_many_within_four_ulp_of_evaluate(self, law, raw):
        for theta, e in zip(raw, law.evaluate_many(np.array(raw)).tolist()):
            want = law.evaluate(theta)
            assert abs(e - want) <= 4 * math.ulp(max(abs(e), abs(want))), theta

    @given(law=TABLE_LAWS)
    def test_table_evaluate_many_equals_evaluate_exactly(self, law):
        knots = [theta for theta, _ in law.table]
        thetas = [0.0, math.pi, *knots]
        thetas += [(lo + hi) / 2.0 for lo, hi in zip(knots, knots[1:])]
        thetas += [math.nextafter(k, d) for k in knots for d in (0.0, math.pi)]
        got = law.evaluate_many(np.array(thetas)).tolist()
        assert got == [law.evaluate(theta) for theta in thetas]

    def test_table_clamps_and_hits_knots(self):
        law = CorrelationLaw.tabulated([(1.0, -0.5), (2.0, 0.5)])
        got = law.evaluate_many(np.array([0.5, 1.0, 1.5, 2.0, 2.5]))
        assert got.tolist() == [-0.5, -0.5, law.evaluate(1.5), 0.5, 0.5]
        single = CorrelationLaw.tabulated([(1.0, 0.25)])
        assert single.evaluate_many(np.array([0.0, 1.0, 3.0])).tolist() == [0.25] * 3

    def test_alternating_tables_each_use_their_own_knots(self):
        # the knot arrays are converted once per table object, not per call
        rising = CorrelationLaw.tabulated([(1.0, -0.5), (2.0, 0.5)])
        falling = CorrelationLaw.tabulated([(1.0, 0.5), (2.0, -0.5)])
        theta = np.array([0.5, 1.25, 1.5, 2.5])
        for law in (rising, falling, rising, falling):
            got = law.evaluate_many(theta).tolist()
            assert got == [law.evaluate(t) for t in theta.tolist()]


class TestTabulatedLaw:
    def test_interpolates_between_knots(self):
        law = CorrelationLaw.tabulated([(0.0, -1.0), (math.pi / 2.0, 0.0), (math.pi, 1.0)])
        assert law.evaluate(Angle(math.pi / 4.0)) == pytest.approx(-0.5, abs=1e-15)

    def test_clamps_outside_knot_range(self):
        law = CorrelationLaw.tabulated([(1.0, -0.5), (2.0, 0.5)])
        assert law.evaluate(Angle(0.5)) == -0.5
        assert law.evaluate(Angle(2.5)) == 0.5
        assert law.evaluate(Angle(1.5)) == pytest.approx(0.0, abs=1e-15)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            CorrelationLaw.tabulated([])

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            CorrelationLaw.tabulated([(0.5, 0.0), (0.5, 0.1)])

    def test_out_of_range_correlation_rejected(self):
        with pytest.raises(ValueError):
            CorrelationLaw.tabulated([(0.0, -2.0)])

    def test_table_forbidden_for_named_kinds(self):
        with pytest.raises(ValueError):
            CorrelationLaw(CorrelationLaw.classical().kind, table=((0.0, 0.0),))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="valid names"):
            CorrelationLaw.from_name("bogus")

    def test_kind_value_tabulated_is_not_a_name(self):
        with pytest.raises(ValueError, match="valid names"):
            CorrelationLaw.from_name("tabulated")

    def test_table_name_loads_the_csv(self, tmp_path):
        path = tmp_path / "law.csv"
        path.write_text("theta_radians,e\n0.0,-1.0\n1.0,0.25\n3.0,0.75\n",
                        encoding="utf-8")
        assert CorrelationLaw.from_name(f"table:{path}") == tabulated_from_csv(path)

    def test_table_name_needs_a_path(self):
        with pytest.raises(ValueError, match=r"^table law needs a path: table:<path>$"):
            CorrelationLaw.from_name("table:")


class TestTabulatedCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "law.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path):
        path = self._write(
            tmp_path, "theta_radians,e\n0.0,-1.0\n1.5707963,0.0\n3.14159,1.0\n"
        )
        law = tabulated_from_csv(path)
        assert law.evaluate(Angle(0.0)) == -1.0
        assert law.evaluate(Angle(3.0)) == pytest.approx(0.90985, abs=1e-4)

    def test_bad_header_names_line_one(self, tmp_path):
        path = self._write(tmp_path, "angle,corr\n0.0,0.0\n")
        with pytest.raises(ValueError, match="line 1"):
            tabulated_from_csv(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = self._write(tmp_path, "theta_radians,e\n0.0,-1.0\nfoo,0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            tabulated_from_csv(path)

    def test_non_increasing_names_line(self, tmp_path):
        path = self._write(tmp_path, "theta_radians,e\n1.0,-1.0\n0.5,0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            tabulated_from_csv(path)

    def test_out_of_range_angle_names_line(self, tmp_path):
        path = self._write(tmp_path, "theta_radians,e\n0.0,-1.0\n9.0,0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            tabulated_from_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="line 1"):
            tabulated_from_csv(path)

    @pytest.mark.parametrize("data, line", [
        (b"\xfftheta_radians,e\n0.0,-1.0\n", 1),
        (b"theta_radians,e\n\xff,0.5\n", 2),
        (b"\xef\xbb\xbftheta_radians,e\n\xff,0.5\n", 2),
        (b"theta_radians,e\r\n0.0,-1.0\r\n0.5,0.\xe9\r\n", 3),
        # far past the first 8 KB chunk that a text reader decodes
        (b"theta_radians,e\n" + b"".join(b"%r,0.0\n" % (k * 1e-3) for k in range(1000))
         + b"\xff,0.5\n", 1002),
    ], ids=["first-byte", "line-2", "after-bom", "crlf", "past-8kb"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, data, line):
        path = tmp_path / "law.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            tabulated_from_csv(path)
        assert str(info.value) == f"{path}: line {line}: not valid UTF-8"


#: knot coordinates: in and out of range, non-finite, and a small pool of
#: repeated values, so that sorted lists repeat angles
KNOT_COORDINATES = st.one_of(
    st.floats(min_value=-1.5, max_value=4.0),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, math.pi,
                     math.nextafter(math.pi, 4.0)]),
)
KNOT_LISTS = st.lists(st.tuples(KNOT_COORDINATES, KNOT_COORDINATES),
                      min_size=1, max_size=8)


def _rejects(knots) -> bool:
    try:
        CorrelationLaw.tabulated(knots)
    except ValueError:
        return True
    return False


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(knots=st.one_of(KNOT_LISTS, KNOT_LISTS.map(sorted)))
def test_csv_loader_rejects_exactly_the_knots_the_constructor_rejects(tmp_path, knots):
    path = tmp_path / "law.csv"
    rows = "".join(f"{theta!r},{e!r}\n" for theta, e in knots)
    path.write_text("theta_radians,e\n" + rows, encoding="utf-8")
    try:
        law = CorrelationLaw.tabulated(knots)
    except ValueError as exc:
        # the constructor reports the first knot that no prefix of the table
        # may end in; the loader names that knot's line, header on line 1
        bad = next(k for k in range(len(knots)) if _rejects(knots[:k + 1]))
        with pytest.raises(ValueError) as info:
            tabulated_from_csv(path)
        assert str(info.value) == f"{path}: line {bad + 2}: {exc}"
    else:
        assert tabulated_from_csv(path) == law
