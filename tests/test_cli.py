"""Command-line surface: subcommands, formats, exit codes, determinism."""

import errno
import gc
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from operator import itemgetter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings, strategies as st

from corrwork import _sweepcsv, cli, energetics
from corrwork.information import LN2, binary_entropy, mutual_information_many
from corrwork.laws import CorrelationLaw
from corrwork.nonlocality import chsh_value
from corrwork.rng import RandomStream
from corrwork.szilard import CycleResult, EngineConfig, expected_work, optimal_partition

from oracles import binomial_tail_mp, bit_information_mp, h2_direct


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "theta,e,i_nats,w_kT"
    return [tuple(float(f) for f in line.split(",")) for line in lines[1:]]


def fit_poorly(monkeypatch):
    """Make every decay fit keep its slope and intercept but report r^2 = 0.99."""
    loglog_fit = energetics._loglog_fit

    def poor(xs, ys):
        slope, intercept, _ = loglog_fit(xs, ys)
        return slope, intercept, 0.99

    monkeypatch.setattr(energetics, "_loglog_fit", poor)


class TestSweep:
    def test_quantum_grid_at_half_pi(self, capsys, tmp_path):
        out = tmp_path / "q.csv"
        code, _, _ = run(capsys, "sweep", "--law", "quantum", "--steps", "181",
                         "--out", str(out))
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 181
        theta, e, i_nats, w_kt = rows[90]
        assert theta == pytest.approx(math.pi / 2.0, abs=1e-9)
        assert e == pytest.approx(0.0, abs=1e-12)
        assert i_nats == pytest.approx(0.0, abs=1e-12)
        assert w_kt == pytest.approx(0.0, abs=1e-12)

    def test_classical_endpoints(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "sweep", "--law", "classical", "--steps", "181",
                         "--out", str(out))
        assert code == 0
        rows = read_rows(out)
        assert rows[0][1] == -1.0
        assert rows[0][2] == pytest.approx(LN2, abs=1e-9)
        assert rows[0][3] == pytest.approx(LN2, abs=1e-9)
        assert rows[-1][1] == 1.0
        assert rows[-1][2] == pytest.approx(LN2, abs=1e-9)

    def test_superquantum_ln2_except_half_pi(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sweep", "--law", "superquantum", "--steps", "181",
                         "--out", str(out))
        assert code == 0
        rows = read_rows(out)
        for k, (theta, e, i_nats, _) in enumerate(rows):
            if k == 90:
                assert i_nats == 0.0
            else:
                assert i_nats == pytest.approx(LN2, abs=1e-9)

    def test_rows_satisfy_information_identity(self, capsys, tmp_path):
        out = tmp_path / "q.csv"
        run(capsys, "sweep", "--law", "quantum", "--steps", "97", "--out", str(out))
        for theta, e, i_nats, w_kt in read_rows(out):
            assert i_nats == pytest.approx(
                LN2 - h2_direct((1.0 + e) / 2.0), abs=2e-9
            )
            assert w_kt == i_nats

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "--law", "quantum", "--out", str(a))
        run(capsys, "sweep", "--law", "quantum", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, capsys, tmp_path):
        out = tmp_path / "a.csv"
        run(capsys, "sweep", "--law", "classical", "--steps", "5", "--out", str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_in_memory_rows_meet_tight_tolerance(self):
        rows = np.vstack(list(cli.build_sweep(CorrelationLaw("quantum"), 0.0, math.pi, 1001)))
        assert len(rows) == 1001
        for theta, e, i_nats, _ in rows:
            assert abs(i_nats - (LN2 - binary_entropy((1.0 + e) / 2.0))) < 1e-12
        thetas = [row[0] for row in rows]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))

    @pytest.mark.parametrize("law", ["classical", "quantum"])
    def test_work_is_never_negative_near_half_pi(self, capsys, tmp_path, law):
        out = tmp_path / "near.csv"
        code, _, _ = run(capsys, "sweep", "--law", law,
                         "--theta-min", repr(math.pi / 2.0 - 1e-6),
                         "--theta-max", repr(math.pi / 2.0 + 1e-6),
                         "--steps", "20001", "--out", str(out))
        assert code == 0
        assert all(i_nats >= 0.0 and w_kt >= 0.0
                   for _, _, i_nats, w_kt in read_rows(out))

    def test_rows_are_lazy_and_arguments_eager(self):
        blocks = cli.build_sweep(CorrelationLaw("quantum"), 0.0, math.pi, 10**12)
        assert next(blocks)[0, 0] == 0.0
        with pytest.raises(cli.UsageError):
            cli.build_sweep(CorrelationLaw("quantum"), 0.0, math.pi, 1)

    def test_failed_write_leaves_no_file_and_keeps_the_old_one(self, tmp_path):
        def rows():
            yield np.array([[0.0, -1.0, LN2, LN2]])
            raise RuntimeError("interrupted")

        out = tmp_path / "x.csv"
        with pytest.raises(RuntimeError):
            cli.write_sweep_csv(rows(), str(out))
        assert os.listdir(tmp_path) == []
        out.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            cli.write_sweep_csv(rows(), str(out))
        assert os.listdir(tmp_path) == ["x.csv"]
        assert out.read_text(encoding="utf-8") == "old\n"

    # both edges of a format slice and of a sweep block
    @pytest.mark.parametrize("steps", [2, _sweepcsv._ROWS - 1, _sweepcsv._ROWS,
                                       _sweepcsv._ROWS + 1, cli.SWEEP_BLOCK - 1,
                                       cli.SWEEP_BLOCK, cli.SWEEP_BLOCK + 1,
                                       2 * cli.SWEEP_BLOCK + 1])
    def test_blocks_cover_exactly_steps_rows(self, steps):
        blocks = list(cli.build_sweep(CorrelationLaw("classical"), 0.0, math.pi, steps))
        assert all(b.dtype == np.float64 and b.shape[1] == 4
                   and 1 <= len(b) <= cli.SWEEP_BLOCK for b in blocks)
        theta = np.vstack(blocks)[:, 0]
        assert len(theta) == steps
        assert np.all(np.diff(theta) > 0.0)
        assert theta[0] == 0.0 and theta[-1] == math.pi

    def test_table_law_interpolates_each_row_once(self):
        knots = [(0.0, -1.0), (0.4, -0.9), (1.5, 0.1), (2.9, 0.95)]
        law = CorrelationLaw("tabulated", knots)
        blocks = list(cli.build_sweep(law, 0.0, math.pi, 2 * cli.SWEEP_BLOCK + 7))
        assert len(blocks) == 3
        for block in blocks:
            # I comes from the block's own E column, not a second interpolation
            assert np.array_equal(block[:, 2], mutual_information_many(block[:, 1]))
            assert np.array_equal(block[:, 3], block[:, 2])

    @pytest.mark.parametrize("law", [
        CorrelationLaw("classical"), CorrelationLaw("quantum"),
        CorrelationLaw("superquantum"),
        CorrelationLaw("tabulated", [(0.0, -1.0), (0.4, -0.9), (1.5, 0.1), (2.9, 0.95)]),
    ], ids=["classical", "quantum", "superquantum", "tabulated"])
    def test_blocks_take_i_from_the_one_array_route(self, law):
        blocks = list(cli.build_sweep(law, 0.0, math.pi, 2 * cli.SWEEP_BLOCK + 7))
        for block in blocks:
            e = law.evaluate_many(block[:, 0])
            assert np.array_equal(block[:, 1], e)
            assert np.array_equal(block[:, 2], mutual_information_many(e))

    @pytest.mark.parametrize("steps", [2, _sweepcsv._ROWS - 1, _sweepcsv._ROWS + 1,
                                       cli.SWEEP_BLOCK - 1, cli.SWEEP_BLOCK + 1, 100001])
    @pytest.mark.parametrize("law", [
        CorrelationLaw("classical"), CorrelationLaw("quantum"),
        CorrelationLaw("superquantum"), CorrelationLaw("tabulated", [(1.0, 0.25)]),
        CorrelationLaw("tabulated", [(0.0, -1.0), (0.4, -0.9), (1.5, 0.1), (2.9, 0.95)]),
    ], ids=["classical", "quantum", "superquantum", "one-knot", "four-knot"])
    def test_csv_is_percent_formatting_of_the_rows(self, tmp_path, law, steps):
        out = tmp_path / "s.csv"
        cli.write_sweep_csv(cli.build_sweep(law, 0.0, math.pi, steps), str(out))
        expected = ["theta,e,i_nats,w_kT\n"]
        for block in cli.build_sweep(law, 0.0, math.pi, steps):
            for row in block.tolist():
                expected.append("%.10g,%.10g,%.10g,%.10g\n" % tuple(row))
        assert out.read_bytes() == "".join(expected).encode("ascii")

    def test_memory_is_flat_in_steps(self, tmp_path):
        def peak(steps):
            rows = cli.build_sweep(CorrelationLaw("quantum"), 0.0, math.pi, steps)
            tracemalloc.start()
            try:
                cli.write_sweep_csv(rows, str(tmp_path / "m.csv"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # numpy and the formatting kernel load outside the measured runs
        small, large = peak(10**4), peak(2 * 10**5)
        assert large < 4 * 2**20
        # a block's text (about 230 kB) varies by some kB with its digits;
        # keeping the rows or the text would add about 12 MB
        assert large <= small + 64 * 2**10, (small, large)

    def test_directory_target_is_io_error_without_leftovers(self, capsys, tmp_path):
        (tmp_path / "d").mkdir()
        code, _, err = run(capsys, "sweep", "--law", "quantum", "--steps", "5",
                           "--out", str(tmp_path / "d"))
        assert code == 3
        assert "cannot write sweep" in err
        assert os.listdir(tmp_path) == ["d"]

    def test_output_name_of_the_longest_length_is_written(self, capsys, tmp_path):
        # the temporary file's name does not grow with the output's
        longest = "s" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 4) + ".csv"
        written = []
        for name in ("s.csv", longest):
            code, _, err = run(capsys, "sweep", "--law", "quantum", "--steps", "5",
                               "--out", str(tmp_path / name))
            assert (code, err) == (0, "")
            written.append((tmp_path / name).read_bytes())
        assert written[0] == written[1]
        assert sorted(os.listdir(tmp_path)) == sorted(["s.csv", longest])

    def test_invalid_law_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--law", "bogus",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "valid names" in err

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        target = str(tmp_path / "missing-dir" / "x.csv")
        code, _, err = run(capsys, "sweep", "--law", "quantum", "--out", target)
        assert code == 3
        assert "missing-dir" in err

    def test_bad_range_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--law", "quantum", "--theta-min", "2.0",
                         "--theta-max", "1.0", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_table_law_via_cli(self, capsys, tmp_path):
        law_csv = tmp_path / "law.csv"
        law_csv.write_text(
            "theta_radians,e\n0.0,-1.0\n1.5707963267948966,0.0\n"
            f"{math.pi},1.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "t.csv"
        code, _, _ = run(capsys, "sweep", "--law", f"table:{law_csv}",
                         "--steps", "5", "--out", str(out))
        assert code == 0
        rows = read_rows(out)
        assert rows[0][1] == -1.0
        assert rows[2][1] == pytest.approx(0.0, abs=1e-9)

    def test_malformed_table_is_usage_error(self, capsys, tmp_path):
        law_csv = tmp_path / "law.csv"
        law_csv.write_text("theta_radians,e\n1.0,-1.0\n0.5,0.0\n", encoding="utf-8")
        code, _, err = run(capsys, "sweep", "--law", f"table:{law_csv}",
                           "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert "line 3" in err

    def test_table_with_byte_order_mark_reads_like_one_without(self, capsys, tmp_path):
        text = "theta_radians,e\r\n0.0,-1.0\r\n1.0,0.25\r\n3.0,0.75\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        reports = []
        for path in (plain, marked):
            code, out, err = run(capsys, "chsh", "--law", f"table:{path}")
            assert (code, err) == (0, "")
            reports.append(out)
        assert reports[0] == reports[1]

    def test_non_utf8_table_is_usage_error(self, capsys, tmp_path):
        law_csv = tmp_path / "law.csv"
        law_csv.write_bytes(b"theta_radians,e\n0.0,-1.0\n\xff\xfe,0.5\n")
        code, out, err = run(capsys, "chsh", "--law", f"table:{law_csv}")
        assert code == 2
        assert out == ""
        assert err == f"corrwork: error: {law_csv}: line 3: not valid UTF-8\n"

    @pytest.mark.parametrize("law, code, err", [
        ("table:", 2, "corrwork: error: table law needs a path: table:<path>\n"),
        ("bogus", 2, "corrwork: error: unknown law name 'bogus'; valid names: "
                     "classical, quantum, superquantum, table:<path>\n"),
        ("tabulated", 2, "corrwork: error: unknown law name 'tabulated'; valid names: "
                         "classical, quantum, superquantum, table:<path>\n"),
        ("table:missing.csv", 3, "corrwork: i/o error: [Errno 2] "
                                 "No such file or directory: 'missing.csv'\n"),
        ("table:range.csv", 2, "corrwork: error: range.csv: line 3: "
                               "table angle 9.0 outside canonical range [0, pi]\n"),
    ], ids=["empty-path", "bogus", "tabulated", "missing-file", "out-of-range-knot"])
    def test_law_errors_are_pinned(self, capsys, monkeypatch, tmp_path, law, code, err):
        (tmp_path / "range.csv").write_text("theta_radians,e\n0.0,-1.0\n9.0,0.0\n",
                                            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "chsh", "--law", law) == (code, "", err)

    def test_missing_table_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--law", f"table:{tmp_path}/nope.csv",
                         "--out", str(tmp_path / "t.csv"))
        assert code == 3


class TestChshCommands:
    def test_chsh_quantum_standard(self, capsys):
        report = run_json(capsys, "chsh", "--law", "quantum")
        assert report["s_chsh"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert report["lhv_deterministic_max"] == 2.0
        assert report["operator_norm"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert report["bounds"]["algebraic"] == 4.0

    def test_chsh_explicit_angles(self, capsys):
        report = run_json(capsys, "chsh", "--law", "classical",
                          "--angles", "0,0,0,0")
        assert report["s_chsh"] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("command", ["chsh", "energetic-chsh", "hierarchy"])
    def test_angles_whose_difference_overflows_are_usage_error(self, capsys, command):
        law = () if command == "hierarchy" else ("--law", "quantum")
        code, out, err = run(capsys, command, *law, "--angles=1e308,0,-1e308,0")
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_chsh_bad_angles(self, capsys):
        code, _, err = run(capsys, "chsh", "--law", "classical", "--angles", "0,1,2")
        assert code == 2
        assert "four" in err

    def test_optimize_chsh_superquantum(self, capsys):
        report = run_json(capsys, "optimize-chsh", "--law", "superquantum")
        assert report["s_chsh"] == 4.0

    def test_energetic_chsh_with_temperature(self, capsys):
        report = run_json(capsys, "energetic-chsh", "--law", "superquantum",
                          "--temperature", "300")
        assert report["s_w_kT"] == pytest.approx(2.0 * LN2, abs=1e-9)
        expected_j = 2.0 * LN2 * 1.380649e-23 * 300.0
        assert report["s_w_joules"] == pytest.approx(expected_j, rel=1e-9)

    def test_hierarchy_strict_at_standard(self, capsys):
        report = run_json(capsys, "hierarchy")
        assert report["ordering"] == "strict"
        assert report["classical_kT"] < report["quantum_kT"] < report["superquantum_kT"]

    def test_hierarchy_ties_at_equal_angles(self, capsys):
        report = run_json(capsys, "hierarchy", "--angles", "0.3,0.3,0.3,0.3")
        assert report["ordering"] == "non-strict"

    def test_infinite_temperature_is_usage_error(self, capsys):
        for value in ("inf", "nan"):
            code, out, err = run(capsys, "energetic-chsh", "--law", "quantum",
                                 "--temperature", value)
            assert code == 2
            assert out == ""
            assert "temperature" in err

    @pytest.mark.parametrize("command", [
        ("sweep", "--law", "quantum", "--out", "x.csv"),
        ("chsh", "--law", "quantum"),
        ("optimize-chsh", "--law", "quantum"),
        ("energetic-chsh", "--law", "quantum"),
        ("hierarchy",),
        ("robustness",),
    ], ids=lambda c: c[0])
    def test_seed_only_where_sampling_happens(self, capsys, command):
        code, out, err = run(capsys, *command, "--seed", "1")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert "unrecognized arguments: --seed 1" in err

    def test_robustness_report(self, capsys):
        report = run_json(capsys, "robustness")
        assert report["classical"]["exponent"] == pytest.approx(1.0, abs=0.005)
        assert report["classical"]["prefactor"] == pytest.approx(2.0 / math.pi, abs=1e-3)
        assert report["quantum"]["exponent"] == pytest.approx(2.0, abs=0.01)
        assert report["superquantum"] == "flat"

    def test_robustness_anchor_pi(self, capsys):
        report = run_json(capsys, "robustness", "--anchor", "pi")
        assert report["anchor_radians"] == pytest.approx(math.pi, abs=1e-9)
        assert report["classical"]["exponent"] == pytest.approx(1.0, abs=0.005)

    def test_robustness_reports_a_poor_fit(self, capsys, monkeypatch):
        fit_poorly(monkeypatch)
        report = run_json(capsys, "robustness")
        assert report["classical"]["r_squared"] == report["quantum"]["r_squared"] == 0.99
        assert report["quantum"]["exponent"] == pytest.approx(2.0, abs=0.01)
        assert report["superquantum"] == "flat"


#: the largest finite float, and the 10-digit value it is printed as
FLOAT_MAX = 1.7976931348623157e308
PRINTED_MAX = "1.797693134e+308"


class TestNearTheFloatMaximum:
    """A finite value whose 10 digits round past the float range is printed
    rounded toward zero, in strict JSON, not as an internal error."""

    def _report(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert PRINTED_MAX in out
        return json.loads(out, parse_constant=_reject_constant)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_chsh_angle(self, capsys, sign):
        report = self._report(capsys, "chsh", "--law", "quantum",
                              f"--angles={sign * FLOAT_MAX!r},0,0,0")
        assert report["settings"]["phi_a"] == sign * 1.797693134e308

    def test_hierarchy_angle(self, capsys):
        report = self._report(capsys, "hierarchy", f"--angles={FLOAT_MAX!r},0,0,0")
        assert report["settings"]["phi_a"] == 1.797693134e308

    def test_energetic_chsh_temperature(self, capsys):
        report = self._report(capsys, "energetic-chsh", "--law", "quantum",
                              f"--temperature={FLOAT_MAX!r}")
        assert report["temperature_K"] == 1.797693134e308
        assert math.isfinite(report["s_w_joules"])

    def test_szilard_temperature(self, capsys):
        report = self._report(capsys, "szilard", "--epsilon", "0.1", "--optimal",
                              "--trials", "10", "--temperature", "1.7976931348e308")
        assert report["temperature_K"] == 1.797693134e308

    @pytest.mark.parametrize("value, printed", [
        (FLOAT_MAX, 1.797693134e308), (-FLOAT_MAX, -1.797693134e308),
        (1.7976931344e308, 1.797693134e308), (1e308, 1e308),
        (math.inf, math.inf), (-math.inf, -math.inf),
    ])
    def test_only_finite_values_are_rounded_toward_zero(self, value, printed):
        # an infinity stays one, so the strict dump still refuses it
        assert cli._round_floats({"v": [value]}) == {"v": [printed]}


class TestSzilardCommand:
    def test_perfect_bit_optimal(self, capsys):
        report = run_json(capsys, "szilard", "--epsilon", "0", "--optimal",
                          "--trials", "1000", "--seed", "1")
        assert report["mean_work_kT"] == pytest.approx(LN2, abs=1e-9)
        assert report["std_error"] == 0.0
        assert report["boundary_optimum"] is True
        assert report["x"] == 1.0

    def test_full_expansion_of_a_perfect_bit(self, tmp_path):
        # --optimal runs this same x = 1; W(0, 1) = ln 2, since 0 ln 0 = 0
        code, out, err = run_module_child(["szilard", "--epsilon", "0", "--x", "1",
                                           "--trials", "1000"], tmp_path)
        assert (code, err) == (0, "")
        report = json.loads(out)
        ln2 = float("%.10g" % LN2)
        assert report["expected_work_kT"] == report["mean_work_kT"] == ln2
        assert (report["x"], report["std_error"]) == (1.0, 0.0)

    @pytest.mark.parametrize("eps", ["5e-324", "1e-17", "0.25"])
    def test_full_expansion_of_an_imperfect_bit_is_usage_error(self, capsys, eps):
        # W is -inf at x = 1 for every eps > 0, even where EngineConfig accepts x = 1
        code, out, err = run(capsys, "szilard", "--epsilon", eps, "--x", "1",
                             "--trials", "10")
        assert (code, out) == (2, "")
        assert "outside (0, 1)" in err

    def test_worthless_bit_optimal(self, capsys):
        report = run_json(capsys, "szilard", "--epsilon", "0.5", "--optimal",
                          "--trials", "10000", "--seed", "3")
        assert report["mean_work_kT"] == pytest.approx(0.0, abs=1e-12)
        assert report["x"] == 0.5

    def test_joule_conversion(self, capsys):
        report = run_json(capsys, "szilard", "--epsilon", "0", "--optimal",
                          "--trials", "10", "--seed", "1", "--temperature", "300")
        assert report["mean_work_joules"] == pytest.approx(2.871e-21, rel=1e-3)

    def test_explicit_partition(self, capsys):
        report = run_json(capsys, "szilard", "--epsilon", "0.25", "--x", "0.75",
                          "--trials", "100000", "--seed", "7")
        bound = LN2 - binary_entropy(0.25)
        assert report["bound_kT"] == pytest.approx(bound, abs=1e-9)
        assert abs(report["mean_work_kT"] - report["expected_work_kT"]) <= (
            4.0 * report["std_error"]
        )

    @pytest.mark.parametrize("eps", ["1e-17", "5e-324"])
    def test_epsilon_too_small_to_move_the_partition(self, capsys, eps):
        report = run_json(capsys, "szilard", "--epsilon", eps, "--optimal",
                          "--trials", "1000")
        assert report["boundary_optimum"] is True
        assert report["x"] == 1.0
        assert report["mean_work_kT"] <= report["bound_kT"] + 1e-12

    def test_bound_near_worthless_bit_is_not_negative(self, capsys):
        # ln 2 - h2(eps) cancels to -1.1e-16 here; the bound is I(1 - 2 eps)
        eps = 0.49999999498812764
        report = run_json(capsys, "szilard", "--epsilon", repr(eps), "--x", "0.5",
                          "--trials", "1000")
        assert report["bound_kT"] >= 0.0
        assert report["bound_kT"] == pytest.approx(bit_information_mp(eps), rel=1e-9)

    def test_bound_near_worthless_bit_covers_the_optimum(self, capsys):
        eps = 0.49999999999
        report = run_json(capsys, "szilard", "--epsilon", repr(eps), "--optimal",
                          "--trials", "1000")
        assert report["bound_kT"] >= report["expected_work_kT"] > 0.0
        assert report["bound_kT"] == pytest.approx(bit_information_mp(eps), rel=1e-9)

    def test_optimum_near_worthless_bit_is_its_bound(self, capsys):
        # W(eps, 1 - eps) cancels to 7.4e-32 here, above I(1 - 2 eps) = 5.5e-32
        report = run_json(capsys, "szilard", "--epsilon", "0.49999999999999983",
                          "--optimal", "--trials", "1000")
        assert report["expected_work_kT"] == report["bound_kT"] == 5.54667824e-32

    @pytest.mark.parametrize("eps,trials", [
        ("0", "-5"), ("1e-17", "0"), ("0.1", "-5"), ("0.1", "0"),
    ])
    def test_non_positive_trials_is_usage_error(self, capsys, eps, trials):
        # eps 0 and 1e-17 reach the boundary optimum x = 1, which EngineConfig
        # accepts, so its trials rule covers them as well
        code, out, err = run(capsys, "szilard", "--epsilon", eps, "--optimal",
                             "--trials", trials)
        assert code == 2
        assert out == ""
        assert "trials must be >= 1" in err

    def test_infinite_temperature_is_usage_error(self, capsys):
        code, out, err = run(capsys, "szilard", "--epsilon", "0.25", "--x", "0.75",
                             "--trials", "10", "--temperature", "inf")
        assert code == 2
        assert out == ""
        assert "temperature" in err

    def test_epsilon_above_half_is_usage_error(self, capsys):
        code, _, err = run(capsys, "szilard", "--epsilon", "0.6", "--optimal")
        assert code == 2
        assert "relabel the bit" in err

    def test_bad_partition_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "szilard", "--epsilon", "0.25", "--x", "1.5",
                         "--trials", "10")
        assert code == 2

    def test_non_positive_temperature_is_usage_error(self, capsys):
        code, _, err = run(capsys, "szilard", "--epsilon", "0.25", "--x", "0.75",
                           "--trials", "10", "--temperature", "-300")
        assert code == 2
        assert "temperature" in err

    @pytest.mark.parametrize("partition", [("--optimal",), ("--x", "0.75")],
                             ids=["optimal", "x"])
    def test_nan_epsilon_is_usage_error(self, capsys, partition):
        code, out, err = run(capsys, "szilard", "--epsilon", "nan", *partition,
                             "--trials", "10")
        assert (code, out) == (2, "")
        assert "error probability must be >= 0, got nan" in err

    @pytest.mark.parametrize("x", ["0", "1", "nan", "-inf"])
    def test_partition_outside_unit_interval_is_usage_error(self, capsys, x):
        code, out, err = run(capsys, "szilard", "--epsilon", "0.25", f"--x={x}",
                             "--trials", "10")
        assert (code, out) == (2, "")
        assert "outside (0, 1)" in err

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    @pytest.mark.parametrize("command", [
        ("szilard", "--epsilon", "0.25", "--x", "0.75", "--trials", "10"),
        ("verify",),
    ], ids=lambda c: c[0])
    def test_seed_outside_the_stream_state_space_is_usage_error(self, capsys,
                                                               command, seed):
        # -1 and 2**64 - 1 would otherwise draw the same stream
        code, out, err = run(capsys, *command, f"--seed={seed}")
        assert (code, out) == (2, "")
        assert f"seed must be in [0, 2**64), got {seed}" in err

    def test_largest_seed_is_accepted(self, capsys):
        report = run_json(capsys, "szilard", "--epsilon", "0.25", "--x", "0.75",
                          "--trials", "10", f"--seed={2**64 - 1}")
        assert report["seed"] == 2**64 - 1

    def test_seeded_reruns_identical(self, capsys):
        args = ("szilard", "--epsilon", "0.25", "--x", "0.75",
                "--trials", "10000", "--seed", "11")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_boundary_optimum_golden(self, capsys):
        # recorded when the boundary optimum bypassed the engine
        code, out, _ = run(capsys, "szilard", "--epsilon", "0", "--optimal",
                           "--trials", "1000", "--seed", "1", "--temperature", "300")
        assert code == 0
        assert out == (
            '{\n'
            '  "bound_joules": 2.870978885e-21,\n'
            '  "bound_kT": 0.6931471806,\n'
            '  "boundary_optimum": true,\n'
            '  "epsilon": 0.0,\n'
            '  "expected_work_kT": 0.6931471806,\n'
            '  "mean_work_joules": 2.870978885e-21,\n'
            '  "mean_work_kT": 0.6931471806,\n'
            '  "n": 1000,\n'
            '  "optimal": true,\n'
            '  "seed": 1,\n'
            '  "std_error": 0.0,\n'
            '  "temperature_K": 300.0,\n'
            '  "x": 1.0\n'
            '}\n'
        )

    @staticmethod
    def engine_rejects(eps, x, trials):
        """Whether the engine's own types reject this run of ``szilard``."""
        try:
            opt = optimal_partition(eps)
            if x is None:
                x = opt.x_opt
            else:
                expected_work(eps, x)
            EngineConfig(error_prob=eps, partition_fraction=x, trials=trials, seed=0)
        except ValueError:
            return True
        return False

    EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-17, 2**-54, 2**-53,
                             1e-3, 0.5, math.nextafter(0.5, 0.0),
                             math.nextafter(0.5, 1.0), 1.0, math.nextafter(1.0, 0.0),
                             math.inf, -math.inf, math.nan])

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(eps=st.one_of(EDGES, st.floats()),
           x=st.one_of(st.none(), EDGES, st.floats()),
           trials=st.integers(-2, 1000))
    def test_usage_error_exactly_when_the_engine_rejects(self, capsys, eps, x, trials):
        partition = ("--optimal",) if x is None else (f"--x={x!r}",)
        code, out, _ = run(capsys, "szilard", f"--epsilon={eps!r}", *partition,
                           f"--trials={trials}")
        if self.engine_rejects(eps, x, trials):
            assert (code, out) == (cli.EXIT_USAGE, "")
        else:
            assert code == cli.EXIT_OK
            report = json.loads(out)
            assert report["n"] == trials and report["std_error"] >= 0.0


def rebind(name, wrap):
    """A break that rebinds ``cli.<name>`` to ``wrap(original)``."""
    return lambda monkeypatch: monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))


#: each verify suite's check-name prefix -> a break that fails that suite
#: alone, and the names, after the prefix, of the checks it fails
SUITE_BREAKS = {
    "chsh": (rebind("chsh_value", lambda f: lambda law, settings: 0.0),
             ["classical", "quantum", "superquantum"]),
    "lhv": (rebind("lhv_deterministic_max", lambda f: lambda settings: 3.0),
            ["max_deviation_from_2"]),
    "tsirelson": (rebind("chsh_operator_norm", lambda f: lambda settings: 3.0),
                  ["max_norm", "standard_norm", "eigvalsh_gap"]),
    "information": (rebind("mutual_information_many", lambda f: lambda e: 1.001 * f(e)),
                    ["closed_vs_generic"]),
    "energetic_chsh": (rebind("hierarchy_report",
                              lambda f: lambda settings: itemgetter(1, 0, 2)(f(settings))),
                       ["classical", "quantum", "hierarchy"]),
    "szilard": (rebind("simulate",
                       lambda f: lambda config: CycleResult(0.0, 0.0, config.trials, 0)),
                ["mc_correct_in_region"]),
    "robustness": (fit_poorly, ["classical.r2_deficit", "quantum.r2_deficit"]),
}

#: verify's check-name prefixes in run order -> the report section each owns
VERIFY_SECTIONS = {
    "chsh": "chsh",
    "lhv": "lhv",
    "tsirelson": "tsirelson",
    "information": "mutual_information",
    "energetic_chsh": "energetic_chsh",
    "szilard": "szilard",
    "robustness": "robustness",
}

#: every check of ``verify``, in report order
VERIFY_CHECK_NAMES = [
    "chsh.classical",
    "chsh.quantum",
    "chsh.superquantum",
    "lhv.max_deviation_from_2",
    "lhv.classical.max_chsh",
    "tsirelson.max_norm",
    "tsirelson.standard_norm",
    "tsirelson.eigvalsh_gap",
    "information.closed_vs_generic",
    "information.classical.endpoint_0",
    "information.classical.endpoint_pi",
    "information.quantum.endpoint_0",
    "information.quantum.endpoint_pi",
    "information.superquantum.at_half_pi",
    "information.superquantum.off_half_pi",
    "energetic_chsh.classical",
    "energetic_chsh.quantum",
    "energetic_chsh.superquantum",
    "energetic_chsh.hierarchy",
    "szilard.saturation_gap",
    "szilard.max_bound_excess",
    "szilard.mc_correct_in_region",
    "robustness.classical.exponent",
    "robustness.classical.prefactor",
    "robustness.classical.r2_deficit",
    "robustness.quantum.exponent",
    "robustness.quantum.r2_deficit",
    "robustness.superquantum",
]


class TestVerifyCommand:
    def test_passes_and_reports_seven_suites(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["suites_total"] == 7
        assert report["suites_passed"] == 7
        assert report["chsh"]["quantum"] == pytest.approx(2.8284271247, abs=1e-9)
        assert report["energetic_chsh"]["hierarchy"] == "strict"
        assert all(c["passed"] for c in report["checks"])
        for c in report["checks"]:
            assert {"name", "measured", "expected", "tolerance", "passed"} <= set(c)

    def test_lhv_suite_checks_the_classical_law(self, capsys):
        report = run_json(capsys, "verify")
        assert report["lhv"]["max_classical_chsh"] <= 2.0 + 1e-12
        names = {c["name"] for c in report["checks"]}
        assert {"lhv.max_deviation_from_2", "lhv.classical.max_chsh"} <= names

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_lhv_scan_reaches_settings_the_quantum_law_violates(self, seed):
        # the ceiling of 2 would be vacuous if no scanned setting could beat it
        quantum = CorrelationLaw("quantum")
        values = [chsh_value(quantum, s)
                  for s in cli.random_settings(RandomStream(seed), 100)]
        assert max(values) > 2.0

    @pytest.mark.parametrize("prefix", SUITE_BREAKS)
    def test_suite_verdicts_follow_their_checks(self, capsys, monkeypatch, prefix):
        # each suite fails on its own: one break, one suite down, six passing
        brk, expected = SUITE_BREAKS[prefix]
        brk(monkeypatch)
        code, out, err = run(capsys, "verify")
        report = json.loads(out, parse_constant=_reject_constant)
        assert code == cli.EXIT_VERIFY_FAILED
        assert report["passed"] is False
        assert (report["suites_total"], report["suites_passed"]) == (7, 6)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == [f"{prefix}.{name}" for name in expected]
        assert err == "failed checks: " + ", ".join(failed) + "\n"

    def test_check_names_are_a_contract(self):
        names = [c["name"] for c in cli.run_verify(0)["checks"]]
        assert names == VERIFY_CHECK_NAMES

    def test_each_prefix_owns_one_report_section(self):
        report = cli.run_verify(0)
        assert [(key, prefix) for key, prefix, _ in cli.VERIFY_SUITES] == [
            (key, prefix) for prefix, key in VERIFY_SECTIONS.items()]
        assert set(report) == {"passed", "suites_total", "suites_passed", "seed",
                               "checks", *VERIFY_SECTIONS.values()}

    @staticmethod
    def mc_seed(seed):
        """The seed that run_verify hands to its Szilard Monte Carlo."""
        seen = []
        simulate = cli.simulate

        def recording(config):
            seen.append(config.seed)
            return simulate(config)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "simulate", recording)
            cli.run_verify(seed)
        (mc_seed,) = seen
        return mc_seed

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_monte_carlo_does_not_replay_another_seeds_angles(self, seed):
        # verify --seed s+11 draws its 100 lhv and 1000 Tsirelson settings,
        # four words each, from RandomStream(s + 11)
        angles = RandomStream(seed + 11)
        angle_words = {angles.next_uint64() for _ in range(4 * 1100)}
        mc = RandomStream(self.mc_seed(seed))
        assert angle_words.isdisjoint(mc.next_uint64() for _ in range(4 * 1100))

    def test_largest_seed_does_not_wrap_onto_seed_10(self):
        # 2**64 - 1 + 11 would wrap, mod 2**64, onto the angle stream of seed 10
        largest = self.mc_seed(2**64 - 1)
        mc, angles = RandomStream(largest), RandomStream(10)
        assert ([mc.next_uint64() for _ in range(4 * 1100)]
                != [angles.next_uint64() for _ in range(4 * 1100)])
        assert largest != self.mc_seed(10)

    @pytest.mark.parametrize("seed", range(21))
    def test_passes_for_small_seeds(self, seed):
        assert cli.run_verify(seed)["passed"]

    def test_monte_carlo_region_is_the_central_binomial_region(self):
        # a trial is correct when its word lies below ceil(0.75 * 2**53) * 2**11
        # = 3 * 2**62, so with probability exactly 3/4; the region leaves at
        # most alpha / 2 = 5e-10 in each tail, and would not with one more count
        assert math.ceil((1.0 - 0.25) * 2.0**53) << 11 == 3 * 2**62
        lo, hi = cli.MC_CORRECT_REGION
        n, p, half_alpha = 10**6, mpmath.mpf(3) / 4, mpmath.mpf("5e-10")
        assert (binomial_tail_mp(n, p, lo - 1, upper=False) <= half_alpha
                < binomial_tail_mp(n, p, lo, upper=False))
        assert (binomial_tail_mp(n, p, hi + 1, upper=True) <= half_alpha
                < binomial_tail_mp(n, p, hi, upper=True))

    @pytest.mark.parametrize("shift", [-0.005, 0.005])
    def test_monte_carlo_of_a_biased_engine_fails(self, monkeypatch, shift):
        # the region's edges put the mean count at a bias of 2.6e-3 in eps;
        # a bias of 5e-3 puts it more than 5 standard deviations beyond them
        simulate = cli.simulate

        def biased(config):
            return simulate(EngineConfig(config.error_prob + shift,
                                         config.partition_fraction, config.trials,
                                         config.seed))

        monkeypatch.setattr(cli, "simulate", biased)
        report = cli.run_verify(0)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["szilard.mc_correct_in_region"]

    def test_a_slightly_scaled_norm_fails_only_the_eigvalsh_check(self, monkeypatch):
        # 1e-10 relative moves the standard norm by 2.8e-10, inside the 1e-9
        # of both ceiling checks; only the cross-check against eigvalsh sees it
        norm = cli.chsh_operator_norm
        monkeypatch.setattr(cli, "chsh_operator_norm",
                            lambda settings: norm(settings) * (1.0 + 1e-10))
        report = cli.run_verify(0)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["tsirelson.eigvalsh_gap"]

    def test_robustness_section_is_the_robustness_report(self, capsys):
        robustness = run_json(capsys, "robustness", "--anchor", "0")
        del robustness["anchor_radians"]
        assert run_json(capsys, "verify")["robustness"] == robustness

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "verify", "--seed", "0")
        _, out2, _ = run(capsys, "verify", "--seed", "0")
        assert out1 == out2


def run_fresh(code):
    """Run code in a fresh interpreter that imports this corrwork; it must exit 0."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def run_module_child(argv, cwd, *, env=None, preexec_fn=None,
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """(exit code, stdout, stderr) of a fresh ``python -m corrwork.cli`` child.

    argparse wraps its usage lines at $COLUMNS, so the child runs at 80; an
    in-process run compared with it sets the same.  ``env`` adds variables,
    ``preexec_fn`` runs in the child before it starts, and ``stdout`` and
    ``stderr`` replace the pipes (a stream that is not piped reads as None)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "corrwork.cli", *argv], cwd=cwd,
                            env=dict(os.environ, PYTHONPATH=src, COLUMNS="80", **(env or {})),
                            text=True, preexec_fn=preexec_fn, stdout=stdout, stderr=stderr)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def closing(fd):
    """A preexec_fn that closes ``fd`` in the child, as the shell's ``>&-`` does."""
    return lambda: os.close(fd)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this system")


class TestStdStreams:
    """A closed or failing std stream: exit 3 when stdout cannot take the
    output, and an unchanged exit code when stderr cannot take a message.
    PYTHONUNBUFFERED is set both ways, so that a write fails either at once
    or at its flush.  No test points --out at a device node."""

    BUFFERING = pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])

    @BUFFERING
    def test_closed_stderr_keeps_the_usage_exit_code(self, tmp_path, unbuffered):
        code, out, err = run_module_child(["chsh", "--law", "bogus"], tmp_path,
                                          env={"PYTHONUNBUFFERED": unbuffered},
                                          stderr=subprocess.DEVNULL, preexec_fn=closing(2))
        assert (code, out, err) == (cli.EXIT_USAGE, "", None)

    @needs_dev_full
    @BUFFERING
    def test_full_stderr_keeps_the_usage_exit_code(self, tmp_path, unbuffered):
        with open("/dev/full", "w") as full:
            code, out, err = run_module_child(["chsh", "--law", "bogus"], tmp_path,
                                              env={"PYTHONUNBUFFERED": unbuffered},
                                              stderr=full)
        assert (code, out, err) == (cli.EXIT_USAGE, "", None)

    @needs_dev_full
    @BUFFERING
    @pytest.mark.parametrize("argv", [["chsh", "--law", "quantum"], ["verify"]],
                             ids=["chsh", "verify"])
    def test_full_stdout_is_an_io_error(self, tmp_path, unbuffered, argv):
        with open("/dev/full", "w") as full:
            child = run_module_child(argv, tmp_path, env={"PYTHONUNBUFFERED": unbuffered},
                                     stdout=full)
        message = f"corrwork: i/o error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert child == (cli.EXIT_IO, None, message)

    @needs_dev_full
    @BUFFERING
    def test_full_stdout_and_stderr_is_an_io_error(self, tmp_path, unbuffered):
        with open("/dev/full", "w") as full:
            code, _, _ = run_module_child(["chsh", "--law", "quantum"], tmp_path,
                                          env={"PYTHONUNBUFFERED": unbuffered},
                                          stdout=full, stderr=full)
        assert code == cli.EXIT_IO

    @BUFFERING
    def test_closed_stdout_is_an_io_error(self, tmp_path, unbuffered):
        child = run_module_child(["chsh", "--law", "quantum"], tmp_path,
                                 env={"PYTHONUNBUFFERED": unbuffered},
                                 stdout=subprocess.DEVNULL, preexec_fn=closing(1))
        message = f"corrwork: i/o error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"
        assert child == (cli.EXIT_IO, None, message)

    def test_sweep_to_a_closed_stdout_keeps_its_complete_file(self, capsys, tmp_path):
        argv = ["sweep", "--law", "quantum", "--steps", "1001", "--out", "s.csv"]
        code, _, err = run_module_child(argv, tmp_path, stdout=subprocess.DEVNULL,
                                        preexec_fn=closing(1))
        assert code == cli.EXIT_IO and err.startswith("corrwork: i/o error: ")
        assert os.listdir(tmp_path) == ["s.csv"]
        expected = tmp_path / "expected"
        expected.mkdir()
        argv[-1] = str(expected / "s.csv")
        assert run(capsys, *argv)[0] == cli.EXIT_OK
        assert (tmp_path / "s.csv").read_bytes() == (expected / "s.csv").read_bytes()

    def test_sweep_over_the_file_size_limit_leaves_nothing(self, tmp_path):
        resource = pytest.importorskip("resource")

        def limit():  # in the child only
            resource.setrlimit(resource.RLIMIT_FSIZE, (64 * 1024, 64 * 1024))

        argv = ["sweep", "--law", "quantum", "--steps", "100001", "--out", "big.csv"]
        child = run_module_child(argv, tmp_path, preexec_fn=limit)
        message = f"cannot write sweep to big.csv: {os.strerror(errno.EFBIG)}"
        assert child == (cli.EXIT_IO, "", f"corrwork: i/o error: {message}\n")
        assert os.listdir(tmp_path) == []

    def test_in_process_closed_stdout_is_an_io_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        assert cli.main(["chsh", "--law", "quantum"]) == cli.EXIT_IO
        assert capsys.readouterr().err == (
            f"corrwork: i/o error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n")

    def test_in_process_failed_stdout_is_closed(self, capsys, monkeypatch):
        # a write that fails at its flush leaves its bytes buffered; closed, the
        # stream is not flushed again at exit, which would exit 120
        class Full(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        stdout = io.TextIOWrapper(io.BufferedWriter(Full()))
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["chsh", "--law", "quantum"]) == cli.EXIT_IO
        assert stdout.closed
        assert capsys.readouterr().err.startswith("corrwork: i/o error: [Errno 28]")


class TestProcessBoundary:
    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        def broken(law, anchor):
            raise ArithmeticError("fit diverged")

        monkeypatch.setattr(cli, "fit_decay_exponent", broken)
        code, out, err = run(capsys, "robustness")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "corrwork: internal error: ArithmeticError: fit diverged\n"
        assert "Traceback" not in err

    def test_library_value_error_is_internal_not_usage(self, capsys, monkeypatch):
        def broken(law, anchor):
            raise ValueError("anchor must be 0 or pi, got 2.0")

        monkeypatch.setattr(cli, "fit_decay_exponent", broken)
        code, out, err = run(capsys, "robustness")
        assert code == cli.EXIT_INTERNAL
        assert out == ""
        assert err == ("corrwork: internal error: ValueError: "
                       "anchor must be 0 or pi, got 2.0\n")

    def test_scalar_subcommands_never_load_numpy(self, tmp_path):
        table = tmp_path / "law.csv"
        table.write_text("theta_radians,e\n0.0,-1.0\n1.0,0.25\n3.0,0.75\n",
                         encoding="utf-8")
        code = (
            "import sys\n"
            "import corrwork.cli as cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "for argv in (['hierarchy'], ['chsh', '--law', 'quantum'],\n"
            "             ['energetic-chsh', '--law', 'classical'], ['robustness'],\n"
            "             ['optimize-chsh', '--law', 'quantum'],\n"
            f"             ['optimize-chsh', '--law', {f'table:{table}'!r}]):\n"
            "    assert cli.main(argv) == 0\n"
            "    assert 'numpy' not in sys.modules, argv\n"
        )
        run_fresh(code)

    def test_cli_never_loads_dataclasses_or_inspect(self):
        # importing dataclasses loads inspect, ast, dis and tokenize: about
        # 10 ms of start-up in every CLI process
        code = (
            "import sys\n"
            "import corrwork.cli as cli\n"
            "heavy = ('dataclasses', 'inspect')\n"
            "assert not [m for m in heavy if m in sys.modules], 'import'\n"
            "for argv in (['--version'], ['chsh', '--law', 'quantum'],\n"
            "             ['optimize-chsh', '--law', 'quantum']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    loaded = [m for m in heavy if m in sys.modules]\n"
            "    assert not loaded, (argv, loaded)\n"
        )
        run_fresh(code)

    def test_sweep_kernel_loads_only_for_sweeps(self, tmp_path):
        code = (
            "import sys\n"
            "import corrwork.cli as cli\n"
            "kernel = 'corrwork._sweepcsv'\n"
            "assert kernel not in sys.modules, 'import'\n"
            "for argv in (['--version'], ['chsh', '--law', 'quantum'],\n"
            "             ['optimize-chsh', '--law', 'quantum'],\n"
            "             ['energetic-chsh', '--law', 'classical'], ['hierarchy'],\n"
            "             ['robustness'],\n"
            "             ['szilard', '--epsilon', '0.1', '--x', '0.5', '--trials', '10']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    assert kernel not in sys.modules, argv\n"
            f"out = {str(tmp_path / 's.csv')!r}\n"
            "assert cli.main(['sweep', '--law', 'quantum', '--steps', '3', '--out', out]) == 0\n"
            "assert kernel in sys.modules, 'sweep'\n"
        )
        run_fresh(code)

    def test_no_subcommand_loads_csv(self, tmp_path):
        # a table law is read line by line, without the csv module
        table = tmp_path / "law.csv"
        table.write_text("theta_radians,e\n0.0,-1.0\n3.0,0.75\n", encoding="utf-8")
        law = f"table:{table}"
        code = (
            "import sys\n"
            "import corrwork.cli as cli\n"
            "assert 'csv' not in sys.modules, 'import'\n"
            "for argv in (['--version'], ['chsh', '--law', 'quantum'],\n"
            f"             ['chsh', '--law', {law!r}], ['optimize-chsh', '--law', {law!r}],\n"
            f"             ['energetic-chsh', '--law', {law!r}], ['hierarchy'],\n"
            "             ['robustness'], ['verify'],\n"
            "             ['szilard', '--epsilon', '0.1', '--x', '0.5', '--trials', '10'],\n"
            f"             ['sweep', '--law', {law!r}, '--steps', '3',\n"
            f"              '--out', {str(tmp_path / 's.csv')!r}]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    assert 'csv' not in sys.modules, argv\n"
        )
        run_fresh(code)

    def test_main_leaves_the_collector_alone(self, capsys):
        state = gc.isenabled(), gc.get_freeze_count()
        run_json(capsys, "chsh", "--law", "quantum")
        assert run(capsys, "--version")[0] == cli.EXIT_OK
        assert (gc.isenabled(), gc.get_freeze_count()) == state

    @pytest.mark.parametrize("argv, expected", [
        (["chsh", "--law", "quantum"], cli.EXIT_OK),
        (["robustness"], cli.EXIT_INTERNAL),
        (["chsh"], cli.EXIT_USAGE),  # argparse: --law is required
    ])
    def test_run_freezes_the_heap_and_exits_with_mains_code(self, capsys, monkeypatch,
                                                             argv, expected):
        def broken(law, anchor):
            raise ArithmeticError("fit diverged")

        monkeypatch.setattr(cli, "fit_decay_exponent", broken)
        monkeypatch.setattr(sys, "argv", ["corrwork", *argv])
        frozen = gc.get_freeze_count()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            assert gc.get_freeze_count() > frozen
        finally:
            gc.unfreeze()
        assert exc.value.code == expected
        capsys.readouterr()

    def test_module_children_match_in_process_main(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")
        chsh = ["chsh", "--law", "quantum"]
        child = run_module_child(chsh, tmp_path)
        assert child == run(capsys, *chsh)
        assert child[0] == cli.EXIT_OK
        assert json.loads(child[1])["s_chsh"] == pytest.approx(2.0 * math.sqrt(2.0))

        sweep = ["sweep", "--law", "quantum", "--steps", "1001", "--out", "s.csv"]
        child = run_module_child(sweep, tmp_path)
        csv = (tmp_path / "s.csv").read_bytes()
        assert len(read_rows(tmp_path / "s.csv")) == 1001
        monkeypatch.chdir(tmp_path)
        assert child == run(capsys, *sweep)
        assert (tmp_path / "s.csv").read_bytes() == csv

        for argv, expected in ((["chsh", "--law", "bogus"], cli.EXIT_USAGE),
                               (["sweep", "--law", "quantum", "--steps", "3",
                                 "--out", str(tmp_path / "missing" / "s.csv")], cli.EXIT_IO)):
            child = run_module_child(argv, tmp_path)
            assert child == run(capsys, *argv)
            assert child[0] == expected and child[1] == "" and child[2]

        # argparse's own exits, which main returns as the child exits with them
        assert run_module_child(["--version"], tmp_path) == run(capsys, "--version") == (
            cli.EXIT_OK, f"corrwork {cli.__version__}\n", "")
        for argv in ([], ["chsh"], ["chsh", "--law", "quantum", "--seed", "1"],
                     ["sweep", "--law", "quantum", "--steps", "many", "--out", "s.csv"]):
            child = run_module_child(argv, tmp_path)
            assert child == run(capsys, *argv)
            assert child[0] == cli.EXIT_USAGE and child[1] == ""
            assert child[2].startswith("usage: corrwork") and "error: " in child[2]

    @pytest.mark.parametrize("target, code", [
        (os.path.join("missing", "s.csv"), errno.ENOENT),
        ("d", errno.EISDIR),
    ], ids=["missing-dir", "directory"])
    def test_failed_sweep_write_names_the_output(self, tmp_path, target, code):
        (tmp_path / "d").mkdir()
        argv = ["sweep", "--law", "quantum", "--steps", "3", "--out", target]
        first, second = run_module_child(argv, tmp_path), run_module_child(argv, tmp_path)
        message = f"cannot write sweep to {target}: {os.strerror(code)}"
        assert first == second == (cli.EXIT_IO, "", f"corrwork: i/o error: {message}\n")
        assert ".tmp" not in first[2]
        assert os.listdir(tmp_path) == ["d"]

    def test_failed_sweep_write_keeps_the_errno(self, tmp_path):
        rows = cli.build_sweep(CorrelationLaw("quantum"), 0.0, 1.0, 3)
        with pytest.raises(OSError) as exc:
            cli.write_sweep_csv(rows, str(tmp_path / "missing" / "s.csv"))
        assert exc.value.errno == errno.ENOENT

    def test_package_version_is_the_cli_version(self, capsys):
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with warnings.catch_warnings():
            # setuptools marks [tool.setuptools] tables as beta
            warnings.filterwarnings("ignore", message=r".*\[tool\.setuptools\].*beta")
            config = pyprojecttoml.read_configuration(pyproject, expand=True)
        assert "version" in config["project"].get("dynamic", ())  # read from _version
        code, out, _ = run(capsys, "--version")
        assert (code, out) == (cli.EXIT_OK, f"corrwork {config['project']['version']}\n")

    def test_console_script_enters_at_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as handle:
            script = tomllib.load(handle)["project"]["scripts"]["corrwork"]
        module, _, name = script.partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run


class TestBlasThreads:
    """main caps OpenBLAS at one thread before numpy loads; a set value wins."""

    CHILD = (
        "import json, os, sys\n"
        "from corrwork import cli\n"
        "assert cli.main(['szilard', '--epsilon', '0.1', '--x', '0.5',\n"
        "                 '--trials', '1000']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "tasks = os.listdir('/proc/self/task') if sys.platform == 'linux' else []\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), len(tasks)]))\n"
    )

    def _child(self, **env):
        """(OPENBLAS_NUM_THREADS, thread count) seen by a fresh child after main."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        child_env.update(PYTHONPATH=src, **env)
        result = subprocess.run([sys.executable, "-c", self.CHILD], env=child_env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return tuple(json.loads(result.stdout.splitlines()[-1]))

    def test_cli_child_sets_the_cap(self):
        assert self._child()[0] == "1"

    @pytest.mark.skipif(sys.platform != "linux", reason="counts /proc/self/task")
    def test_cli_child_runs_one_thread(self):
        assert self._child() == ("1", 1)

    def test_user_setting_wins(self):
        assert self._child(OPENBLAS_NUM_THREADS="2")[0] == "2"

    def test_in_process_call_after_numpy_leaves_environment_alone(self, capsys,
                                                                  monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert "numpy" in sys.modules
        run_json(capsys, "szilard", "--epsilon", "0.1", "--x", "0.5",
                 "--trials", "1000")
        assert dict(os.environ) == before


@pytest.mark.skipif(sys.platform != "linux", reason="minor fault counts of glibc's allocator")
class TestSweepPageFaults:
    """A sweep formats every block in the same buffers, so its blocks do not
    fault their memory in again: a 400001-row sweep child takes a few
    thousand minor faults beyond a child that only imports numpy and the
    CLI, where buffers allocated per block took about 45k."""

    BOUND = 15_000

    @staticmethod
    def _minor_faults(argv, cwd):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, argv
        return usage.ru_minflt

    @pytest.mark.parametrize("law", ["classical", "quantum", "superquantum", "table"])
    def test_sweep_child_does_not_refault_its_blocks(self, tmp_path, law):
        if law == "table":
            theta = np.linspace(0.0, math.pi, 1000)
            e = -np.cos(theta) * (1.0 - 0.1 * np.sin(3.0 * theta))
            knots = "".join(f"{t!r},{v!r}\n" for t, v in zip(theta.tolist(), e.tolist()))
            (tmp_path / "law.csv").write_text("theta_radians,e\n" + knots, encoding="utf-8")
            law = f"table:{tmp_path / 'law.csv'}"
        baseline = self._minor_faults(["-c", "import numpy, corrwork.cli"], tmp_path)
        sweep = self._minor_faults(["-m", "corrwork.cli", "sweep", "--law", law,
                                    "--steps", "400001", "--out", "s.csv"], tmp_path)
        assert sweep - baseline < self.BOUND, (sweep, baseline)


# ---------------------------------------------------------------------------
# property: every generated argv ends in a documented exit code, strict JSON
# (or the sweep summary) on stdout, and no partial file
# ---------------------------------------------------------------------------

def _mostly(good, bad):
    """Draw from ``good`` three times in four and from ``bad`` otherwise, so
    that most generated command lines carry at most one fault."""
    return st.sampled_from([good, good, good, bad]).flatmap(lambda strategy: strategy)


SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -1.0, 1e308,
                          FLOAT_MAX])
NUMBERS = st.one_of(st.floats(min_value=-10.0, max_value=10.0), SPECIAL, st.floats())
LAWS = _mostly(
    st.sampled_from(["classical", "quantum", "superquantum", "table:{dir}/law.csv"]),
    st.sampled_from(["bogus", "table:", "table:{dir}/missing.csv", "table:{dir}/bad.csv"]),
)
THETAS = _mostly(st.floats(min_value=0.0, max_value=math.pi), NUMBERS)
ANGLES = _mostly(
    st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=4, max_size=4),
    st.lists(NUMBERS, min_size=3, max_size=5),
).map(lambda xs: ",".join(repr(x) for x in xs))
TEMPERATURES = st.one_of(st.floats(min_value=1e-3, max_value=1e4), SPECIAL)
SUMMARY = re.compile(r"wrote \d+ rows to .+\n")


def _option(name, strategy):
    """``--name=value`` (so values starting with "-" stay values), or nothing."""
    return st.one_of(st.just(()), strategy.map(lambda v: (f"--{name}={v}",)))


def _required(name, strategy):
    return strategy.map(lambda v: (f"--{name}={v}",))


LAW = _required("law", LAWS)
ANGLE_OPT = _option("angles", ANGLES)
TEMPERATURE_OPT = _option("temperature", TEMPERATURES)
SEED_OPT = _option("seed", st.integers(-5, 2**65))
PARTITION = _mostly(
    st.one_of(st.just(("--optimal",)),
              _required("x", st.floats(min_value=0.01, max_value=0.99))),
    _required("x", NUMBERS),
)

#: option groups of every subcommand except verify, with small --steps/--trials
COMMANDS = {
    "sweep": st.tuples(
        LAW, _option("theta-min", THETAS), _option("theta-max", THETAS),
        _option("steps", _mostly(st.integers(2, 60), st.integers(-2, 1))),
        _required("out", _mostly(
            st.just("{dir}/out.csv"),
            st.sampled_from(["{dir}/missing/out.csv", "{dir}/adir"])))),
    "chsh": st.tuples(LAW, ANGLE_OPT),
    "optimize-chsh": st.tuples(LAW),
    "energetic-chsh": st.tuples(LAW, ANGLE_OPT, TEMPERATURE_OPT),
    "hierarchy": st.tuples(ANGLE_OPT),
    "robustness": st.tuples(_option("anchor", _mostly(st.sampled_from(["0", "pi"]),
                                                      st.just("1")))),
    "szilard": st.tuples(
        _required("epsilon", _mostly(st.floats(min_value=0.0, max_value=0.5), NUMBERS)),
        PARTITION,
        _required("trials", _mostly(st.integers(1, 2000), st.integers(-2, 0))),
        TEMPERATURE_OPT, SEED_OPT),
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class _Drawn:
    """Stands in for st.data() in an explicit example: drawing the option
    groups of ``command`` returns ``groups``; a test of any other command
    rejects the example."""

    def __init__(self, command, *groups):
        self.command, self.groups = command, groups

    def draw(self, strategy, label=None):
        assume(strategy is COMMANDS[self.command])
        return self.groups


def _run_in_fresh_dir(argv):
    """Exit code and new entries of one run in a fresh directory ``{dir}``."""
    with tempfile.TemporaryDirectory() as work:
        with open(os.path.join(work, "law.csv"), "w", encoding="utf-8") as handle:
            handle.write("theta_radians,e\n0.0,-1.0\n1.5,0.1\n3.0,0.9\n")
        with open(os.path.join(work, "bad.csv"), "w", encoding="utf-8") as handle:
            handle.write("theta_radians,e\n1.0,0.0\n0.5,0.0\n")
        os.mkdir(os.path.join(work, "adir"))
        before = set(os.listdir(work))
        argv = [a.replace("{dir}", work) for a in argv]
        code = cli.main(argv)
        return code, sorted(set(os.listdir(work)) - before)


class TestCliProperties:
    def _check(self, capsys, argv):
        code, created = _run_in_fresh_dir(argv)
        out = capsys.readouterr().out
        event(f"{argv[0]} exit {code}")
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_IO), (argv, code)
        if argv[0] == "sweep":
            if code == cli.EXIT_OK:
                assert SUMMARY.fullmatch(out), out
                assert created == ["out.csv"]
            else:
                assert out == ""
                assert created == [], created
        elif out:
            assert code == cli.EXIT_OK
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert code != cli.EXIT_OK

    # the float maximum in a field that the report prints
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(data=_Drawn("chsh", ("--law=quantum",), (f"--angles={FLOAT_MAX!r},0,0,0",)))
    @example(data=_Drawn("hierarchy", (f"--angles={FLOAT_MAX!r},0,0,0",)))
    @example(data=_Drawn("energetic-chsh", ("--law=quantum",), (),
                         (f"--temperature={FLOAT_MAX!r}",)))
    @example(data=_Drawn("szilard", ("--epsilon=0.1",), ("--optimal",), ("--trials=10",),
                         (f"--temperature={FLOAT_MAX!r}",), ()))
    @given(data=st.data())
    def test_exit_codes_strict_json_and_no_partial_files(self, capsys, command, data):
        groups = data.draw(COMMANDS[command])
        self._check(capsys, (command, *(arg for group in groups for arg in group)))

    @settings(max_examples=3, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=SEED_OPT)
    def test_verify_exit_code_and_strict_json(self, capsys, seed):
        self._check(capsys, ("verify", *seed))
