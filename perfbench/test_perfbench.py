"""Tests of the benchmark's own arithmetic, checks and tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer as tr
import workloads
from workloads import Op

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# percentile and self-time arithmetic
# ---------------------------------------------------------------------------

def test_percentile_interpolates_like_numpy():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for q in (0, 10, 25, 50, 90, 100):
        assert run.percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert run.percentile(values, 50) == statistics.median(values)
    assert run.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


class FakeClock:
    """A clock that advances by a scripted step on every reading."""

    def __init__(self):
        self.now = 0
        self.step = 0

    def __call__(self):
        self.now += self.step
        return self.now


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    t = tr.Tracer(clock)

    def leaf():
        clock.step = 3

    def inner():
        clock.step = 2
        wrapped_leaf()
        wrapped_leaf()
        clock.step = 5

    def outer():
        clock.step = 1
        wrapped_inner()
        clock.step = 7

    wrapped_leaf = t.wrap("leaf", leaf)
    wrapped_inner = t.wrap("inner", inner)
    wrapped_outer = t.wrap("outer", outer)
    wrapped_outer()

    # each reading adds the step in force, so the clock reads 0, 1, 3, 6, 9,
    # 12, 17, 24: leaf spans 3-6 and 9-12, inner 1-17, outer 0-24
    assert t.calls == {"leaf": 2, "inner": 1, "outer": 1}
    assert t.self_ns == {"leaf": 3 + 3, "inner": 16 - 6, "outer": 24 - 16}


def test_hook_sees_direct_children_of_its_span():
    seen = {}
    t = tr.Tracer()

    def hook(tracer, fn, args, kwargs, result, frame, dur):
        seen["child"] = frame.child("child")
        seen["grandchild"] = frame.child("grandchild")

    grandchild = t.wrap("grandchild", lambda: None)
    child = t.wrap("child", lambda: grandchild())
    parent = t.wrap("parent", lambda: [child() for _ in range(3)], hook)
    parent()
    assert seen["child"][0] == 3
    assert seen["grandchild"] == (0, 0)


# ---------------------------------------------------------------------------
# tracer installation
# ---------------------------------------------------------------------------

@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(n):
        return n + 1

    class Thing:
        def method(self):
            return 1

    core.work, core.Thing = work, Thing
    user.work = work          # a ``from .core import work`` binding site
    pkg.work = work
    for m in (pkg, core, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return pkg, core, user


def test_install_wraps_every_binding_site_and_uninstall_restores(fake_package):
    pkg, core, user = fake_package
    original = core.work
    t = tr.Tracer()
    t.install([tr.Target("core.work", "fakepkg.core", "work"),
               tr.Target("core.method", "fakepkg.core", "Thing.method")], "fakepkg")
    assert user.work(1) == 2 and pkg.work(2) == 3 and core.work(3) == 4
    assert core.Thing().method() == 1
    assert t.calls == {"core.work": 3, "core.method": 1}
    t.uninstall()
    assert core.work is user.work is pkg.work is original


def test_install_fails_loudly_on_a_binding_it_cannot_wrap(fake_package):
    pkg, core, user = fake_package
    user.alias = core.Thing.method
    t = tr.Tracer()
    with pytest.raises(RuntimeError, match="still binds"):
        t.install([tr.Target("core.method", "fakepkg.core", "Thing.method")], "fakepkg")
    t.uninstall()
    with pytest.raises(RuntimeError, match="cannot trace"):
        t.install([tr.Target("core.gone", "fakepkg.core", "gone")], "fakepkg")


def test_self_check_flags_counts_the_code_does_not_fix():
    op = Op("verify", ("verify", "--seed", "1"), 1, params={"seed": 1})
    good = {"jacobi.spectral_norm": 1001, "nonlocality.lhv": 100, "cli.main": 1}
    assert run.self_check(op, good, {"szilard.simulate.trials": 1_000_000}) == []
    bad = run.self_check(op, {**good, "jacobi.spectral_norm": 1000},
                         {"szilard.simulate.trials": 1_000_000})
    assert len(bad) == 1 and "jacobi.spectral_norm" in bad[0]


# ---------------------------------------------------------------------------
# output checks feed ok_ratio
# ---------------------------------------------------------------------------

def _record(index, problems):
    return run.OpRecord(index, 1.0, 1.0, 10.0, "digest", problems)


def _ok_ratio(ops, problems_per_op):
    passes = [[_record(i, p) for i, p in enumerate(problems_per_op)]]
    return run.end_to_end(ops, passes, [0.3])["ok_ratio"]


def _reference_sweep(tmp_path, law, steps=2001):
    out = tmp_path / "sweep.csv"
    lo, hi = 0.1, math.pi - 0.2
    theta = lo + (hi - lo) * (np.arange(steps) / (steps - 1))
    e = checks.correlation(law, theta)
    i = checks.information(e)
    lines = ["theta,e,i_nats,w_kT"]
    lines += [f"{a:.10g},{b:.10g},{c:.10g},{c:.10g}" for a, b, c in zip(theta, e, i)]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    op = Op("sweep", (), steps, law,
            {"theta_min": lo, "theta_max": hi, "steps": steps, "out": out})
    return op, f"wrote {steps} rows to {out}\n"


@pytest.mark.parametrize("law", ["quantum", "table"])
def test_corrupted_csv_row_fails_the_sweep_check(tmp_path, law):
    if law == "table":
        import random
        law = workloads.make_table(random.Random(4), tmp_path / "law.csv")
    op, stdout = _reference_sweep(tmp_path, law)
    assert checks.check(op, 0, stdout) == []

    path = op.params["out"]
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    theta, e, i, w = lines[1234].rstrip("\n").split(",")
    lines[1234] = f"{theta},{float(e) + 1e-6:.10g},{i},{w}\n"
    path.write_text("".join(lines), encoding="utf-8")
    problems = checks.check(op, 0, stdout)
    assert problems == ["e column"]
    assert _ok_ratio([op], [problems]) == 0.0


def test_truncated_csv_fails_the_sweep_check(tmp_path):
    op, stdout = _reference_sweep(tmp_path, "quantum")
    path = op.params["out"]
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert any("shape" in p for p in checks.check(op, 0, stdout))


def _optimize_report(law, s_chsh):
    settings = {"phi_a": 0.0, "phi_a_prime": math.pi / 2, "phi_b": math.pi / 4,
                "phi_b_prime": -math.pi / 4}
    return json.dumps({"law": law, "settings": settings, "s_chsh": s_chsh})


def test_wrong_s_chsh_lowers_ok_ratio():
    ops = [Op("optimize-chsh", (), 1, "quantum"), Op("optimize-chsh", (), 1, "classical")]
    right = checks.check(ops[0], 0, _optimize_report("quantum", 2.828427125))
    wrong = checks.check(ops[0], 0, _optimize_report("quantum", 2.8))
    assert right == []
    assert wrong and "s_chsh" in wrong[0]
    assert _ok_ratio(ops, [right, []]) == 1.0
    assert _ok_ratio(ops, [wrong, []]) == 0.5


def test_nonzero_exit_and_bad_json_fail():
    op = Op("verify", (), 1, params={"seed": 3})
    assert checks.check(op, 1, "{}") == ["exit code 1"]
    assert checks.check(op, 0, "not json")[0].startswith("unreadable output")


def test_changed_output_across_passes_fails():
    passes = [[_record(0, [])], [_record(0, [])]]
    passes[1][0].digest = "other"
    run.mark_nondeterminism(passes)
    assert passes[0][0].problems == []
    assert passes[1][0].problems == ["output differs from the first pass"]


def test_information_reference_is_stable_near_zero():
    e = np.array([1e-8, -1e-8, 0.0, 1.0, -1.0, 0.5])
    expected = [5e-17, 5e-17, 0.0, math.log(2.0), math.log(2.0),
                math.log(2.0) - checks.binary_entropy(0.75)]
    assert np.allclose(checks.information(e), expected, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# generator and BENCHMARK.json
# ---------------------------------------------------------------------------

def test_generator_is_seeded(tmp_path):
    for name in workloads.WORKLOADS:
        a = [op.argv for op in workloads.generate(name, 7, tmp_path)]
        b = [op.argv for op in workloads.generate(name, 7, tmp_path)]
        c = [op.argv for op in workloads.generate(name, 8, tmp_path)]
        assert a == b
        assert a != c


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = [*tr.SPAN_METRICS, *tr.COUNTER_METRICS, *run.RUN_LAYER_METRICS]
    assert sorted(layer) == sorted(reported)
    assert all(layer[name] == run.layer_unit(name) for name in layer)


def test_missing_sweep_file_fails_the_check(tmp_path):
    op, stdout = _reference_sweep(tmp_path, "quantum")
    op.params["out"].unlink()
    assert checks.check(op, 0, stdout)[0].startswith("unreadable output")
    assert run.output_digest(op, stdout.encode()) == run.output_digest(
        Op("chsh", (), 1), stdout.encode())


def test_energetic_check_allows_each_printed_value_its_own_rounding():
    # here s_w_kT rounded to 10 digits, times k_B*T, misses the printed
    # s_w_joules by more than one rounding, because each is rounded separately
    angles, temperature = (-0.57, 1.703, -1.18, -0.14), 583.799
    op = Op("energetic-chsh", (), 1, "quantum",
            {"angles": angles, "temperature": temperature})
    s_w = checks.energetic_chsh("quantum", angles)
    joules = s_w * checks.BOLTZMANN * temperature
    assert float(f"{joules:.10g}") != pytest.approx(
        float(f"{s_w:.10g}") * checks.BOLTZMANN * temperature, rel=5e-10, abs=0.0)
    report = {"law": "quantum", "s_w_kT": float(f"{s_w:.10g}"),
              "temperature_K": temperature, "s_w_joules": float(f"{joules:.10g}")}
    assert checks.check(op, 0, json.dumps(report)) == []
    report["s_w_joules"] *= 1.000001
    assert checks.check(op, 0, json.dumps(report)) == ["s_w_joules"]
