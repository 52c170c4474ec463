"""perfbench's tracer still finds every function it wraps in corrwork, and
every benchmark op still passes the benchmark's own output checks.

The benchmark harness wraps named functions of ``src/`` at run time and
checks every output against numpy references; a rename, a deletion or a
wrong output would otherwise surface only as a failed benchmark run.  The
harness is loaded by path and not edited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import corrwork
from corrwork import cli, nonlocality

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py, registered as ``name``, the name its siblings import."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_target_and_uninstalls(monkeypatch):
    tr = load_perfbench(monkeypatch, "tracer")
    original = nonlocality.maximize_chsh
    tracer = tr.Tracer()
    tracer.install(tr.TARGETS, "corrwork")
    try:
        assert nonlocality.maximize_chsh is not original
        assert corrwork.maximize_chsh is nonlocality.maximize_chsh
        assert cli.maximize_chsh is nonlocality.maximize_chsh
    finally:
        tracer.uninstall()
    assert nonlocality.maximize_chsh is original
    assert corrwork.maximize_chsh is cli.maximize_chsh is original


def test_sweep_hooks_count_rows_and_bytes(monkeypatch, tmp_path, capsys):
    # the hooks bind build_sweep's ``steps`` and write_sweep_csv's ``out_path``
    # by name; a renamed argument would fail here rather than in a traced run
    tr = load_perfbench(monkeypatch, "tracer")
    out = tmp_path / "s.csv"
    tracer = tr.Tracer()
    tracer.install(tr.TARGETS, "corrwork")
    try:
        code = cli.main(["sweep", "--law", "quantum", "--steps", "5001",
                         "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0, capsys.readouterr().err
    assert tracer.counts["cli.build_sweep.rows"] == 5001
    assert tracer.counts["cli.write_sweep_csv.bytes"] == out.stat().st_size
    assert tracer.calls["cli.main"] == 1 and tracer.counts["cli.main.errors"] == 0


@pytest.mark.parametrize("workload",
                         ["verify-suite", "sweep-bulk", "reports-short", "szilard-mc"])
def test_benchmark_ops_pass_the_benchmark_checks(monkeypatch, tmp_path, capsys, workload):
    # one traced pass of the benchmark's correctness gate: output checks,
    # span counts the code fixes, and the 72 x 72 maximize_chsh grid
    workloads = load_perfbench(monkeypatch, "workloads")
    checks = load_perfbench(monkeypatch, "checks")
    run = load_perfbench(monkeypatch, "run")
    tr = load_perfbench(monkeypatch, "tracer")
    tracer = tr.Tracer()
    problems = []
    for op in workloads.generate(workload, 0, tmp_path):
        tracer.reset()
        tracer.install(tr.TARGETS, "corrwork")
        try:
            code = cli.main(list(op.argv))
        finally:
            tracer.uninstall()
        found = checks.check(op, code, capsys.readouterr().out)
        found += run.self_check(op, tracer.calls, tracer.counts)
        found += [f"maximize_chsh made {n} grid evaluations"
                  for n in tracer.samples["maximize.grid_evals"] if n != 72 * 72]
        problems += [f"{op.label}: {problem}" for problem in found]
    assert not problems
