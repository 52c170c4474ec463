"""perfbench's tracer still finds every function it wraps in corrwork.

The benchmark harness wraps named functions of ``src/`` at run time; a
rename or deletion there would otherwise surface only as a failed traced
benchmark run.  The harness is loaded by path and not edited.
"""

import importlib.util
import sys
from pathlib import Path

import corrwork
from corrwork import cli, nonlocality

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_target_and_uninstalls(monkeypatch):
    tr = load_tracer(monkeypatch)
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
    tr = load_tracer(monkeypatch)
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
