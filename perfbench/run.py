"""corrwork benchmark: CLI workloads as fresh processes, plus a traced replay.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload as a closed loop with one client: each
``python -m corrwork.cli`` child starts only after the previous one exits.
Whole passes over the seeded op list repeat until the next pass would end
after ``--seconds`` (at least two passes, so that stdout can be compared
across passes).  Every output is checked.  The last stdout line is a JSON
object with the end-to-end metrics, whose times are child CPU times.

``--trace 1`` replays the same argv in this process through ``cli.main``,
alternating untraced and traced passes, with every public layer function
wrapped by ``tracer.py``.  It reports the per-layer metrics of one pass
and checks span counts that the code fixes exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: fresh ``--version`` processes timed for setup_s, spread over the run so
#: that the median does not rest on one moment of a machine whose speed drifts
SETUP_PROBES = 8
#: fresh ``import corrwork.cli`` processes timed for import.corrwork_cli_s
IMPORT_PROBES = 5
#: environment variables that would change threading in the children
THREAD_VARS = ("CORRWORK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: per-layer metrics measured by the run itself rather than by a span
RUN_LAYER_METRICS = ("cli.stdout.bytes", "import.corrwork_cli_s", "trace.overhead_ratio")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def child_env() -> dict:
    """The inherited environment, with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# untraced end-to-end run
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    """One finished op: wall, CPU, peak RSS, output hash and check problems."""

    index: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    digest: str
    problems: list[str] = field(default_factory=list)


def run_child(argv, env: dict, out_path: Path) -> tuple[float, float, float, int, bytes]:
    """Run one child to completion: wall s, CPU s, peak RSS MB, exit code, stdout."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, out_path.read_bytes())


def time_version(env: dict, work: Path) -> tuple[float, float]:
    """Wall and CPU time of one fresh ``corrwork --version`` process."""
    wall, cpu, _, code, out = run_child(["-m", "corrwork.cli", "--version"], env,
                                        work / "version.out")
    if code != 0 or not out.startswith(b"corrwork "):
        raise RuntimeError(f"corrwork --version failed with exit code {code}")
    return wall, cpu


def output_digest(op, stdout: bytes) -> str:
    """Hash of stdout, plus the output file of a sweep."""
    h = hashlib.sha256(stdout)
    if op.kind == "sweep":
        with contextlib.suppress(OSError):  # a missing file already failed its check
            h.update(Path(op.params["out"]).read_bytes())
    return h.hexdigest()


def run_passes(ops, seconds: float, execute) -> list[list]:
    """Whole passes over ``ops`` while the next pass is expected to fit.

    ``execute(index, op)`` runs one op and returns its record.  At least two
    passes run, so that every output can be compared across passes.
    """
    passes = []
    start = time.perf_counter()
    last = 0.0
    while len(passes) < 2 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        passes.append([execute(i, op) for i, op in enumerate(ops)])
        last = time.perf_counter() - t0
    return passes


def mark_nondeterminism(passes) -> None:
    """An op whose output differs from its first pass fails its check."""
    first = {r.index: r.digest for r in passes[0]}
    for records in passes[1:]:
        for r in records:
            if r.digest != first[r.index]:
                r.problems.append("output differs from the first pass")


def end_to_end(ops, passes, setup_cpu) -> dict[str, float]:
    """The end-to-end metrics; every time is child CPU time (user + sys).

    Wall time is not used: on a VM whose host steals a varying share of its
    CPUs, wall time of identical work drifts far more between runs.
    """
    records = [r for p in passes for r in p]
    ok = sum(not r.problems for r in records)
    return {
        "setup_s": statistics.median(setup_cpu),
        "op_p50_s": statistics.median(r.cpu_s for r in records),
        "items_per_s": statistics.median(
            sum(ops[r.index].items for r in p) / sum(r.cpu_s for r in p) for p in passes),
        "cpu_s": statistics.median(sum(r.cpu_s for r in p) for p in passes),
        "peak_rss_mb": max(r.rss_mb for r in records),
        "ok_ratio": ok / len(records),
    }


def run_untraced(ops, seconds: float, work: Path) -> tuple[dict, list, list]:
    from checks import check

    env = child_env()
    time_version(env, work)  # warm-up: writes bytecode and fills the page cache
    setup, last_probe = [], -math.inf

    def execute(index, op):
        nonlocal last_probe
        if time.perf_counter() - last_probe >= seconds / SETUP_PROBES:
            setup.append(time_version(env, work))
            last_probe = time.perf_counter()
        wall, cpu, rss, code, out = run_child(["-m", "corrwork.cli", *op.argv], env,
                                              work / "stdout")
        problems = check(op, code, out.decode("utf-8", "replace"))
        return OpRecord(index, wall, cpu, rss, output_digest(op, out), problems)

    passes = run_passes(ops, seconds, execute)
    mark_nondeterminism(passes)
    for i, op in enumerate(ops):
        mine = [p[i] for p in passes]
        wall = statistics.median(r.wall_s for r in mine)
        print(f"op {i} {op.label}: p50 {wall:.4f} s wall, "
              f"{statistics.median(r.cpu_s for r in mine):.4f} s cpu, "
              f"{max(r.rss_mb for r in mine):.1f} MB")
    for clock, k in (("wall", 0), ("cpu", 1)):
        times = [s[k] for s in setup]
        print(f"setup {clock}: {len(times)} probes, p50 {statistics.median(times):.4f} s")
    for clock in ("wall_s", "cpu_s"):
        times = [getattr(r, clock) for p in passes for r in p]
        print(f"ops {clock[:-2]}: {len(times)} in {len(passes)} passes, "
              f"p50 {percentile(times, 50):.4f} s, p90 {percentile(times, 90):.4f} s, "
              f"max {max(times):.4f} s")
    return end_to_end(ops, passes, [cpu for _, cpu in setup]), passes, []


# ---------------------------------------------------------------------------
# traced in-process replay
# ---------------------------------------------------------------------------

def measure_import(env: dict, work: Path) -> list[float]:
    code = ("import time; t = time.perf_counter(); import corrwork.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_PROBES):
        _, _, _, rc, out = run_child(["-c", code], env, work / "import.out")
        if rc != 0:
            raise RuntimeError(f"import corrwork.cli failed with exit code {rc}")
        times.append(float(out))
    return times


def self_check(op, delta_calls: dict, delta_counts: dict) -> list[str]:
    """Span counts that the code fixes exactly for one op."""
    expected = {}
    if op.kind == "verify":
        expected = {"jacobi.spectral_norm": 1001, "nonlocality.lhv": 100,
                    "szilard.simulate.trials": 1_000_000}
    elif op.kind == "optimize-chsh":
        expected = {"nonlocality.maximize": 1}
    elif op.kind == "szilard":
        expected = {"szilard.simulate.trials": op.params["trials"]}
    elif op.kind == "sweep":
        expected = {"cli.build_sweep.rows": op.params["steps"],
                    "laws.table_load": int(not isinstance(op.law, str))}
    expected["cli.main"] = 1
    seen = {**delta_calls, **delta_counts}
    return [f"trace: {k} = {seen.get(k, 0):g}, expected {v}"
            for k, v in expected.items() if seen.get(k, 0) != v]


def run_traced(ops, seconds: float, work: Path) -> tuple[dict, list, list]:
    from checks import check
    import tracer as tr

    import_times = measure_import(child_env(), work)
    sys.path.insert(0, str(SRC))
    import corrwork  # binds every module before wrapping
    from corrwork import cli

    if Path(corrwork.__file__).resolve().parent != SRC / "corrwork":
        raise RuntimeError(f"imported corrwork from {corrwork.__file__}, not from {SRC}")

    tracer = tr.Tracer()
    grid = 72 * 72

    def execute(index, op, traced):
        stdout, stderr = io.StringIO(), io.StringIO()
        calls0, counts0 = dict(tracer.calls), dict(tracer.counts)
        grids0 = len(tracer.samples["maximize.grid_evals"])
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed op, not a failed run
                print(f"{op.label}: {exc!r}", file=sys.__stderr__)
                code = -1
                if traced:
                    tracer.counts["cli.main.errors"] += 1
        wall = time.perf_counter() - start
        out = stdout.getvalue().encode("utf-8")
        problems = check(op, code, out.decode("utf-8"))
        if traced:
            tracer.counts["cli.stdout.bytes"] += len(out)
            calls = {k: v - calls0.get(k, 0) for k, v in tracer.calls.items()}
            counts = {k: v - counts0.get(k, 0) for k, v in tracer.counts.items()}
            problems += self_check(op, calls, counts)
            problems += [f"trace: maximize_chsh made {g} grid evaluations, expected {grid}"
                         for g in tracer.samples["maximize.grid_evals"][grids0:] if g != grid]
        return OpRecord(index, wall, 0.0, 0.0, output_digest(op, out), problems)

    passes, pass_walls, layers = [], {False: [], True: []}, []
    start, traced = time.perf_counter(), False
    while True:
        if traced:
            tracer.reset()
            tracer.install(tr.TARGETS, "corrwork")
        t0 = time.perf_counter()
        try:
            passes.append([execute(i, op, traced) for i, op in enumerate(ops)])
        finally:
            tracer.uninstall()
        pass_walls[traced].append(time.perf_counter() - t0)
        if traced:
            layers.append({**tr.layer_metrics(tracer),
                           "cli.stdout.bytes": tracer.counts["cli.stdout.bytes"]})
        traced = not traced
        if layers and time.perf_counter() - start + pass_walls[traced][-1] > seconds:
            break
    mark_nondeterminism(passes)

    metrics, problems = {}, []
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"trace: {name} differs between passes: {values}")
    metrics["import.corrwork_cli_s"] = statistics.median(import_times)
    metrics["trace.overhead_ratio"] = (statistics.median(pass_walls[True])
                                       / statistics.median(pass_walls[False]))
    print(f"replay: {len(pass_walls[False])} untraced and {len(pass_walls[True])} traced "
          f"passes, p50 {statistics.median(pass_walls[False]):.4f} s and "
          f"{statistics.median(pass_walls[True]):.4f} s")
    return metrics, passes, problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, generate

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corrwork" / "cli.py").is_file():
        print(f"perfbench: no corrwork source under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = generate(args.workload, args.seed, work)
        print("machine: " + json.dumps(machine_record(), sort_keys=True))
        for op in ops:
            print("op: corrwork " + " ".join(op.argv))
        run = run_traced if args.trace else run_untraced
        metrics, passes, problems = run(ops, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    records = [r for p in passes for r in p]
    failed = [r for r in records if r.problems]
    for r in failed:
        print(f"FAILED {ops[r.index].label}: {'; '.join(r.problems)}")
    for problem in problems:
        print(f"FAILED {problem}")
    units = layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    result = {
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
