"""In-process span tracer for corrwork's public functions.

The tracer wraps each traced function at every place it is bound: the
module that defines it and every module that imported it with
``from .x import y``.  A wrapper records a span (calls and self time) and
passes the span's direct-child counts to an optional hook that turns
arguments and results into work counters.  The program's source is
not edited; ``uninstall`` restores every binding.

Self time is a span's duration minus the time its wrapped children cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class Frame:
    """An open span: its start, the time its children covered, their counts."""

    __slots__ = ("start", "child_ns", "children")

    def __init__(self, start: int):
        self.start = start
        self.child_ns = 0
        self.children: dict[str, list[int]] | None = None

    def child(self, name: str) -> tuple[int, int]:
        """(calls, ns) of direct children called ``name``."""
        calls, ns = (self.children or {}).get(name, (0, 0))
        return calls, ns


@dataclass(frozen=True)
class Target:
    """A traced function: span name, defining module, dotted attribute, hook."""

    name: str
    module: str
    attr: str
    hook: Callable | None = None


class Tracer:
    """Spans and counters for one set of wrapped functions."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stack: list[Frame] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.self_ns, self.counts, self.samples):
            table.clear()

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = Frame(clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame.start
                stack.pop()
                self.calls[name] += 1
                self.self_ns[name] += dur - frame.child_ns
                if stack:
                    parent = stack[-1]
                    parent.child_ns += dur
                    if parent.children is None:
                        parent.children = {}
                    edge = parent.children.setdefault(name, [0, 0])
                    edge[0] += 1
                    edge[1] += dur
            if hook is not None:
                hook(self, fn, args, kwargs, result, frame, dur)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self, targets: list[Target], package: str) -> None:
        """Wrap every binding of every target in the loaded modules of ``package``.

        Raises RuntimeError when a target cannot be found or a binding of an
        original function survives, so that a missed ``from .x import y``
        site fails loudly instead of undercounting.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == package or n.startswith(package + ".")) and m is not None]
        try:
            self._install(targets, modules)
        except BaseException:
            self.uninstall()
            raise

    def _install(self, targets: list[Target], modules: list) -> None:
        originals = {}
        for t in targets:
            owner = sys.modules[t.module]
            *path, leaf = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                fn = owner.__dict__.get(leaf)
            else:
                fn = getattr(owner, leaf, None)
            if fn is None or getattr(fn, "__wrapped_by_tracer__", False):
                raise RuntimeError(f"cannot trace {t.module}.{t.attr}")
            originals[t.name] = fn
            self._patch(owner, leaf, self.wrap(t.name, fn, t.hook))
            if not isinstance(owner, type):
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, getattr(owner, leaf))
        for module in modules:
            for attr, value in vars(module).items():
                for name, fn in originals.items():
                    if value is fn:
                        raise RuntimeError(
                            f"{module.__name__}.{attr} still binds untraced {name}")

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


# ---------------------------------------------------------------------------
# corrwork targets and the hooks that count their work
# ---------------------------------------------------------------------------

def _arg(fn: Callable, args, kwargs, name: str):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _counter(key: str, value: Callable):
    def hook(tracer, fn, args, kwargs, result, frame, dur):
        tracer.counts[key] += value(fn, args, kwargs, result)
    return hook


def _words(fn, args, kwargs, result):
    return len(result)


def _trials(fn, args, kwargs, result):
    return result.n


def _rows(fn, args, kwargs, result):
    return _arg(fn, args, kwargs, "steps")


def _bytes(fn, args, kwargs, result):
    return os.path.getsize(_arg(fn, args, kwargs, "out_path"))


def _main_error(tracer, fn, args, kwargs, result, frame, dur):
    tracer.counts["cli.main.errors"] += result != 0


def _maximize(tracer, fn, args, kwargs, result, frame, dur):
    from corrwork import nonlocality
    evals, refine_ns = frame.child("nonlocality.chsh_value")
    tracer.counts["nonlocality.maximize.refine_evals"] += evals
    tracer.counts["nonlocality.maximize.refine_s"] += refine_ns / 1e9
    tracer.counts["nonlocality.maximize.grid_s"] += (dur - refine_ns) / 1e9
    # the first refine evaluation scores the grid optimum; the rest are probes
    tracer.counts["nonlocality.maximize.budget_hit"] += (
        evals - 1 >= nonlocality.REFINE_MAX_EVALS)
    tracer.samples["maximize.grid_evals"].append(frame.child("laws.evaluate")[0])


TARGETS = [
    Target("rng.uniform_block", "corrwork.rng", "RandomStream.uniform_block",
           _counter("rng.uniform_block.words", _words)),
    Target("rng.next_uniform", "corrwork.rng", "RandomStream.next_uniform"),
    Target("laws.angle", "corrwork.laws", "Angle.__init__"),
    Target("laws.evaluate", "corrwork.laws", "CorrelationLaw.evaluate"),
    Target("laws.table_load", "corrwork.laws", "tabulated_from_csv"),
    Target("information.mi_law", "corrwork.information", "mutual_information_law"),
    Target("information.mutual_information", "corrwork.information", "mutual_information"),
    Target("information.binary_entropy", "corrwork.information", "binary_entropy"),
    Target("jacobi.spectral_norm", "corrwork.jacobi", "spectral_norm"),
    Target("nonlocality.operator_norm", "corrwork.nonlocality", "chsh_operator_norm"),
    Target("nonlocality.chsh_value", "corrwork.nonlocality", "chsh_value"),
    Target("nonlocality.lhv", "corrwork.nonlocality", "lhv_deterministic_max"),
    Target("nonlocality.maximize", "corrwork.nonlocality", "maximize_chsh", _maximize),
    Target("energetics.energetic_chsh", "corrwork.energetics", "energetic_chsh"),
    Target("energetics.fit_decay", "corrwork.energetics", "fit_decay_exponent"),
    Target("szilard.simulate", "corrwork.szilard", "simulate",
           _counter("szilard.simulate.trials", _trials)),
    Target("szilard.optimal_partition", "corrwork.szilard", "optimal_partition"),
    Target("cli.build_sweep", "corrwork.cli", "build_sweep",
           _counter("cli.build_sweep.rows", _rows)),
    Target("cli.write_sweep_csv", "corrwork.cli", "write_sweep_csv",
           _counter("cli.write_sweep_csv.bytes", _bytes)),
    Target("cli.run_verify", "corrwork.cli", "run_verify"),
    Target("cli.main", "corrwork.cli", "main", _main_error),
]

#: per-layer metrics read off span statistics: name -> (span, field)
SPAN_METRICS = {
    "rng.uniform_block.calls": ("rng.uniform_block", "calls"),
    "rng.uniform_block.self_s": ("rng.uniform_block", "self_s"),
    "rng.next_uniform.calls": ("rng.next_uniform", "calls"),
    "rng.next_uniform.self_s": ("rng.next_uniform", "self_s"),
    "szilard.simulate.calls": ("szilard.simulate", "calls"),
    "szilard.simulate.self_s": ("szilard.simulate", "self_s"),
    "szilard.optimal_partition.calls": ("szilard.optimal_partition", "calls"),
    "laws.angle.constructions": ("laws.angle", "calls"),
    "laws.angle.self_s": ("laws.angle", "self_s"),
    "laws.evaluate.calls": ("laws.evaluate", "calls"),
    "laws.evaluate.self_s": ("laws.evaluate", "self_s"),
    "laws.table_load.self_s": ("laws.table_load", "self_s"),
    "information.mi_law.calls": ("information.mi_law", "calls"),
    "information.mi_law.self_s": ("information.mi_law", "self_s"),
    "information.mutual_information.calls": ("information.mutual_information", "calls"),
    "information.mutual_information.self_s": ("information.mutual_information", "self_s"),
    "information.binary_entropy.calls": ("information.binary_entropy", "calls"),
    "information.binary_entropy.self_s": ("information.binary_entropy", "self_s"),
    "jacobi.spectral_norm.calls": ("jacobi.spectral_norm", "calls"),
    "jacobi.spectral_norm.self_s": ("jacobi.spectral_norm", "self_s"),
    "nonlocality.operator_norm.calls": ("nonlocality.operator_norm", "calls"),
    "nonlocality.operator_norm.self_s": ("nonlocality.operator_norm", "self_s"),
    "nonlocality.chsh_value.calls": ("nonlocality.chsh_value", "calls"),
    "nonlocality.chsh_value.self_s": ("nonlocality.chsh_value", "self_s"),
    "nonlocality.lhv.calls": ("nonlocality.lhv", "calls"),
    "nonlocality.lhv.self_s": ("nonlocality.lhv", "self_s"),
    "nonlocality.maximize.calls": ("nonlocality.maximize", "calls"),
    "energetics.energetic_chsh.calls": ("energetics.energetic_chsh", "calls"),
    "energetics.energetic_chsh.self_s": ("energetics.energetic_chsh", "self_s"),
    "energetics.fit_decay.calls": ("energetics.fit_decay", "calls"),
    "energetics.fit_decay.self_s": ("energetics.fit_decay", "self_s"),
    "cli.build_sweep.self_s": ("cli.build_sweep", "self_s"),
    "cli.write_sweep_csv.self_s": ("cli.write_sweep_csv", "self_s"),
    "cli.main.calls": ("cli.main", "calls"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "cli.run_verify.self_s": ("cli.run_verify", "self_s"),
}

#: per-layer metrics read off hook counters
COUNTER_METRICS = (
    "rng.uniform_block.words",
    "szilard.simulate.trials",
    "nonlocality.maximize.grid_s",
    "nonlocality.maximize.refine_s",
    "nonlocality.maximize.refine_evals",
    "nonlocality.maximize.budget_hit",
    "cli.build_sweep.rows",
    "cli.write_sweep_csv.bytes",
    "cli.main.errors",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every span and counter metric of one traced pass."""
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = (tracer.calls[span] if field == "calls"
                       else tracer.self_ns[span] / 1e9)
    for metric in COUNTER_METRICS:
        out[metric] = tracer.counts[metric]
    return out
