"""Seeded op lists for the four benchmark workloads.

A workload seed generates every input: child seeds, angles, epsilons and
the knots of tabulated laws.  The program under test sees only the
resulting argv and the table files written here.  Each op carries the
facts its output check needs, so that checks never re-derive inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

#: rows of the two sweeps in ``sweep-bulk``, sized so that both take about
#: the same time and the median op is not the gap between two durations
QUANTUM_SWEEP_STEPS = 400_001
TABLE_SWEEP_STEPS = 250_001
#: knots of every generated tabulated law
TABLE_KNOTS = 1000
#: Monte Carlo trials of each ``szilard`` op
SZILARD_TRIALS = 50_000_000
#: ``verify`` invocations per pass of ``verify-suite``
VERIFY_OPS = 4
#: seeded tabulated laws optimized in ``reports-short``, besides the three named ones
REPORT_TABLES = 5

NAMED_LAWS = ("classical", "quantum", "superquantum")


@dataclass(frozen=True)
class Table:
    """A generated tabulated law: knots as written to ``path``."""

    path: Path
    thetas: tuple[float, ...]
    values: tuple[float, ...]

    def write(self) -> None:
        lines = ["theta_radians,e"]
        lines += [f"{t!r},{e!r}" for t, e in zip(self.thetas, self.values)]
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argv, what it computes, and its item count.

    ``kind`` names the subcommand; ``law`` is a named law or a Table;
    ``params`` holds the other generated inputs the output check needs.
    """

    kind: str
    argv: tuple[str, ...]
    items: int
    law: str | Table | None = None
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        law = self.law.path.name if isinstance(self.law, Table) else self.law
        return " ".join(x for x in (self.kind, law) if x)


def _law_arg(law: str | Table) -> str:
    return f"table:{law.path}" if isinstance(law, Table) else law


def make_table(rng: random.Random, path: Path) -> Table:
    """A noisy, damped singlet curve on jittered knots spanning [0, pi]."""
    step = math.pi / (TABLE_KNOTS - 1)
    thetas = [0.0]
    thetas += [k * step + rng.uniform(-0.3, 0.3) * step for k in range(1, TABLE_KNOTS - 1)]
    thetas.append(math.pi)
    amp = rng.uniform(0.8, 1.0)
    values = [
        min(1.0, max(-1.0, -amp * math.cos(t) + rng.gauss(0.0, 0.02))) for t in thetas
    ]
    return Table(path, tuple(thetas), tuple(values))


def _angles(rng: random.Random) -> tuple[float, float, float, float]:
    return tuple(rng.uniform(-math.pi, math.pi) for _ in range(4))


def _angles_arg(angles) -> str:
    # the "=" form, because argparse reads a value starting with "-" as an option
    return "--angles=" + ",".join(repr(a) for a in angles)


def verify_suite(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for _ in range(VERIFY_OPS):
        seed = rng.randrange(2**31)
        ops.append(Op("verify", ("verify", "--seed", str(seed)), 1, params={"seed": seed}))
    return ops


def sweep_bulk(rng: random.Random, work: Path) -> list[Op]:
    table = make_table(rng, work / "sweep_law.csv")
    ops = []
    # both ranges contain pi/2, where I(E) cancels near E = 0
    for law, steps, name in (
        ("quantum", QUANTUM_SWEEP_STEPS, "quantum.csv"),
        (table, TABLE_SWEEP_STEPS, "table.csv"),
    ):
        lo = rng.uniform(0.0, 0.3)
        hi = math.pi - rng.uniform(0.0, 0.3)
        out = work / name
        argv = ("sweep", "--law", _law_arg(law), "--theta-min", repr(lo),
                "--theta-max", repr(hi), "--steps", str(steps), "--out", str(out))
        ops.append(Op("sweep", argv, steps, law,
                      {"theta_min": lo, "theta_max": hi, "steps": steps, "out": out}))
    return ops


def reports_short(rng: random.Random, work: Path) -> list[Op]:
    # eight optimize-chsh ops to four short reports, so that the median op
    # lies well inside one cluster of durations, not at the edge of the gap
    tables = [make_table(rng, work / f"report_law_{k}.csv")
              for k in range(1, REPORT_TABLES + 1)]
    laws = (*NAMED_LAWS, *tables)
    ops = [Op("optimize-chsh", ("optimize-chsh", "--law", _law_arg(law)), 1, law)
           for law in laws]

    law = rng.choice(laws)
    angles = _angles(rng)
    ops.append(Op("chsh", ("chsh", "--law", _law_arg(law), _angles_arg(angles)),
                  1, law, {"angles": angles}))

    law = rng.choice(laws)
    angles = _angles(rng)
    temperature = rng.uniform(1.0, 1000.0)
    ops.append(Op("energetic-chsh",
                  ("energetic-chsh", "--law", _law_arg(law), _angles_arg(angles),
                   "--temperature", repr(temperature)),
                  1, law, {"angles": angles, "temperature": temperature}))

    angles = _angles(rng)
    ops.append(Op("hierarchy", ("hierarchy", _angles_arg(angles)), 1, None,
                  {"angles": angles}))

    anchor = rng.choice(("0", "pi"))
    ops.append(Op("robustness", ("robustness", "--anchor", anchor), 1, None,
                  {"anchor": anchor}))
    return ops


def szilard_mc(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for optimal in (True, False):
        eps = rng.uniform(0.05, 0.45)
        seed = rng.randrange(2**31)
        x = 1.0 - eps if optimal else rng.uniform(0.55, 0.95)
        part = ("--optimal",) if optimal else ("--x", repr(x))
        argv = ("szilard", "--epsilon", repr(eps), *part, "--trials", str(SZILARD_TRIALS),
                "--seed", str(seed))
        ops.append(Op("szilard", argv, SZILARD_TRIALS, None,
                      {"epsilon": eps, "x": x, "optimal": optimal, "seed": seed,
                       "trials": SZILARD_TRIALS}))
    return ops


WORKLOADS = {
    "verify-suite": verify_suite,
    "sweep-bulk": sweep_bulk,
    "reports-short": reports_short,
    "szilard-mc": szilard_mc,
}


def generate(workload: str, seed: int, work: Path) -> list[Op]:
    """The op list of one pass of ``workload``; writes its table files to ``work``."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, work)
    for table in {op.law for op in ops if isinstance(op.law, Table)}:
        table.write()
    return ops
