"""Output checks for every benchmark op, against independent numpy references.

Each check returns a list of problems; an empty list means the output is
correct.  References recompute each quantity by a route that shares no code
with the program: ``-cos`` and friends for the named laws, ``np.interp`` for
tables, the log1p form of I(E), and ``np.linalg.eigvalsh`` for the CHSH
operator.

Tolerances are the program's documented absolute tolerances, widened by
half a unit in the 10th significant digit, because every float the CLI
prints is rounded to 10 significant digits.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import Op, Table

LN2 = math.log(2.0)
TSIRELSON = 2.0 * math.sqrt(2.0)
BOLTZMANN = 1.380649e-23
#: optimize-chsh must reach these values for the named laws
CHSH_OPTIMA = {"classical": 2.0, "quantum": TSIRELSON, "superquantum": 4.0}
OPTIMUM_TOL = 1e-6
#: the Szilard Monte Carlo mean must lie within this many standard errors
SZILARD_SIGMAS = 5.0
#: half a unit in the 10th significant digit of the printed value
PRINT_REL = 5e-10


def close(measured, expected, tol: float) -> np.ndarray:
    """|measured - expected| <= tol plus the rounding of a 10-digit print."""
    measured = np.asarray(measured, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.maximum(np.abs(measured), np.abs(expected))
    return np.abs(measured - expected) <= tol + PRINT_REL * scale


def canonical(theta):
    """Relative angle reflected into [0, pi]."""
    r = np.mod(np.asarray(theta, dtype=float), 2.0 * math.pi)
    return np.minimum(r, 2.0 * math.pi - r)


def correlation(law: str | Table, theta):
    """Reference E(theta) for a named or tabulated law."""
    t = canonical(theta)
    if law == "classical":
        return -1.0 + 2.0 * t / math.pi
    if law == "quantum":
        return -np.cos(t)
    if law == "superquantum":
        return np.sign(2.0 * t / math.pi - 1.0)
    return np.interp(t, law.thetas, law.values)


def information(e):
    """I(E) = [(1+E) log1p(E) + (1-E) log1p(-E)] / 2, stable near E = 0."""
    e = np.asarray(e, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        up = np.where(e > -1.0, (1.0 + e) * np.log1p(e), 0.0)
        down = np.where(e < 1.0, (1.0 - e) * np.log1p(-e), 0.0)
    return 0.5 * (up + down)


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def relative_angles(angles) -> np.ndarray:
    a, ap, b, bp = angles
    return np.array([a - b, a - bp, ap - b, ap - bp])


def chsh(law, angles) -> float:
    e = correlation(law, relative_angles(angles))
    return abs(e[0] + e[1] + e[2] - e[3])


def energetic_chsh(law, angles) -> float:
    i = information(correlation(law, relative_angles(angles)))
    return abs(i[0] + i[1] + i[2] - i[3])


def operator_norm(angles) -> float:
    def obs(phi):
        return np.array([[math.cos(phi), math.sin(phi)], [math.sin(phi), -math.cos(phi)]])

    a, ap, b, bp = (obs(p) for p in angles)
    op = np.kron(a, b + bp) + np.kron(ap, b - bp)
    return float(np.max(np.abs(np.linalg.eigvalsh(op))))


def _law_name(law) -> str:
    return "tabulated" if isinstance(law, Table) else law


def _expect(problems: list, ok, what: str) -> None:
    if not bool(np.all(ok)):
        problems.append(what)


def check(op: Op, returncode: int, stdout: str) -> list[str]:
    """Problems with one op's exit code, stdout and output files."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        if op.kind == "sweep":
            return check_sweep(op, stdout)
        return CHECKS[op.kind](op, json.loads(stdout))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_sweep(op: Op, stdout: str) -> list[str]:
    p = op.params
    steps, out = p["steps"], p["out"]
    problems: list[str] = []
    _expect(problems, stdout == f"wrote {steps} rows to {out}\n", "stdout summary")
    with open(out, encoding="utf-8") as handle:
        header = handle.readline()
        _expect(problems, header == "theta,e,i_nats,w_kT\n", f"header {header!r}")
        rows = np.loadtxt(handle, delimiter=",", ndmin=2)
    if rows.shape != (steps, 4):
        return problems + [f"table shape {rows.shape}, expected ({steps}, 4)"]
    span = p["theta_max"] - p["theta_min"]
    theta = p["theta_min"] + span * (np.arange(steps) / (steps - 1))
    e = correlation(op.law, theta)
    _expect(problems, close(rows[:, 0], theta, 1e-12), "theta column")
    _expect(problems, close(rows[:, 1], e, 1e-12), "e column")
    _expect(problems, close(rows[:, 2], information(e), 1e-12), "i_nats column")
    _expect(problems, rows[:, 3] == rows[:, 2], "w_kT column differs from i_nats")
    return problems


def check_verify(op: Op, report: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, report["passed"] is True, "verify did not pass")
    _expect(problems, report["suites_total"] == 7 and report["suites_passed"] == 7,
            f"{report['suites_passed']}/{report['suites_total']} suites passed")
    _expect(problems, report["seed"] == op.params["seed"], "seed not echoed")
    return problems


def check_optimize(op: Op, report: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, report["law"] == _law_name(op.law), "law name")
    s = report["s_chsh"]
    if isinstance(op.law, Table):
        # a generated table is at least 0.8 times the singlet law, whose optimum is 2 sqrt 2
        _expect(problems, 2.0 - OPTIMUM_TOL <= s <= 4.0, f"s_chsh {s} outside [2, 4]")
    else:
        target = CHSH_OPTIMA[op.law]
        _expect(problems, abs(s - target) <= OPTIMUM_TOL, f"s_chsh {s} != {target}")
    settings = report["settings"]
    angles = [settings[k] for k in ("phi_a", "phi_a_prime", "phi_b", "phi_b_prime")]
    _expect(problems, close(s, chsh(op.law, angles), OPTIMUM_TOL),
            "s_chsh does not match its own settings")
    return problems


def check_chsh(op: Op, report: dict) -> list[str]:
    angles = op.params["angles"]
    problems: list[str] = []
    _expect(problems, report["law"] == _law_name(op.law), "law name")
    _expect(problems, close(report["s_chsh"], chsh(op.law, angles), 1e-12), "s_chsh")
    _expect(problems, report["lhv_deterministic_max"] == 2.0, "lhv_deterministic_max")
    norm = report["operator_norm"]
    _expect(problems, close(norm, operator_norm(angles), 1e-9), "operator_norm")
    _expect(problems, norm <= TSIRELSON + 1e-9, "operator_norm above 2 sqrt 2")
    _expect(problems, close(report["bounds"]["tsirelson"], TSIRELSON, 0.0)
            and report["bounds"]["local"] == 2.0 and report["bounds"]["algebraic"] == 4.0,
            "bounds")
    return problems


def check_energetic(op: Op, report: dict) -> list[str]:
    p = op.params
    problems: list[str] = []
    _expect(problems, report["law"] == _law_name(op.law), "law name")
    _expect(problems, close(report["s_w_kT"], energetic_chsh(op.law, p["angles"]), 1e-9),
            "s_w_kT")
    _expect(problems, close(report["temperature_K"], p["temperature"], 0.0), "temperature_K")
    # s_w_joules is printed from the unrounded S_W, so compare it in k_B*T units
    _expect(problems, close(report["s_w_joules"] / (BOLTZMANN * p["temperature"]),
                            energetic_chsh(op.law, p["angles"]), 1e-9), "s_w_joules")
    return problems


def check_hierarchy(op: Op, report: dict) -> list[str]:
    angles = op.params["angles"]
    problems: list[str] = []
    values = [report[f"{law}_kT"] for law in ("classical", "quantum", "superquantum")]
    for law, value in zip(("classical", "quantum", "superquantum"), values):
        _expect(problems, close(value, energetic_chsh(law, angles), 1e-9), f"{law}_kT")
    strict = values[0] < values[1] < values[2]
    _expect(problems, report["ordering"] == ("strict" if strict else "non-strict"),
            "ordering")
    return problems


def check_robustness(op: Op, report: dict) -> list[str]:
    problems: list[str] = []
    anchor = 0.0 if op.params["anchor"] == "0" else math.pi
    _expect(problems, close(report["anchor_radians"], anchor, 0.0), "anchor_radians")
    c, q = report["classical"], report["quantum"]
    _expect(problems, abs(c["exponent"] - 1.0) <= 0.005, "classical exponent")
    _expect(problems, abs(c["prefactor"] - 2.0 / math.pi) <= 1e-3, "classical prefactor")
    _expect(problems, abs(q["exponent"] - 2.0) <= 0.01, "quantum exponent")
    _expect(problems, c["r_squared"] >= 0.999 and q["r_squared"] >= 0.999, "r_squared")
    _expect(problems, report["superquantum"] == "flat", "superquantum not flat")
    return problems


def check_szilard(op: Op, report: dict) -> list[str]:
    p = op.params
    eps, x = p["epsilon"], p["x"]
    expected = (1.0 - eps) * math.log(2.0 * x) + eps * math.log(2.0 * (1.0 - x))
    problems: list[str] = []
    _expect(problems, report["n"] == p["trials"] and report["seed"] == p["seed"], "n or seed")
    _expect(problems, report["optimal"] is p["optimal"], "optimal flag")
    _expect(problems, close(report["x"], x, 1e-12), "partition fraction")
    _expect(problems, close(report["bound_kT"], LN2 - binary_entropy(eps), 1e-12), "bound_kT")
    _expect(problems, close(report["expected_work_kT"], expected, 1e-12), "expected_work_kT")
    se = report["std_error"]
    _expect(problems, se > 0.0, "zero standard error")
    _expect(problems, abs(report["mean_work_kT"] - expected) <= SZILARD_SIGMAS * se,
            f"Monte Carlo mean more than {SZILARD_SIGMAS:g} standard errors off")
    return problems


CHECKS = {
    "verify": check_verify,
    "optimize-chsh": check_optimize,
    "chsh": check_chsh,
    "energetic-chsh": check_energetic,
    "hierarchy": check_hierarchy,
    "robustness": check_robustness,
    "szilard": check_szilard,
}
