"""Command-line front end: sweeps, CHSH reports, engine runs, verification.

Subcommands: sweep, chsh, optimize-chsh, energetic-chsh, hierarchy,
robustness, szilard, verify.  Law names are classical, quantum,
superquantum, or table:<path> for a CSV-backed tabulated law; the one
parser of them is CorrelationLaw.from_name.

Conventions:
  - scalar reports are JSON on stdout, sweeps are CSV files
  - floats are emitted with 10 significant digits
  - work is reported in k_B*T units; pass --temperature to add joules
  - exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error,
    4 internal error (any other exception, a ValueError from the library too)
  - numpy's OpenBLAS runs single-threaded: main sets OPENBLAS_NUM_THREADS=1
    unless the environment sets it or numpy is already imported
  - sweeps are computed in blocks of SWEEP_BLOCK rows, where I(E) runs each
    branch only on its own rows; each block is formatted by _sweepcsv, a
    numpy kernel whose bytes are exactly those of "%.10g"; numpy is loaded
    only by sweep, szilard and verify
  - a process enters at run(), which freezes the heap before exit, so the
    interpreter's exit-time collections do not walk it

Output depends only on the arguments (plus --seed where sampling is
involved), so identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Iterator, NoReturn

from .energetics import (
    energetic_chsh,
    fit_decay_exponent,
    hierarchy_report,
)
from .information import (
    LN2,
    binary_entropy,
    mutual_information_law,
    mutual_information_many,
)
from .laws import Angle, CorrelationLaw
from .nonlocality import (
    TSIRELSON_BOUND,
    ChshSettings,
    chsh_operator_norm,
    chsh_value,
    lhv_deterministic_max,
    maximize_chsh,
)
from .rng import RandomStream, check_seed
from .szilard import EngineConfig, expected_work, optimal_partition, simulate
from ._version import __version__

if TYPE_CHECKING:
    import numpy as np

#: exact SI Boltzmann constant, J/K; used only for presentation
BOLTZMANN_J_PER_K = 1.380649e-23

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

#: rows per sweep block; keeps a sweep's memory small whatever --steps is
SWEEP_BLOCK = 8192

#: every emitted float has 10 significant digits
_FLOAT = "%.10g"


class UsageError(Exception):
    """Bad arguments detected after parsing; maps to exit code 2."""


def _fmt(x: float) -> str:
    return _FLOAT % float(x)


def _round_floats(obj):
    """Clamp every float in a JSON-ready structure to 10 significant digits."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(obj) -> None:
    text = json.dumps(_round_floats(obj), indent=2, sort_keys=True, allow_nan=False)
    sys.stdout.write(text + "\n")


def _parse_law(name: str) -> CorrelationLaw:
    """CorrelationLaw.from_name, where an unknown name or a malformed table is
    a usage error; an unreadable file stays an I/O one."""
    try:
        return CorrelationLaw.from_name(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_settings(text: str | None) -> ChshSettings:
    if text is None:
        return ChshSettings.standard()
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(
            f"--angles needs four comma-separated radians, got {len(parts)} fields"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--angles: non-numeric field in {text!r}") from exc
    try:
        return ChshSettings(*values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_temperature(temperature: float | None) -> None:
    if temperature is not None and not (0.0 < temperature < math.inf):
        raise UsageError(f"temperature must be finite and > 0 kelvin, got {temperature}")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def build_sweep(
    law: CorrelationLaw, theta_min: float, theta_max: float, steps: int
) -> Iterator[np.ndarray]:
    """Lazy float64 blocks of at most SWEEP_BLOCK (theta, e, i_nats, w_kT) rows,
    shape (k, 4), on an even grid; arguments are checked now."""
    if not (0.0 <= theta_min < theta_max <= math.pi):
        raise UsageError(
            f"need 0 <= theta_min < theta_max <= pi, got [{theta_min}, {theta_max}]"
        )
    if steps < 2:
        raise UsageError(f"steps must be >= 2, got {steps}")
    span = theta_max - theta_min

    def blocks():
        import numpy as np

        for start in range(0, steps, SWEEP_BLOCK):
            index = np.arange(start, min(start + SWEEP_BLOCK, steps))
            theta = theta_min + span * (index / (steps - 1))
            e = law.evaluate_many(theta)
            i_nats = mutual_information_many(e)
            yield np.column_stack((theta, e, i_nats, i_nats))

    return blocks()


def write_sweep_csv(rows, out_path: str) -> None:
    """Stream blocks of (theta, e, i_nats, w_kT) rows to a temporary file beside
    ``out_path``, formatted by the exact "%.10g" kernel of _sweepcsv in
    buffers shared by every block, then rename it into place; on any failure
    the temporary file is removed."""
    from ._sweepcsv import format_blocks  # lazily: it builds numpy tables

    tmp = f"{out_path}.{os.getpid()}.tmp"
    try:
        handle = open(tmp, "xb")
        try:
            with handle:
                handle.write(b"theta,e,i_nats,w_kT\n")
                for lines in format_blocks(rows):
                    handle.write(lines)
            os.replace(tmp, out_path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        # the message names out_path, never the pid-stamped temporary file
        error = OSError(f"cannot write sweep to {out_path}: {exc.strerror}")
        error.errno = exc.errno
        raise error from exc


def _cmd_sweep(args) -> int:
    law = _parse_law(args.law)
    rows = build_sweep(law, args.theta_min, args.theta_max, args.steps)
    write_sweep_csv(rows, args.out)
    sys.stdout.write(f"wrote {args.steps} rows to {args.out}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# CHSH reports
# ---------------------------------------------------------------------------

def _cmd_chsh(args) -> int:
    law = _parse_law(args.law)
    settings = _parse_settings(args.angles)
    _emit_json(
        {
            "law": law.name,
            "settings": settings.as_dict(),
            "s_chsh": chsh_value(law, settings),
            "lhv_deterministic_max": lhv_deterministic_max(settings),
            "operator_norm": chsh_operator_norm(settings),
            "bounds": {"local": 2.0, "tsirelson": TSIRELSON_BOUND, "algebraic": 4.0},
        }
    )
    return EXIT_OK


def _cmd_optimize_chsh(args) -> int:
    law = _parse_law(args.law)
    settings, value = maximize_chsh(law)
    _emit_json(
        {
            "law": law.name,
            "settings": settings.as_dict(),
            "s_chsh": value,
        }
    )
    return EXIT_OK


def _cmd_energetic_chsh(args) -> int:
    law = _parse_law(args.law)
    settings = _parse_settings(args.angles)
    _check_temperature(args.temperature)
    s_w = energetic_chsh(law, settings)
    report = {
        "law": law.name,
        "settings": settings.as_dict(),
        "s_w_kT": s_w,
    }
    if args.temperature is not None:
        report["temperature_K"] = args.temperature
        report["s_w_joules"] = s_w * BOLTZMANN_J_PER_K * args.temperature
    _emit_json(report)
    return EXIT_OK


def _cmd_hierarchy(args) -> int:
    settings = _parse_settings(args.angles)
    s_c, s_q, s_s = hierarchy_report(settings)
    _emit_json(
        {
            "settings": settings.as_dict(),
            "classical_kT": s_c,
            "quantum_kT": s_q,
            "superquantum_kT": s_s,
            "ordering": "strict" if s_c < s_q < s_s else "non-strict",
        }
    )
    return EXIT_OK


def _robustness_report(anchor: float) -> dict:
    """Each named law's misalignment decay fit at ``anchor``, or "flat"."""
    fits = {name: fit_decay_exponent(CorrelationLaw.from_name(name), anchor)
            for name in ("classical", "quantum", "superquantum")}
    return {name: "flat" if fit is None else fit._asdict()
            for name, fit in fits.items()}


def _cmd_robustness(args) -> int:
    anchor = 0.0 if args.anchor == "0" else math.pi
    _emit_json({"anchor_radians": anchor, **_robustness_report(anchor)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# szilard
# ---------------------------------------------------------------------------

def _cmd_szilard(args) -> int:
    _check_temperature(args.temperature)
    eps = args.epsilon
    try:
        # the engine's own types check eps, x, trials and the seed
        opt = optimal_partition(eps)
        x = opt.x_opt if args.optimal else args.x
        # the optimum's yield is the bound I(1 - 2 eps); W(eps, x) cancels near 1/2
        work = opt.w_opt_kT if args.optimal else expected_work(eps, x)
        config = EngineConfig(
            error_prob=eps, partition_fraction=x, trials=args.trials, seed=args.seed
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = simulate(config)
    report: dict = {
        "epsilon": eps,
        "x": x,
        "optimal": bool(args.optimal),
        "seed": args.seed,
        "n": args.trials,
        "bound_kT": opt.w_opt_kT,
        "expected_work_kT": work,
        "mean_work_kT": result.mean_work_kT,
        "std_error": result.std_error,
    }
    if args.optimal and opt.boundary:
        report["boundary_optimum"] = True
    if args.temperature is not None:
        scale = BOLTZMANN_J_PER_K * args.temperature
        report["temperature_K"] = args.temperature
        report["mean_work_joules"] = result.mean_work_kT * scale
        report["bound_joules"] = opt.w_opt_kT * scale
    _emit_json(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(checks, prefix, name, measured, expected, tol=0, *, at_most=False) -> None:
    """Record check ``prefix.name``: |measured - expected| <= tol, measured <=
    expected + tol (``at_most``), or equal string flags."""
    if at_most:
        ok = measured <= expected + tol
        expected = f"<= {_fmt(expected)}"
    elif isinstance(expected, str):
        ok = measured == expected
    else:
        ok = abs(measured - expected) <= tol
    checks.append(
        {
            "name": f"{prefix}.{name}",
            "measured": measured,
            "expected": expected,
            "tolerance": tol,
            "passed": ok,
        }
    )


#: verify's Binomial(10**6, 3/4) count of correct trials leaves this region with
#: probability <= 5e-10 per tail; an eps 2.6e-3 off puts its mean on an edge
MC_CORRECT_REGION = (747352, 752642)


def random_settings(stream: RandomStream, n: int) -> Iterator[ChshSettings]:
    """``n`` CHSH settings with four angles each drawn uniformly from [0, 2pi)."""
    for _ in range(n):
        yield ChshSettings(*(stream.next_uniform() * 2.0 * math.pi for _ in range(4)))


def _verify_chsh(stream, check) -> dict:
    """The CHSH triple at the standard angles."""
    standard = ChshSettings.standard()
    s_c = chsh_value(CorrelationLaw.classical(), standard)
    s_q = chsh_value(CorrelationLaw.quantum(), standard)
    s_s = chsh_value(CorrelationLaw.superquantum(), standard)
    check("classical", s_c, 2.0, 1e-12)
    check("quantum", s_q, TSIRELSON_BOUND, 1e-12)
    check("superquantum", s_s, 4.0, 0.0)
    return {"classical": s_c, "quantum": s_q, "superquantum": s_s}


def _verify_lhv(stream, check) -> dict:
    """Local realism: the 16 deterministic strategies reach exactly 2, and the
    linear law, which is Bell's local model, never exceeds that ceiling."""
    classical = CorrelationLaw.classical()
    worst = 0.0
    max_classical = 0.0
    for settings in random_settings(stream, 100):
        worst = max(worst, abs(lhv_deterministic_max(settings) - 2.0))
        max_classical = max(max_classical, chsh_value(classical, settings))
    check("max_deviation_from_2", worst, 0.0, 0.0)
    check("classical.max_chsh", max_classical, 2.0, 1e-12, at_most=True)
    return {"settings_scanned": 100, "max_deviation_from_2": worst,
            "max_classical_chsh": max_classical}


def _verify_tsirelson(stream, check) -> dict:
    """Operator-norm scan against the 2*sqrt(2) ceiling, and the closed-form
    norms against numpy's eigvalsh of the operators built from observables."""
    import numpy as np

    scanned = [*random_settings(stream, 1000), ChshSettings.standard()]
    norms = np.array([chsh_operator_norm(s) for s in scanned])
    max_norm, standard_norm = float(norms[:-1].max()), float(norms[-1])
    # A(phi) = cos(phi) Z + sin(phi) X at the four angles of each setting, and
    # the operator A(a) (x) (A(b) + A(b')) + A(a') (x) (A(b) - A(b'))
    phi = np.array([list(s.as_dict().values()) for s in scanned])
    cos, sin = np.cos(phi), np.sin(phi)
    observables = np.stack((cos, sin, sin, -cos), -1).reshape(-1, 4, 2, 2)
    a, ap, b, bp = observables.swapaxes(0, 1)

    def kron(x, y):
        return np.einsum("nij,nkl->nikjl", x, y).reshape(-1, 4, 4)

    eigs = np.linalg.eigvalsh(kron(a, b + bp) + kron(ap, b - bp))
    reference = np.abs(eigs).max(axis=1)
    gap = float(np.max(np.abs(norms - reference) / reference))
    check("max_norm", max_norm, TSIRELSON_BOUND, 1e-9, at_most=True)
    check("standard_norm", standard_norm, TSIRELSON_BOUND, 1e-9)
    check("eigvalsh_gap", gap, 0.0, 1e-12)
    return {"settings_scanned": 1000, "max_norm": max_norm,
            "standard_norm": standard_norm, "bound": TSIRELSON_BOUND}


def _verify_information(stream, check) -> dict:
    """Each law's I(theta) against the paper's closed form ln 2 - h2(p(theta))."""
    import numpy as np

    classical = CorrelationLaw.classical()
    quantum = CorrelationLaw.quantum()
    superquantum = CorrelationLaw.superquantum()
    grid_n = 10_000
    theta = math.pi * np.arange(grid_n) / (grid_n - 1)

    def closed_form(p):
        with np.errstate(divide="ignore", invalid="ignore"):
            h2 = -p * np.log(p) - (1.0 - p) * np.log(1.0 - p)
        return LN2 - np.where((p == 0.0) | (p == 1.0), 0.0, h2)  # 0 ln 0 = 0

    worst_gap = 0.0
    for law, closed in (
        (classical, closed_form(theta / math.pi)),
        (quantum, closed_form(np.sin(theta / 2.0) ** 2)),
        (superquantum, np.where(2.0 * theta / math.pi == 1.0, 0.0, LN2)),
    ):
        generic = mutual_information_many(law.evaluate_many(theta))
        worst_gap = max(worst_gap, float(np.max(np.abs(closed - generic))))
    check("closed_vs_generic", worst_gap, 0.0, 1e-12)
    for law in (classical, quantum):
        for angle, tag in ((0.0, "0"), (math.pi, "pi")):
            check(f"{law.name}.endpoint_{tag}",
                  mutual_information_law(law, Angle(angle)), LN2, 1e-12)
    check("superquantum.at_half_pi",
          mutual_information_law(superquantum, Angle(math.pi / 2.0)), 0.0, 0.0)
    check("superquantum.off_half_pi",
          mutual_information_law(superquantum, Angle(1.0)), LN2, 0.0)
    return {"grid_points": grid_n, "max_closed_vs_generic_gap": worst_gap}


def _verify_energetic_chsh(stream, check) -> dict:
    """Energetic CHSH values at the standard angles, and their hierarchy."""
    w_c, w_q, w_s = hierarchy_report(ChshSettings.standard())
    check("classical", w_c, 2.0 * (LN2 - binary_entropy(0.25)), 1e-9)
    check("quantum", w_q,
          2.0 * (LN2 - binary_entropy(math.sin(math.pi / 8.0) ** 2)), 1e-9)
    check("superquantum", w_s, 2.0 * LN2, 1e-9)
    hierarchy = "strict" if w_c < w_q < w_s else "non-strict"
    check("hierarchy", hierarchy, "strict")
    return {"classical": w_c, "quantum": w_q, "superquantum": w_s,
            "hierarchy": hierarchy}


def _verify_szilard(stream, check) -> dict:
    """Szilard engine: saturation, second law, Monte Carlo consistency.  The
    engine's W(eps, x) at the optimum must meet the reported yield
    I(1 - 2 eps), and that yield the textbook ln 2 - h2(eps)."""
    worst_sat = 0.0
    for k in range(1, 11):
        eps = 0.05 * k
        opt = optimal_partition(eps)
        worst_sat = max(worst_sat,
                        abs(expected_work(eps, opt.x_opt) - opt.w_opt_kT),
                        abs(opt.w_opt_kT - (LN2 - binary_entropy(eps))))
    check("saturation_gap", worst_sat, 0.0, 1e-12)
    worst_excess = -math.inf
    for i in range(50):
        eps = 0.5 * i / 49.0
        bound = optimal_partition(eps).w_opt_kT
        for j in range(50):
            x = (j + 1) / 51.0
            worst_excess = max(worst_excess, expected_work(eps, x) - bound)
    check("max_bound_excess", worst_excess, 0.0, 1e-12, at_most=True)
    # seed + k would replay the settings stream of verify --seed (seed + k)
    mc = simulate(
        EngineConfig(error_prob=0.25, partition_fraction=0.75, trials=10**6,
                     seed=stream.next_uint64())
    )
    lo, hi = MC_CORRECT_REGION  # |correct - midpoint| <= half-width, exactly
    check("mc_correct_in_region", mc.correct, (lo + hi) / 2, (hi - lo) / 2)
    return {"saturation_gap": worst_sat, "max_bound_excess": worst_excess,
            "mc_mean_kT": mc.mean_work_kT, "mc_std_error": mc.std_error}


def _verify_robustness(stream, check) -> dict:
    """Misalignment decay exponents, each fit judged by its r^2."""
    report = _robustness_report(0.0)
    fit_c, fit_q = report["classical"], report["quantum"]
    check("classical.exponent", fit_c["exponent"], 1.0, 0.005)
    check("classical.prefactor", fit_c["prefactor"], 2.0 / math.pi, 1e-3)
    check("classical.r2_deficit", 1.0 - fit_c["r_squared"], 0.001, 0.0, at_most=True)
    check("quantum.exponent", fit_q["exponent"], 2.0, 0.01)
    check("quantum.r2_deficit", 1.0 - fit_q["r_squared"], 0.001, 0.0, at_most=True)
    check("superquantum", report["superquantum"], "flat")
    return report


#: verify's suites in run order: (report key, check-name prefix, suite); each
#: suite takes verify's stream and a check recorder bound to its prefix, and
#: returns its report section
VERIFY_SUITES = (
    ("chsh", "chsh", _verify_chsh),
    ("lhv", "lhv", _verify_lhv),
    ("tsirelson", "tsirelson", _verify_tsirelson),
    ("mutual_information", "information", _verify_information),
    ("energetic_chsh", "energetic_chsh", _verify_energetic_chsh),
    ("szilard", "szilard", _verify_szilard),
    ("robustness", "robustness", _verify_robustness),
)


def run_verify(seed: int = 0) -> dict:
    """Full invariant suite; returns the JSON-ready report.

    The suites run in VERIFY_SUITES order: chsh, lhv, tsirelson,
    mutual_information, energetic_chsh, szilard, robustness.  The order is
    fixed because the suites draw from one stream: lhv takes its 100 settings
    first, tsirelson the next 1000, and szilard then seeds its Monte Carlo
    with the following word.  A suite passes when all of its own checks pass.
    """
    stream = RandomStream(seed)
    report: dict = {"seed": seed}
    checks: list[dict] = []
    verdicts: list[bool] = []
    for key, prefix, suite in VERIFY_SUITES:
        own: list[dict] = []
        report[key] = suite(stream, functools.partial(_check, own, prefix))
        verdicts.append(all(c["passed"] for c in own))
        checks += own
    report.update(passed=all(verdicts), suites_total=len(verdicts),
                  suites_passed=sum(verdicts), checks=checks)
    return report


def _cmd_verify(args) -> int:
    try:
        check_seed(args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = run_verify(seed=args.seed)
    _emit_json(report)
    if not report["passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        sys.stderr.write("failed checks: " + ", ".join(failing) + "\n")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrwork",
        description="Correlation laws, CHSH parameters, and correlation-powered work.",
    )
    parser.add_argument("--version", action="version", version=f"corrwork {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_law(p):
        p.add_argument("--law", required=True,
                       help="classical | quantum | superquantum | table:<path>")

    def add_angles(p):
        p.add_argument("--angles", default=None,
                       help="four comma-separated radians phi_a,phi_a',phi_b,phi_b' "
                            "(default: standard CHSH angles)")

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0,
                       help="random stream seed in [0, 2**64) (default 0)")

    p = sub.add_parser("sweep", help="tabulate theta, E, I, W over an angle grid")
    add_law(p)
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=math.pi)
    p.add_argument("--steps", type=int, default=181)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("chsh", help="CHSH parameter for a law at given angles")
    add_law(p)
    add_angles(p)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("optimize-chsh", help="maximize the CHSH parameter over angles")
    add_law(p)
    p.set_defaults(func=_cmd_optimize_chsh)

    p = sub.add_parser("energetic-chsh", help="work-potential CHSH combination")
    add_law(p)
    add_angles(p)
    p.add_argument("--temperature", type=float, default=None,
                   help="bath temperature in kelvin for joule output")
    p.set_defaults(func=_cmd_energetic_chsh)

    p = sub.add_parser("hierarchy", help="energetic CHSH for all three laws")
    add_angles(p)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("robustness", help="misalignment decay exponents per law")
    p.add_argument("--anchor", choices=("0", "pi"), default="0",
                   help="perfect-correlation anchor angle (default 0)")
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("szilard", help="Monte Carlo correlation-powered engine run")
    p.add_argument("--epsilon", type=float, required=True,
                   help="memory-bit error probability in [0, 1/2]")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--x", type=float, default=None,
                       help="final partition fraction on the predicted side, in (0, 1)")
    group.add_argument("--optimal", action="store_true",
                       help="use the work-maximizing partition x = 1 - epsilon")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--temperature", type=float, default=None,
                   help="bath temperature in kelvin for joule output")
    add_seed(p)
    p.set_defaults(func=_cmd_szilard)

    p = sub.add_parser("verify", help="run the invariant suite; exit 0 iff all pass")
    add_seed(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # corrwork calls no BLAS routine, so numpy's OpenBLAS thread pool
        # only costs start-up time; a value the caller set wins
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"corrwork: error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"corrwork: i/o error: {exc}\n")
        return EXIT_IO
    except Exception as exc:
        sys.stderr.write(f"corrwork: internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def run() -> NoReturn:
    """Process entry point: the ``corrwork`` script and ``python -m corrwork.cli``.

    Exits with main's code.  At exit the interpreter runs full garbage
    collections over every live object, numpy's included; freezing the heap
    first moves them all out of those collections' reach, at O(1) cost.
    Exit still runs atexit handlers, flushes the std streams and tears down
    modules.  main itself never freezes, because tests and library callers
    run it in process.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
