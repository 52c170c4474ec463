"""Every case of cli_corpus.json exits with the same code, prints the same
stdout and stderr, byte for byte, and writes the same files.

The cases run in process through cli.main, in one working directory that
holds the input files below, so that a relative path in argv resolves there
and no output names a temporary directory.  A few also run as fresh
``python -m corrwork.cli`` children, through cli.run and its exit path.
Both run with COLUMNS=80, the width at which argparse wraps its help and
the usage line of a rejected command line.  A case's "files" maps each file it leaves
behind to its sha256; the file is removed after the case.

The digests detect a change; they are not an oracle.  A change that moves
one lists the case and its reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
from pathlib import Path

from corrwork import cli

from test_cli import run_module_child

CORPUS = Path(__file__).with_name("cli_corpus.json")


def seeded_table(seed: int, knots: int) -> str:
    """A table law CSV from random.Random(seed): a damped singlet curve with
    noise, on ``knots`` jittered angles from 0 to pi, written with repr."""
    rng = random.Random(seed)
    step = math.pi / (knots - 1)
    thetas = [0.0, *(k * step + rng.uniform(-0.3, 0.3) * step
                     for k in range(1, knots - 1)), math.pi]
    amp = rng.uniform(0.8, 1.0)
    rows = (f"{t!r},{min(1.0, max(-1.0, -amp * math.cos(t) + rng.gauss(0.0, 0.05)))!r}\n"
            for t in thetas)
    return "theta_radians,e\n" + "".join(rows)


def _table_csv(knots) -> str:
    return "theta_radians,e\n" + "".join(f"{t!r},{e!r}\n" for t, e in knots)


def edge_tables(seed: int) -> dict[str, str]:
    """Four table law CSVs from random.Random(seed), one per edge of the
    interpolation: a single knot; knots at 0 and pi only; knots that stop
    short of both ends; and an inner knot at pi/2, which a sweep of an odd
    number of steps hits exactly, whose value is -0.0."""
    rng = random.Random(seed)
    inner = sorted(rng.uniform(0.2, 2.9) for _ in range(6))
    return {
        "one.csv": _table_csv([(rng.uniform(0.0, math.pi), rng.uniform(-1.0, 1.0))]),
        "ends.csv": _table_csv([(0.0, rng.uniform(-1.0, 1.0)),
                                (math.pi, rng.uniform(-1.0, 1.0))]),
        "inner.csv": _table_csv([(t, rng.uniform(-1.0, 1.0)) for t in inner]),
        "negzero.csv": _table_csv([(rng.uniform(0.0, 1.0), rng.uniform(-1.0, 0.0)),
                                   (math.pi / 2.0, -0.0),
                                   (rng.uniform(2.0, 3.0), rng.uniform(0.1, 1.0))]),
    }


LAW = seeded_table(31, 40)

#: law.csv with CR line ends, with CRLF line ends after a byte-order mark,
#: and with a blank and a whitespace-only line after every line: each loads
#: law.csv's law, so its reports print what law.csv's print
LAW_VARIANTS = {
    "law_cr.csv": LAW.replace("\n", "\r"),
    "law_crlf_bom.csv": "\ufeff" + LAW.replace("\n", "\r\n"),
    "law_blank.csv": LAW.replace("\n", "\n\n \t\n"),
}

#: the files every case can read: a seeded table law and its variants, a
#: table with a knot outside [0, pi], one with a non-numeric field on line 5
#: after blank lines, one with a byte that is not UTF-8 on line 4, and the
#: four edge tables
INPUTS = {
    "law.csv": LAW,
    **LAW_VARIANTS,
    "range.csv": "theta_radians,e\n0.0,-1.0\n9.0,0.0\n",
    "nonnumeric.csv": "theta_radians,e\n0.0,-1.0\n\n  \n0.5,abc\n",
    "badbyte.csv": b"theta_radians,e\n0.0,-1.0\n1.0,0.25\n2.0,0.\xff5\n",
    **edge_tables(32),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(directory: Path) -> dict[str, str]:
    """Write INPUTS into ``directory``, text as UTF-8; returns each file's sha256."""
    digests = {}
    for name, content in INPUTS.items():
        data = content if isinstance(content, bytes) else content.encode("utf-8")
        (directory / name).write_bytes(data)
        digests[name] = _sha256(data)
    return digests


def replay(argv: list[str]) -> dict:
    """Run one case in the current directory; returns it as the corpus records it."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    case = {"argv": argv, "exit": code,
            "stdout_sha256": _sha256(out.getvalue().encode()),
            "stderr_sha256": _sha256(err.getvalue().encode())}
    written = sorted(set(os.listdir()) - before)
    if written:
        case["files"] = {name: _sha256(Path(name).read_bytes()) for name in written}
        for name in written:
            os.remove(name)
    return case


def test_every_case_replays_its_exit_code_and_stdout(monkeypatch, tmp_path):
    corpus = json.loads(CORPUS.read_text())
    assert write_inputs(tmp_path) == corpus["inputs"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    changed = [" ".join(case["argv"]) for case in corpus["cases"]
               if replay(case["argv"]) != case]
    assert not changed


#: cases replayed as fresh children: a Monte Carlo, a verify, a law error
#: (exit 2), a command line that argparse rejects (exit 2), a sweep of a
#: table law that writes a file, and a subcommand's help
CHILD_CASES = [
    ["szilard", "--epsilon", "0.2", "--x", "0.7", "--trials", "100000", "--seed", "7"],
    ["verify", "--seed", "1"],
    ["chsh", "--law", "bogus"],
    ["sweep", "--law", "quantum", "--steps", "many", "--out", "s.csv"],
    ["sweep", "--law", "table:law.csv", "--steps", "4097", "--out", "out.csv"],
    ["sweep", "--help"],
]


def test_fresh_children_replay_their_exit_code_and_stdout(tmp_path):
    cases = {tuple(case["argv"]): case for case in json.loads(CORPUS.read_text())["cases"]}
    write_inputs(tmp_path)
    for argv in CHILD_CASES:
        case = cases[tuple(argv)]
        code, out, err = run_module_child(argv, tmp_path)
        assert (code, _sha256(out.encode()), _sha256(err.encode())) == (
            case["exit"], case["stdout_sha256"], case["stderr_sha256"]), argv
        for name, digest in case.get("files", {}).items():
            assert _sha256((tmp_path / name).read_bytes()) == digest, (argv, name)


def test_sweeps_of_different_laws_write_different_files():
    laws_by_digest: dict[str, set[str]] = {}
    for case in json.loads(CORPUS.read_text())["cases"]:
        argv = case["argv"]
        if argv[0] == "sweep" and "files" in case:
            law = argv[argv.index("--law") + 1]
            for digest in case["files"].values():
                laws_by_digest.setdefault(digest, set()).add(law)
    assert all(len(laws) == 1 for laws in laws_by_digest.values())


def test_law_variants_print_what_law_csv_prints():
    cases = {tuple(case["argv"]): case for case in json.loads(CORPUS.read_text())["cases"]}
    variants = [argv for argv in cases
                if any(f"table:{name}" in argv for name in LAW_VARIANTS)]
    assert len(variants) == 2 * len(LAW_VARIANTS)
    for argv in variants:
        twin = tuple("table:law.csv" if arg.startswith("table:") else arg for arg in argv)
        assert cases[argv]["exit"] == cases[twin]["exit"] == 0
        assert cases[argv]["stdout_sha256"] == cases[twin]["stdout_sha256"]
