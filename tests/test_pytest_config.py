"""The repository's pytest settings still let hypothesis report its failures."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''\
from hypothesis import given, strategies as st


@given(st.integers(0, 1000))
def test_below_500(n):
    assert n < 500
'''


def test_failing_property_prints_its_falsifying_example(tmp_path):
    # filterwarnings = ["error"] must not turn a warning raised while
    # hypothesis builds its report into an INTERNALERROR (exit 3)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
