"""The repository's pytest configuration turns a misspelt marker into a
failure, whichever pytest version reads it: the ``filterwarnings = error``
setting raises ``PytestUnknownMarkWarning`` at collection even where
``--strict-markers`` in ``addopts`` does not reach the ``strict_markers``
ini value."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_misspelt_marker_fails_collection(tmp_path):
    typo = tmp_path / "test_typo.py"
    typo.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_marked():\n    pass\n")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider", str(typo)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "PytestUnknownMarkWarning" in out.stdout + out.stderr
