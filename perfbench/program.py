"""Finds the program under test: the ``sparsevib`` package in ``src/`` of this checkout.

The benchmark never falls back to an installed copy, so a checkout that
lacks ``src/`` fails instead of measuring some other version.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``sparsevib`` source tree."""


def import_cli():
    """Put ``src/`` first on ``sys.path`` and return ``sparsevib.cli`` from it."""
    package = SRC / "sparsevib"
    if not (package / "cli.py").is_file():
        raise ProgramMissing(f"no sparsevib sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sparsevib.cli

    if Path(sparsevib.__file__).resolve().parent != package:
        raise ProgramMissing(f"sparsevib was imported from {sparsevib.__file__}, not {package}")
    return sparsevib.cli
