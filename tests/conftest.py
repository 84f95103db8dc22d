"""Puts ``tests/`` on the import path so every suite can ``import oracles``."""

import sys
from pathlib import Path

_TESTS = str(Path(__file__).resolve().parent)
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)
