"""Make the package sources and the benchmark modules importable.

Run from the root of a checkout: ``python -m pytest perfbench/tests``. These
tests are outside the repository's default test paths, so the plain test run
does not collect them.
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
