"""Make the benchmark modules and the program importable from the tests.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
