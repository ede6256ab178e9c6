"""Self-tests of the benchmark (``python -m pytest perfbench/tests``).

Not part of tier-1: the repository's ``testpaths`` is ``tests``.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]
