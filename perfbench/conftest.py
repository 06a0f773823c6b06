"""Make ``pytest perfbench -q`` find the simulator and the harness modules.

The benchmark's own tests live beside it and are not part of tier-1
(``pyproject.toml`` collects ``tests/`` only).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
