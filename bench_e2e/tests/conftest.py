"""Make ``bench_e2e`` and ``repro`` importable when pytest starts here.

Run with ``python -m pytest bench_e2e/tests`` from the repository root;
these self-tests are not on the tier-1 ``testpaths``.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent.parent
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)
