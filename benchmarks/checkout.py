"""Locate this checkout's source tree and time `import openbooks`.

Uses the standard library only, so that run.py can time the import before
anything imports numpy.  Run as a script, it prints the seconds a fresh
interpreter spends in `import openbooks`:

    python3 benchmarks/checkout.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "openbooks"


def import_openbooks():
    """Import openbooks from this checkout's src/; returns (module, seconds).

    Raises ImportError when the checkout has no source tree, or when an
    openbooks from elsewhere would be measured instead.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise ImportError(f"no openbooks package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import openbooks
    seconds = time.perf_counter() - t0
    if Path(openbooks.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"openbooks was imported from {openbooks.__file__}, "
                          f"not from {PACKAGE}")
    return openbooks, seconds


if __name__ == "__main__":
    print(repr(import_openbooks()[1]))
