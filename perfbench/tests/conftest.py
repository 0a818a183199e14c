import sys
from pathlib import Path

# The in-process tests import the simulator the way the child does.
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
