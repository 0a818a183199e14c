import sys
from pathlib import Path

# Run from a checkout: the simulator lives in src/ beside this package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench.cli import main  # noqa: E402

sys.exit(main())
