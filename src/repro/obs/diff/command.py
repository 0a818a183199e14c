"""``python -m repro diff`` — the differential report, end to end.

Three modes, decided by how many record paths the user gave:

* **two paths** — diff artifact A against artifact B (any mix of
  ``BENCH_*.json`` and ``scale.json``);
* **one path** — diff the checked-in regression baseline
  (``benchmarks/results/baseline.json``) against the given artifact,
  the "did my branch move anything" question;
* **no paths** — run a live pair: two schemes under identical load
  (``--workload``/``--schemes``), captured with full span/request
  instrumentation, then diffed.

Whatever the mode, the output is the same: ``diff.md`` and ``diff.json``
in the results directory, byte-stable for identical inputs regardless
of ``--jobs``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs.diff.engine import build_diff
from repro.obs.diff.render import diff_to_json, render_diff_markdown
from repro.obs.diff.sides import (
    LIVE_SIZINGS,
    DiffSide,
    load_side,
    run_live_pair,
)


def default_baseline_path() -> Path:
    """The checked-in regression baseline the one-path mode diffs
    against."""
    from repro.bench.runner import default_results_dir

    return Path(default_results_dir()) / "baseline.json"


def _live_sides(workload: Optional[str], schemes: Sequence[str],
                mode: str, overrides: Dict[str, Optional[int]],
                tail: float, jobs: int, quiet: bool
                ) -> tuple[DiffSide, DiffSide]:
    if workload is None:
        raise ConfigurationError(
            "diff needs either record paths or --workload (live pair); "
            "e.g. `repro diff --workload stream "
            "--schemes identity-strict,copy`")
    if len(schemes) != 2:
        raise ConfigurationError(
            f"a live diff compares exactly two schemes, got "
            f"{list(schemes)!r}")
    sizing = dict(LIVE_SIZINGS[mode])
    for knob, value in overrides.items():
        if value is not None:
            sizing[knob] = value
    return run_live_pair(workload, schemes[0], schemes[1], **sizing,
                         tail_percentile=tail, jobs=jobs, quiet=quiet)


def run_diff(paths: Sequence[str] = (),
             workload: Optional[str] = None,
             schemes: Sequence[str] = ("identity-strict", "copy"),
             mode: str = "quick",
             cores: Optional[int] = None,
             size: Optional[int] = None,
             units: Optional[int] = None,
             tail: float = 99.0,
             jobs: int = 1,
             out_dir: Optional[str] = None,
             quiet: bool = False) -> int:
    """Build the A/B differential report; write diff.md + diff.json."""
    if paths and workload is not None:
        raise ConfigurationError(
            "diff takes record paths OR --workload (live pair), "
            "not both")
    if len(paths) > 2:
        raise ConfigurationError(
            f"diff compares at most two records, got {len(paths)}")

    if len(paths) == 2:
        a = load_side(paths[0])
        b = load_side(paths[1])
    elif len(paths) == 1:
        baseline = default_baseline_path()
        if not baseline.exists():
            raise ConfigurationError(
                f"no checked-in baseline at {baseline}; pass two "
                f"record paths instead")
        a = load_side(str(baseline), label=f"baseline:{baseline.name}")
        b = load_side(paths[0])
    else:
        a, b = _live_sides(workload, schemes, mode,
                           {"cores": cores, "size": size,
                            "units": units},
                           tail, jobs, quiet)

    diff = build_diff(a, b)
    markdown = render_diff_markdown(diff)

    from repro.bench.runner import default_results_dir

    out = Path(out_dir) if out_dir is not None \
        else Path(default_results_dir())
    out.mkdir(parents=True, exist_ok=True)
    (out / "diff.json").write_text(diff_to_json(diff))
    (out / "diff.md").write_text(markdown)

    if not quiet:
        print(markdown, end="")
        print(f"\ndiff written to {out / 'diff.md'} and "
              f"{out / 'diff.json'}", file=sys.stderr)
    return 0
