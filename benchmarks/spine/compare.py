"""Compare two result files under the bounds ``BENCHMARK.json`` fixes.

    python benchmarks/spine/compare.py A/results.json B/results.json

``A`` is the parent, ``B`` the change (both written by ``run.py --out``,
ideally with ``--repeat``).  Every workload x end-to-end metric is reported
in its own row as

* ``unresolved``   - either side's run-to-run spread (IQR / median) is wider
  than the metric's bound, so the pair cannot be told apart;
* ``worse``        - B's median is worse than A's by more than the bound;
* ``better``       - B's median is better by more than A's own spread;
* ``within bound`` - anything else.

``failed_frac`` and ``mutation_p50_ms`` are not in ``BENCHMARK.json`` (its
list holds what every workload emits and is never 0); their bounds are
``HARNESS_ONLY`` below.  Exit status is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: name -> (bound, higher is better): 0 absolute for failures; the write
#: path's latency exists on ``mixed_dynamic`` only.
HARNESS_ONLY = {"mutation_p50_ms": (0.25, False), "failed_frac": (0.0, False)}


def verdict(a: dict, b: dict, bound: float, higher_is_better: bool) -> tuple:
    """``(label, relative change of the median, in the worse direction)``."""
    if not a["median"]:
        return ("worse" if b["median"] > 0 else "within bound"), 0.0
    change = (b["median"] - a["median"]) / a["median"]
    worse_by = -change if higher_is_better else change
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -a["spread"]:
        return "better", worse_by
    return "within bound", worse_by


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text())["summary"] for p in argv)
    metrics = {
        m["name"]: (m["bound"], m["better"] == "higher")
        for m in json.loads(BENCHMARK.read_text())["end_to_end"]
    }
    metrics.update(HARNESS_ONLY)
    worse = 0
    for workload in a:
        if workload not in b:
            continue
        for name, (bound, higher) in metrics.items():
            if name not in a[workload] or name not in b[workload]:
                continue
            ra, rb = a[workload][name], b[workload][name]
            label, worse_by = verdict(ra, rb, bound, higher)
            worse += label == "worse"
            print(
                f"{workload:16s} {name:16s} {label:13s} "
                f"A={ra['median']:.6g} B={rb['median']:.6g} {ra['unit']} "
                f"worse_by={worse_by:+.2%} bound={bound:.0%} "
                f"spread A={ra['spread']:.2%} B={rb['spread']:.2%} "
                f"n={ra['n']}/{rb['n']}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
