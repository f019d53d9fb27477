#!/usr/bin/env python
"""Compare a fresh benchmark JSON against the checked-in baseline.

CI's regression gate: ``run_benchmarks.py`` writes a result file (the
smoke run in PR CI, the full run nightly) and this script diffs it against
the checked-in baseline (``BENCH.json``). Two kinds of check per metric:

* an **absolute floor** — the machine-independent claim the repo makes
  (the fast kernel beats the reference loop by >2x, the fig13 sweep by
  >1.3x, the cache actually hits). A floor failure is a real regression
  wherever it runs.
* a **relative tolerance** against the baseline — how far below the
  recorded value the fresh number may fall before CI complains. Ratios
  (speedups, hit rates) transfer across machines; absolute wall times do
  not and are reported but never gated.

Tolerances are deliberately loose: shared CI runners are noisy and the
baseline was measured on different hardware with the full (non ``--quick``)
workloads. The gate exists to catch "the fast path stopped being fast",
not 10% flutter.

Usage::

    python benchmarks/compare.py bench-smoke.json [--baseline BENCH.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric: where it lives and how much it may regress."""

    path: str              # dotted path into the benchmark JSON
    floor: Optional[float]  # absolute minimum, or None
    rel_tol: Optional[float]  # max fractional drop below baseline, or None
    higher_is_better: bool = True


#: The gate. ``rel_tol=0.6`` means the fresh value may fall to 40% of the
#: baseline before failing — wide enough for quick-vs-full workload and
#: runner noise, narrow enough to catch an actual lost optimization.
GATED_METRICS: List[MetricSpec] = [
    MetricSpec("kernel.speedup", floor=2.0, rel_tol=0.6),
    MetricSpec("analysis.hit_rate", floor=0.5, rel_tol=0.3),
    MetricSpec("sweep.speedup_fast", floor=1.3, rel_tol=0.6),
    MetricSpec("fleet.speedup", floor=10.0, rel_tol=0.6),
    # The segment-algebra claim: the vectorized segalg fleet path beats
    # the stepping fleet kernel >=5x on the jittered duty fleet.
    MetricSpec("segalg_fleet.speedup", floor=5.0, rel_tol=0.6),
    # The serving claim: the admission daemon's data plane (request
    # validation + batched engine dispatch over already-decoded objects —
    # the section its dispatcher serializes) sustains >=100k cache-warm
    # queries/s on one process. Wire throughput (including the JSON
    # codec) is reported below but not gated: it benchmarks CPython's
    # json module more than this repo.
    MetricSpec("serving.qps", floor=100_000.0, rel_tol=0.6),
]

#: Reported for context, never gated: absolute times are machine-bound,
#: parallel speedup collapses on single-core runners, and the cache
#: speedup times sub-millisecond work — pure noise on shared runners.
REPORTED_METRICS: List[str] = [
    "kernel.reference_s", "kernel.fast_s",
    "analysis.speedup", "analysis.cold_s", "analysis.warm_s",
    "sweep.reference_s", "sweep.fast_s",
    "sweep.speedup_fast_parallel",
    "fleet.scalar_s", "fleet.fleet_s",
    "fleet.fleet_device_steps_per_s",
    "segalg_fleet.stepping_s", "segalg_fleet.segalg_s",
    "serving.seconds", "serving.requests", "serving.wire_qps",
    # Degraded-tier throughput (disk tier abandoned, memo + compute):
    # the crash-safety story's cost axis. Reported so regressions are
    # visible, ungated because the absolute number is machine-bound.
    "serving.qps_degraded",
]


def lookup(data: dict, path: str):
    node = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare(fresh: dict, baseline: dict) -> "tuple[list, bool]":
    """Evaluate the gate; returns (report rows, ok)."""
    rows = []
    ok = True
    for spec in GATED_METRICS:
        value = lookup(fresh, spec.path)
        base = lookup(baseline, spec.path)
        status = "ok"
        if value is None:
            status = "MISSING"
            ok = False
        else:
            if spec.floor is not None and value < spec.floor:
                status = f"FAIL floor {spec.floor:g}"
                ok = False
            elif (spec.rel_tol is not None and base is not None
                    and value < base * (1.0 - spec.rel_tol)):
                status = f"FAIL >{spec.rel_tol:.0%} below baseline"
                ok = False
        delta = ""
        if value is not None and base:
            delta = f"{(value - base) / base:+.1%}"
        rows.append((spec.path, base, value, delta, status))
    for path in REPORTED_METRICS:
        value = lookup(fresh, path)
        base = lookup(baseline, path)
        delta = ""
        if value is not None and base:
            delta = f"{(value - base) / base:+.1%}"
        rows.append((path, base, value, delta, "info"))
    return rows, ok


def render(rows: list) -> str:
    headers = ("metric", "baseline", "current", "delta", "status")
    text_rows = [
        (path,
         "—" if base is None else f"{base:.4g}",
         "—" if value is None else f"{value:.4g}",
         delta or "—", status)
        for path, base, value, delta, status in rows
    ]
    widths = [max(len(headers[i]), *(len(r[i]) for r in text_rows))
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def default_baseline() -> str:
    """The checked-in baseline, ``BENCH.json``."""
    root = Path(__file__).resolve().parent.parent
    return str(root / "BENCH.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="benchmark JSON to check")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: checked-in "
                             "BENCH.json)")
    args = parser.parse_args(argv)
    if args.baseline is None:
        args.baseline = default_baseline()

    fresh = json.loads(Path(args.fresh).read_text(encoding="utf-8"))
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    rows, ok = compare(fresh, baseline)
    print(f"fresh: {args.fresh} (quick={fresh.get('quick')}, "
          f"python {fresh.get('python')}, {fresh.get('cpus')} cpu)")
    print(f"baseline: {args.baseline} (quick={baseline.get('quick')}, "
          f"python {baseline.get('python')}, {baseline.get('cpus')} cpu)")
    print()
    print(render(rows))
    print()
    print("verdict: " + ("OK" if ok else "REGRESSION"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
