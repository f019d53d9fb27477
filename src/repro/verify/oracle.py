"""The differential V_safe oracle.

The paper's soundness claim (§VI-A) is behavioural: *starting a task at or
above V_safe never browns out*. The oracle checks exactly that, twice over:

* against **ground truth** — the binary-search procedure of
  :mod:`repro.harness.ground_truth` gives the true minimum completing
  voltage, so an estimate's margin above (or below) it is measurable; and
* against **the plant itself** — the estimate is used as an actual start
  voltage and the simulator decides whether the device survives. The
  brown-out run, not the ground-truth comparison, is what convicts: an
  estimate slightly below the ground-truth bracket that still completes is
  within search tolerance, not unsound.

Verdicts:

``SOUND``
    The run from the estimate completed and the estimate sits within the
    configured conservatism margin of ground truth.
``UNSOUND``
    The run from the estimate browned out *and* the estimate sits more
    than the search tolerance below ground truth — the estimator violated
    the V_safe contract and the failing configuration is a repro case.
    (A brown-out from inside the ±tolerance bracket is the oracle's own
    resolution limit, not a conviction.)
``OVERLY_CONSERVATIVE``
    The run completed but the estimate clears ground truth by more than
    ``conservative_margin`` of the operating range — correct, but wasteful
    in the way §VI-A's error metric penalizes.
``INFEASIBLE``
    The load cannot complete even from ``V_high``; no estimator verdict is
    meaningful (estimators saturate at ``V_high`` by construction).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from repro.harness.ground_truth import GroundTruth, attempt_load, \
    find_true_vsafe
from repro.loads.trace import CurrentTrace
from repro.power.system import PowerSystem


class Verdict(str, enum.Enum):
    """Outcome classes of one differential check."""

    SOUND = "SOUND"
    UNSOUND = "UNSOUND"
    OVERLY_CONSERVATIVE = "OVERLY_CONSERVATIVE"
    INFEASIBLE = "INFEASIBLE"


@dataclass(frozen=True)
class OracleResult:
    """One estimator's differential verdict on one trial."""

    estimator: str
    verdict: Verdict
    v_safe_estimate: float
    v_safe_true: float
    #: Estimate minus ground truth, in volts (NaN when infeasible).
    margin: float
    #: The same margin as a fraction of the operating range.
    margin_fraction: float
    #: Minimum terminal voltage observed when running from the estimate.
    v_min_from_estimate: float
    browned_out: bool

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "verdict": self.verdict.value,
            "v_safe_estimate": self.v_safe_estimate,
            "v_safe_true": self.v_safe_true,
            "margin": self.margin,
            "margin_fraction": self.margin_fraction,
            "v_min_from_estimate": self.v_min_from_estimate,
            "browned_out": self.browned_out,
        }


def check_settings(tolerance: float, conservative_margin: float) -> None:
    """Raise ``ValueError`` unless the oracle's search ``tolerance`` (in
    volts) and ``conservative_margin`` are positive and finite: with a NaN
    or infinite tolerance no margin is ever below ``-tolerance``, so no
    estimator could be convicted."""
    for name, value in (("tolerance", tolerance),
                        ("conservative_margin", conservative_margin)):
        if not 0 < value < math.inf:
            raise ValueError(
                f"{name} must be positive and finite, got {value}")


def differential_check(system: PowerSystem, trace: CurrentTrace,
                       estimator, truth: Optional[GroundTruth] = None, *,
                       tolerance: float = 0.002,
                       conservative_margin: float = 0.25,
                       harvesting: bool = False) -> OracleResult:
    """Judge one estimator against ground truth and the simulated plant.

    ``truth`` may be passed in when the caller already ran the binary
    search (the runner shares one search across all estimators); otherwise
    it is computed here with ``tolerance``. ``conservative_margin`` is the
    fraction of the operating range beyond which a sound estimate is
    flagged OVERLY_CONSERVATIVE.

    ``harvesting`` applies to the **admission run only**: the environment
    axis attaches a recorded-trace harvester to ``system`` and admits the
    load with the charger on. Ground truth stays a rested-buffer,
    harvesting-off search — harvest can only add charge during the run,
    so an estimate sound against the dark-plant truth stays sound under
    any environment, and the conviction rule is unchanged.
    """
    check_settings(tolerance, conservative_margin)
    if truth is None:
        truth = find_true_vsafe(system, trace, tolerance=tolerance)
    name = getattr(estimator, "name", type(estimator).__name__)
    v_range = system.monitor.v_high - system.monitor.v_off
    if not truth.feasible:
        return OracleResult(
            estimator=name, verdict=Verdict.INFEASIBLE,
            v_safe_estimate=float("nan"), v_safe_true=float("nan"),
            margin=float("nan"), margin_fraction=float("nan"),
            v_min_from_estimate=float("nan"), browned_out=False,
        )
    estimate = estimator.estimate(system, trace)
    # The estimate is taken literally as a start voltage: a device cannot
    # charge above V_high, and a claim below V_off means "start with the
    # booster already cut" — both are the estimator's problem, not ours.
    v_start = min(estimate.v_safe, system.monitor.v_high)
    run = attempt_load(system, trace, v_start, harvesting=harvesting)
    margin = estimate.v_safe - truth.v_safe
    margin_fraction = margin / v_range if v_range > 0 else math.inf
    if run.browned_out and margin < -tolerance:
        verdict = Verdict.UNSOUND
    elif run.browned_out:
        # The estimate sits inside the ground-truth search bracket: the
        # binary search only certifies V_safe to ±tolerance, so a brown-out
        # from within that band is at the oracle's own resolution — not
        # evidence against the estimator.
        verdict = Verdict.SOUND
    elif margin_fraction > conservative_margin:
        verdict = Verdict.OVERLY_CONSERVATIVE
    else:
        verdict = Verdict.SOUND
    return OracleResult(
        estimator=name,
        verdict=verdict,
        v_safe_estimate=estimate.v_safe,
        v_safe_true=truth.v_safe,
        margin=margin,
        margin_fraction=margin_fraction,
        v_min_from_estimate=run.v_min,
        browned_out=run.browned_out,
    )
