"""Persisted repro cases: JSON files a failing trial leaves behind.

Every UNSOUND verdict (after shrinking) becomes one self-contained JSON
document: the system recipe, the minimized trace, the estimator, and the
oracle parameters that convicted it. ``repro verify --replay case.json``
rebuilds exactly that trial and re-runs the differential check, so a bug
found by a 200-trial randomized sweep reduces to a one-command regression
test that can be checked into the repository.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.loads.trace import CurrentTrace
from repro.verify.generators import (
    SystemSpec,
    trace_from_segments,
    trace_segments,
)
from repro.verify.oracle import (
    OracleResult,
    check_settings,
    differential_check,
)

PathLike = Union[str, Path]

FORMAT = "repro.verify-case"
VERSION = 1


@dataclass(frozen=True)
class ReproCase:
    """A minimized, replayable failing configuration."""

    estimator: str
    system: SystemSpec
    segments: list
    tolerance: float
    conservative_margin: float
    seed: Optional[int] = None
    index: Optional[int] = None
    #: The verdict details recorded when the case was found.
    original: dict = field(default_factory=dict)
    #: Bank axis provenance: whether the trial ran under ``--bank-axis``
    #: and, for the ``stale-config`` baseline, the pre-switch bank set its
    #: model was characterized from. Pre-bank documents load with the
    #: defaults (axis off), keeping old case files replayable.
    bank_axis: bool = False
    stale_active: tuple = ()

    def __post_init__(self) -> None:
        # (imported here: the runner imports this module)
        from repro.verify.runner import KNOWN_ESTIMATORS
        check_settings(self.tolerance, self.conservative_margin)
        if self.estimator not in KNOWN_ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}; "
                             f"choose from {KNOWN_ESTIMATORS}")

    @property
    def trace(self) -> CurrentTrace:
        return trace_from_segments(self.segments)

    def to_dict(self) -> dict:
        return {
            "format": FORMAT,
            "version": VERSION,
            "estimator": self.estimator,
            "system": self.system.to_dict(),
            "segments": self.segments,
            "tolerance": self.tolerance,
            "conservative_margin": self.conservative_margin,
            "seed": self.seed,
            "index": self.index,
            "original": self.original,
            "bank_axis": self.bank_axis,
            "stale_active": list(self.stale_active),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReproCase":
        if data.get("format") != FORMAT:
            raise ValueError("not a repro verify-case document")
        if data.get("version") != VERSION:
            raise ValueError(f"unsupported version: {data.get('version')!r}")
        return cls(
            estimator=data["estimator"],
            system=SystemSpec.from_dict(data["system"]),
            segments=[[float(c), float(d)] for c, d in data["segments"]],
            tolerance=float(data["tolerance"]),
            conservative_margin=float(data["conservative_margin"]),
            seed=data.get("seed"),
            index=data.get("index"),
            original=data.get("original", {}),
            bank_axis=bool(data.get("bank_axis", False)),
            stale_active=tuple(data.get("stale_active", [])),
        )

    @classmethod
    def build(cls, estimator_name: str, system: SystemSpec,
              trace: CurrentTrace, *, tolerance: float,
              conservative_margin: float, seed: Optional[int] = None,
              index: Optional[int] = None,
              result: Optional[OracleResult] = None,
              bank_axis: bool = False,
              stale_active: tuple = ()) -> "ReproCase":
        return cls(
            estimator=estimator_name,
            system=system,
            segments=trace_segments(trace),
            tolerance=tolerance,
            conservative_margin=conservative_margin,
            seed=seed,
            index=index,
            original=result.to_dict() if result is not None else {},
            bank_axis=bank_axis,
            stale_active=tuple(stale_active),
        )

    def replay(self) -> OracleResult:
        """Re-run the differential check this case records."""
        import dataclasses

        from repro.verify.runner import build_estimator  # cycle-free at call

        system = self.system.build()
        model = None
        if self.estimator == "stale-config" and self.stale_active:
            # Rebuild the pre-switch configuration and characterize it —
            # the stale per-config table the convicted baseline ran on.
            stale_spec = dataclasses.replace(
                self.system, active=tuple(self.stale_active))
            model = stale_spec.build().characterize()
        estimator = build_estimator(self.estimator, system, model)
        return differential_check(
            system, self.trace, estimator,
            tolerance=self.tolerance,
            conservative_margin=self.conservative_margin,
        )


def save_case(case: ReproCase, path: PathLike) -> None:
    Path(path).write_text(json.dumps(case.to_dict(), indent=2),
                          encoding="utf-8")


def load_case(path: PathLike) -> ReproCase:
    return ReproCase.from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )
