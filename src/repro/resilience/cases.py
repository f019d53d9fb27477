"""Persisted chaos cases: replayable records of unsafe campaign trials.

Every unsafe trial (a brown-out past the gate, or a livelock) becomes one
self-contained JSON document holding the *resolved* trial inputs — seed,
index, app, estimator, injector recipe, horizon and scenario axes (the
executor settings are the campaign's constants). Because a campaign
trial is a pure function of those inputs,
``repro chaos --replay case.json`` re-runs exactly the trial that failed
and reports whether it still misbehaves — the same workflow
``repro verify`` established for soundness counterexamples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

PathLike = Union[str, Path]

FORMAT = "repro.chaos-case"
VERSION = 1


@dataclass(frozen=True)
class ChaosCase:
    """One replayable unsafe campaign trial."""

    seed: int
    index: int
    app: str
    estimator: str
    injector: dict
    horizon: float
    #: Whether the campaign ran with the environment scenario axis on
    #: (the replay must regenerate the same environment trace).
    env_axis: bool = False
    #: Whether the campaign ran with the bank reconfiguration axis on
    #: (the replay must rebuild the same reconfigurable plant and
    #: configuration-aware scheduler). Pre-bank documents load with the
    #: default (axis off), keeping old case files replayable.
    bank_axis: bool = False
    #: Outcome details recorded when the case was found.
    original: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format": FORMAT,
            "version": VERSION,
            "seed": self.seed,
            "index": self.index,
            "app": self.app,
            "estimator": self.estimator,
            "injector": self.injector,
            "horizon": self.horizon,
            "env_axis": self.env_axis,
            "bank_axis": self.bank_axis,
            "original": self.original,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosCase":
        """Documents written while the executor settings were campaign
        options carry them too, at the constants' values; they load."""
        if data.get("format") != FORMAT:
            raise ValueError("not a repro chaos-case document")
        if data.get("version") != VERSION:
            raise ValueError(f"unsupported version: {data.get('version')!r}")
        return cls(
            seed=int(data["seed"]),
            index=int(data["index"]),
            app=data["app"],
            estimator=data["estimator"],
            injector=dict(data["injector"]),
            horizon=float(data["horizon"]),
            env_axis=bool(data.get("env_axis", False)),
            bank_axis=bool(data.get("bank_axis", False)),
            original=data.get("original", {}),
        )

    def replay(self):
        """Re-run the recorded trial; returns a ChaosTrialOutcome."""
        from repro.resilience.campaign import _run_resolved  # cycle-free

        return _run_resolved(
            self.seed, self.index, self.app, self.estimator, self.injector,
            horizon=self.horizon, env_axis=self.env_axis,
            bank_axis=self.bank_axis,
        )


def save_chaos_case(case: ChaosCase, path: PathLike) -> None:
    Path(path).write_text(json.dumps(case.to_dict(), indent=2),
                          encoding="utf-8")


def load_chaos_case(path: PathLike) -> ChaosCase:
    return ChaosCase.from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )
