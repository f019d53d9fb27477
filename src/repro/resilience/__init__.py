"""Resilience subsystem: composable fault injection and chaos campaigns.

The paper's safety claim — the V_safe gate never admits a task that browns
out (§V-B, §VII) — is only worth reproducing if it survives the ways real
deployments go wrong: harvesters that cut out in storms, supercapacitors
whose ESR doubles with age, ADCs that stick, drop samples or pick up
noise, timers that jitter. This package turns those failure modes into a
registry of seeded, schedulable :mod:`injectors <repro.resilience.injectors>`
that plug into the simulator's existing seams, and a
:mod:`campaign <repro.resilience.campaign>` engine (``repro chaos``) that
runs seeded fault campaigns across applications and estimators, classifies
every trial, and persists replayable cases for anything unsafe. Both it
and the daemon's campaign (``repro chaos --serve``) run on one
:mod:`skeleton <repro.resilience.skeleton>`.
"""

from repro.resilience.campaign import (
    CHAOS_APPS,
    CHAOS_STOCK,
    ChaosCase,
    default_injector_dicts,
    run_campaign,
)
from repro.resilience.injectors import (
    INJECTORS,
    AdcDropoutFault,
    AdcNoiseFault,
    AdcStuckFault,
    CapacitanceDegradation,
    EsrAgingDrift,
    FaultInjector,
    HarvesterDropoutStorm,
    IsrTimerJitter,
    NoFault,
)
from repro.resilience.skeleton import (
    OUTCOMES,
    CampaignReport,
    Case,
    Recipe,
    Registry,
    TrialOutcome,
)

__all__ = [
    "CHAOS_APPS",
    "CHAOS_STOCK",
    "OUTCOMES",
    "CampaignReport",
    "Case",
    "ChaosCase",
    "FaultInjector",
    "INJECTORS",
    "NoFault",
    "HarvesterDropoutStorm",
    "EsrAgingDrift",
    "CapacitanceDegradation",
    "AdcDropoutFault",
    "AdcStuckFault",
    "AdcNoiseFault",
    "IsrTimerJitter",
    "Recipe",
    "Registry",
    "TrialOutcome",
    "default_injector_dicts",
    "run_campaign",
]
