"""Parametric environment models: normalized intensity versus time.

Each model maps absolute time to a dimensionless **intensity** in
``[0, 1]`` — fraction of full sun for PV, normalized vibration energy
for kinetic, normalized thermal gradient for TEG. Lowering
(:func:`repro.env.correlate.base_grid`) samples that mapping once per
piece of a uniform grid.

All stochastic structure (cloud transients, kinetic bursts) is drawn
once at construction from a seeded generator over a fixed horizon, so a
model instance is a pure function of its parameters: the same seed
always yields the same sky.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

#: RNG stream ids mixed with the model seed — distinct from the fleet
#: spec stream (0xF1EE7) and the verify trial streams so an environment
#: and the fleet it drives never consume the same random numbers.
_CLOUD_STREAM = 0xC100D
_BURST_STREAM = 0xB0057


@runtime_checkable
class EnvironmentModel(Protocol):
    """Normalized environment intensity versus absolute time."""

    def intensity(self, t: float) -> float:
        ...


class DiurnalSolarModel:
    """A diurnal irradiance arc shaded by seeded cloud transients.

    The clear-sky component is a half-sine day: within each period of
    length ``period`` the first ``daylight_fraction`` is daylight with
    ``sin(pi * t_day / daylight)`` intensity, the rest is night at zero.

    Cloud transients are step attenuations: each cloud ``j`` multiplies
    intensity by ``(1 - depth_j)`` for its duration, and overlapping
    clouds compose multiplicatively. Clouds are drawn at construction from
    ``default_rng((seed, _CLOUD_STREAM))`` over ``[0, horizon)``:
    a Poisson count of ``cloud_rate`` per period, uniform starts,
    exponential durations with mean ``cloud_duration``, and depths
    uniform in ``[0.5, 1] * cloud_depth``.
    """

    def __init__(self, period: float = 240.0,
                 daylight_fraction: float = 0.5,
                 seed: int = 0,
                 cloud_rate: float = 4.0,
                 cloud_depth: float = 0.7,
                 cloud_duration: float = 6.0,
                 horizon: float = 240.0) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0 < daylight_fraction <= 1:
            raise ValueError("daylight_fraction must be in (0, 1], got "
                             f"{daylight_fraction}")
        if cloud_rate < 0 or cloud_depth < 0 or cloud_depth > 1:
            raise ValueError("cloud_rate must be >= 0 and cloud_depth in "
                             f"[0, 1], got {cloud_rate}, {cloud_depth}")
        if cloud_duration <= 0:
            raise ValueError(
                f"cloud_duration must be positive, got {cloud_duration}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.period = float(period)
        self.daylight = float(daylight_fraction) * self.period
        self.horizon = float(horizon)
        rng = np.random.default_rng((seed, _CLOUD_STREAM))
        count = int(rng.poisson(cloud_rate * self.horizon / self.period)) \
            if cloud_rate > 0 else 0
        starts = np.sort(rng.uniform(0.0, self.horizon, count))
        durations = rng.exponential(cloud_duration, count)
        depths = cloud_depth * rng.uniform(0.5, 1.0, count)
        self.cloud_starts = starts
        self.cloud_ends = starts + durations
        self.cloud_depths = depths

    def _attenuation(self, t: float) -> float:
        active = (self.cloud_starts <= t) & (t < self.cloud_ends)
        if not active.any():
            return 1.0
        return float(np.prod(1.0 - self.cloud_depths[active]))

    def intensity(self, t: float) -> float:
        t_day = math.fmod(t, self.period)
        if t_day < 0.0:
            t_day += self.period
        if t_day >= self.daylight:
            return 0.0
        arc = math.sin(math.pi * t_day / self.daylight)
        return max(0.0, arc * self._attenuation(t))


class KineticBurstModel:
    """Vibration harvesting: a weak floor plus seeded rectangular bursts.

    Intensity is piecewise constant: ``base_intensity`` between events,
    plus the amplitudes of all active bursts, capped at one. Bursts are
    drawn at construction from ``default_rng((seed, _BURST_STREAM))``:
    a Poisson count of ``burst_rate`` per second over the horizon,
    uniform starts, exponential durations with mean ``burst_duration``,
    amplitudes uniform in ``[0.5, 1] * burst_intensity``.
    """

    def __init__(self, base_intensity: float = 0.05,
                 seed: int = 0,
                 burst_rate: float = 0.1,
                 burst_duration: float = 2.0,
                 burst_intensity: float = 0.9,
                 horizon: float = 240.0) -> None:
        if not 0 <= base_intensity <= 1:
            raise ValueError(
                f"base_intensity must be in [0, 1], got {base_intensity}")
        if burst_rate < 0 or not 0 <= burst_intensity <= 1:
            raise ValueError("burst_rate must be >= 0 and burst_intensity "
                             f"in [0, 1], got {burst_rate}, {burst_intensity}")
        if burst_duration <= 0:
            raise ValueError(
                f"burst_duration must be positive, got {burst_duration}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.base = float(base_intensity)
        self.horizon = float(horizon)
        rng = np.random.default_rng((seed, _BURST_STREAM))
        count = int(rng.poisson(burst_rate * self.horizon)) \
            if burst_rate > 0 else 0
        starts = np.sort(rng.uniform(0.0, self.horizon, count))
        durations = rng.exponential(burst_duration, count)
        amps = burst_intensity * rng.uniform(0.5, 1.0, count)
        self.burst_starts = starts
        self.burst_ends = starts + durations
        self.burst_amps = amps

    def intensity(self, t: float) -> float:
        active = (self.burst_starts <= t) & (t < self.burst_ends)
        level = self.base + float(np.sum(self.burst_amps[active]))
        return min(1.0, level)


class ThermalGradientModel:
    """TEG harvesting from a slow thermal cycle: a triangle wave.

    Intensity ramps linearly from ``low`` to ``high`` over the first
    half of each period and back over the second (piecewise linear).
    Deterministic: thermal mass leaves no room for fast transients.
    """

    def __init__(self, period: float = 240.0,
                 intensity_low: float = 0.2,
                 intensity_high: float = 1.0) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0 <= intensity_low <= intensity_high <= 1:
            raise ValueError(
                "need 0 <= intensity_low <= intensity_high <= 1, got "
                f"{intensity_low}, {intensity_high}")
        self.period = float(period)
        self.low = float(intensity_low)
        self.high = float(intensity_high)

    def intensity(self, t: float) -> float:
        half = 0.5 * self.period
        t_cyc = math.fmod(t, self.period)
        if t_cyc < 0.0:
            t_cyc += self.period
        frac = t_cyc / half if t_cyc < half else (self.period - t_cyc) / half
        return self.low + (self.high - self.low) * frac


__all__ = [
    "DiurnalSolarModel",
    "EnvironmentModel",
    "KineticBurstModel",
    "ThermalGradientModel",
]
