"""PV transducer IV model and the MPPT harvester front-ends.

An environment model says how bright the sky is; this module says how
many *watts* a harvester front-end pulls out of it. The transducer is a
single-diode-style PV curve

.. math::

    I(V, E) = I_{sc} \\cdot E \\cdot \\bigl(1 - (V / V_{oc}(E))^m\\bigr)

with short-circuit current proportional to intensity ``E`` and an
open-circuit voltage that sags weakly at low light
(``V_oc(E) = V_oc * E^{voc_exponent}``). The exponent ``m`` sets the
knee sharpness; power ``P = V I`` then has a single interior maximum —
the maximum power point the front-ends chase.

Three front-ends mirror the classic MPPT families:

* :class:`ConstantVoltageMPPT` — regulate the panel at a fixed setpoint
  (the paper's "2.2 V source behind a potentiometer" bench, made
  explicit);
* :class:`VocFractionMPPT` — the fractional-V_OC heuristic: hold
  ``fraction * V_oc(E)``, with the fraction pinned inside ``(0, 1)``;
* :class:`PerturbObserveMPPT` — stateful hill-climbing: perturb the
  setpoint, keep the direction while power improves, reverse otherwise.
  On a static IV curve it converges to within one perturbation step of
  the true maximum power point.

Front-ends return raw panel watts; converter losses stay downstream in
the simulated input booster, exactly like every other harvester model.
"""

from __future__ import annotations

import math
from typing import Optional

#: Fine scan used for the reference maximum power point (tests and
#: transducer scaling). 1024 points bounds the bracket to ~0.1% of V_oc.
_MPP_SCAN = 1024


class PVTransducer:
    """Static PV panel curve: intensity in, an IV characteristic out."""

    def __init__(self, v_oc: float = 2.2, i_sc: float = 5e-3,
                 knee: float = 8.0, voc_exponent: float = 0.06) -> None:
        if v_oc <= 0 or i_sc <= 0:
            raise ValueError(
                f"v_oc and i_sc must be positive, got {v_oc}, {i_sc}")
        if knee <= 1:
            raise ValueError(f"knee must exceed 1, got {knee}")
        if not 0 <= voc_exponent < 1:
            raise ValueError(
                f"voc_exponent must be in [0, 1), got {voc_exponent}")
        self.v_oc = float(v_oc)
        self.i_sc = float(i_sc)
        self.knee = float(knee)
        self.voc_exponent = float(voc_exponent)

    def v_open(self, intensity: float) -> float:
        """Open-circuit voltage at ``intensity`` (0 in the dark)."""
        if intensity <= 0.0:
            return 0.0
        return self.v_oc * intensity ** self.voc_exponent

    def current(self, v: float, intensity: float) -> float:
        """Panel current at terminal voltage ``v`` (clipped at zero)."""
        v_open = self.v_open(intensity)
        if intensity <= 0.0 or v_open <= 0.0 or v >= v_open:
            return 0.0
        ratio = max(v, 0.0) / v_open
        return self.i_sc * intensity * (1.0 - ratio ** self.knee)

    def power(self, v: float, intensity: float) -> float:
        """Panel power ``V * I(V)`` — non-negative by construction."""
        return max(v, 0.0) * self.current(v, intensity)

    def mpp(self, intensity: float) -> tuple:
        """Reference maximum power point ``(v_mpp, p_mpp)`` by fine scan."""
        v_open = self.v_open(intensity)
        if v_open <= 0.0:
            return 0.0, 0.0
        best_v, best_p = 0.0, 0.0
        for k in range(1, _MPP_SCAN):
            v = v_open * k / _MPP_SCAN
            p = self.power(v, intensity)
            if p > best_p:
                best_v, best_p = v, p
        return best_v, best_p

    @classmethod
    def scaled_to(cls, peak_power: float, v_oc: float = 2.2,
                  knee: float = 8.0,
                  voc_exponent: float = 0.06) -> "PVTransducer":
        """A transducer whose full-sun MPP delivers ``peak_power`` watts."""
        if peak_power < 0:
            raise ValueError(
                f"peak_power must be non-negative, got {peak_power}")
        probe = cls(v_oc=v_oc, i_sc=1.0, knee=knee,
                    voc_exponent=voc_exponent)
        _unused, p_unit = probe.mpp(1.0)
        i_sc = peak_power / p_unit if p_unit > 0 else 1e-12
        return cls(v_oc=v_oc, i_sc=max(i_sc, 1e-12), knee=knee,
                   voc_exponent=voc_exponent)


class ConstantVoltageMPPT:
    """Regulate the panel at a fixed voltage setpoint."""

    #: Stateless front-ends may be evaluated at arbitrary times in any
    #: order; the grid lowering samples them at piece midpoints, and a
    #: stateful one in order at piece starts.
    stateful = False

    def __init__(self, v_ref: float = 1.7) -> None:
        if v_ref <= 0:
            raise ValueError(f"v_ref must be positive, got {v_ref}")
        self.v_ref = float(v_ref)

    def reset(self) -> None:
        pass

    def setpoint(self, pv: PVTransducer, intensity: float) -> float:
        return min(self.v_ref, pv.v_open(intensity))

    def harvest_power(self, pv: PVTransducer, intensity: float) -> float:
        return pv.power(self.setpoint(pv, intensity), intensity)


class VocFractionMPPT:
    """Fractional open-circuit-voltage MPPT: hold ``fraction * V_oc(E)``."""

    stateful = False

    def __init__(self, fraction: float = 0.76) -> None:
        if not 0.0 < fraction < 1.0:
            raise ValueError(
                f"fraction must be strictly inside (0, 1), got {fraction}")
        self.fraction = float(fraction)

    def reset(self) -> None:
        pass

    def setpoint(self, pv: PVTransducer, intensity: float) -> float:
        return self.fraction * pv.v_open(intensity)

    def harvest_power(self, pv: PVTransducer, intensity: float) -> float:
        return pv.power(self.setpoint(pv, intensity), intensity)


class PerturbObserveMPPT:
    """Perturb-and-observe hill climbing on the panel power.

    Stateful: each :meth:`harvest_power` call is one tracker sample.
    The tracker measures power at its current setpoint, keeps the last
    perturbation direction if power improved and reverses it otherwise,
    then steps the setpoint by ``step`` volts (clamped inside
    ``[step, v_open]``). The grid lowering therefore evaluates this
    front-end *sequentially*, once per piece — never out of order.
    """

    stateful = True

    def __init__(self, step: float = 0.05,
                 v_start: Optional[float] = None) -> None:
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        self.step = float(step)
        self.v_start = v_start
        self.reset()

    def reset(self) -> None:
        self._v: Optional[float] = (
            float(self.v_start) if self.v_start is not None else None)
        self._p_last = -math.inf
        self._dir = 1.0

    def setpoint(self, pv: PVTransducer, intensity: float) -> float:
        """Current operating point (does not advance the tracker)."""
        v_open = pv.v_open(intensity)
        if self._v is None:
            return 0.5 * v_open
        return min(max(self._v, self.step), v_open) if v_open > 0 else 0.0

    def harvest_power(self, pv: PVTransducer, intensity: float) -> float:
        v_open = pv.v_open(intensity)
        if self._v is None:
            self._v = 0.5 * v_open if v_open > 0 else self.step
        v = min(max(self._v, self.step), v_open) if v_open > 0 else self._v
        p = pv.power(v, intensity)
        if p < self._p_last:
            self._dir = -self._dir
        self._p_last = p
        v_next = v + self._dir * self.step
        if v_open > 0:
            v_next = min(max(v_next, self.step), v_open)
        self._v = v_next
        return p


__all__ = [
    "ConstantVoltageMPPT",
    "PVTransducer",
    "PerturbObserveMPPT",
    "VocFractionMPPT",
]
