"""Configuration-aware V_safe composition and per-task bank selection.

The paper's §V-B: devices with reconfigurable energy buffers tag every
profile and V_safe entry with a buffer-configuration identifier, and
queries must name the configuration they ask about. This module is the
scheduler half of that story; the electrical half lives in
:mod:`repro.power.reconfigurable`. Banks switch between tasks: the
scheduler calls ``configure()`` before it answers a task's launch gate.

Composition rules (DESIGN §16): the launch gate for task *T* in bank
configuration *c* is

    gate(c, T) = min(V_high, V_safe[c][T] + P_switch + P_redist)

where ``V_safe[c][T]`` comes from a per-configuration table (the group
ESR — including the switch fabric's series resistance — is already inside
it, because the estimator characterized the plant *in* configuration
*c*), and the two penalties guard the transition into *c*:

* ``P_switch = I_peak · R_switch`` — worst-case extra IR drop through a
  just-closed switch carrying the task's peak converter-input draw.
* ``P_redist = ΔV_window · C_in / (C_on + C_in)`` — the worst-case sag
  of the rail when banks parked anywhere inside the operating window
  merge into the active group (charge-weighted mean; the incoming charge
  deficit is bounded by the window height).

Both penalties are monotone in their inputs and zero when nothing
switches, so a gate composed this way is never below the plain
per-config V_safe — the soundness argument is: V_safe[c][T] certifies
the task from a *rested* buffer in configuration *c*; the penalties
bound every voltage the transition can still take away before the task
starts; therefore charging to the composed gate before launching
restores the certified precondition.

Defensive default (also §V-B): a lookup against a configuration tag with
no valid entry — including a tag the hardware reports that does not
match what the scheduler just requested (stuck switch, corrupted tag
register) — answers ``V_high``, the most conservative possible gate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.model import TaskDemand, VsafeEstimate
from repro.core.tables import VsafeTable
from repro.sched.adaptive import decay_derate, raise_derate
from repro.sched.gating import program_gates

__all__ = [
    "AdaptiveBankScheduler",
    "build_config_gates",
    "compose_gate",
    "config_tag",
    "switch_penalty",
]


def config_tag(names: Iterable[str]) -> str:
    """Canonical configuration tag: sorted bank names joined by ``+``."""
    return "+".join(sorted(str(n) for n in names))


def switch_penalty(*, i_peak: float, switch_resistance: float,
                   config_capacitance: float,
                   incoming_capacitance: float,
                   v_window: float) -> float:
    """The transition guard band added on top of a per-config V_safe.

    See the module docstring for the two terms and the soundness
    argument. ``incoming_capacitance`` is the total capacitance of banks
    that join the active set in this switch (0 when the new configuration
    is a subset of the old — shrinking never sags the rail).
    """
    if i_peak < 0 or switch_resistance < 0:
        raise ValueError("peak current and switch resistance must be >= 0")
    if config_capacitance <= 0:
        raise ValueError("config capacitance must be positive")
    if incoming_capacitance < 0 or v_window < 0:
        raise ValueError("incoming capacitance and window must be >= 0")
    ir_kick = i_peak * switch_resistance
    redist_sag = (v_window * incoming_capacitance
                  / (config_capacitance + incoming_capacitance)
                  if incoming_capacitance > 0 else 0.0)
    return ir_kick + redist_sag


def compose_gate(v_safe: float, *, v_high: float, i_peak: float = 0.0,
                 switch_resistance: float = 0.0,
                 config_capacitance: float = 1.0,
                 incoming_capacitance: float = 0.0,
                 v_window: float = 0.0) -> float:
    """``min(V_high, v_safe + switch_penalty(...))`` — the composition
    rule of DESIGN §16 as one call."""
    penalty = switch_penalty(
        i_peak=i_peak, switch_resistance=switch_resistance,
        config_capacitance=config_capacitance,
        incoming_capacitance=incoming_capacitance, v_window=v_window,
    )
    return min(v_high, v_safe + penalty)


def build_config_gates(system, program, configs: Mapping[str, Tuple[str, ...]],
                       make_estimator) -> "Tuple[Dict[str, Dict[str, float]], Dict[str, List[str]]]":
    """Estimate per-task launch gates for every bank configuration.

    For each named configuration the plant is switched into it, rested at
    ``V_high``, re-characterized, and gated with a fresh estimator from
    ``make_estimator(system, model)`` — so every table row is derived
    from the configuration it is keyed by (the §V-B contract). Returns
    ``(gates, fallbacks)``: ``gates[config_name][task_name]`` and the
    per-config fallback task lists. The caller is responsible for
    restoring the configuration it wants to run from afterwards.
    """
    gates: Dict[str, Dict[str, float]] = {}
    fallbacks: Dict[str, List[str]] = {}
    for name in sorted(configs):
        system.buffer.configure(configs[name])
        system.rest_at(system.monitor.v_high)
        rest_all = getattr(system.buffer, "rest_all", None)
        if rest_all is not None:
            rest_all(system.monitor.v_high)
        model = system.characterize()
        estimator = make_estimator(system, model)
        gates[name], fallbacks[name] = program_gates(estimator, system,
                                                     program)
    return gates, fallbacks


class AdaptiveBankScheduler:
    """Per-task bank-configuration policy with derate-aware fallback.

    The policy the tentpole names: reactive (low-energy) tasks run on the
    ``reactive`` configuration (small bank — recharges quickly), heavy
    tasks on the ``heavy`` one (more stored energy, lower aggregate ESR).
    The scheduler is an executor gate (the same callable protocol as the
    chaos campaign's ``AdaptiveGate``): asked for a task's launch level
    it switches the live buffer into the chosen configuration, verifies
    the hardware-reported ``config_id`` matches what it requested, and
    returns the composed per-config gate.

    Resilience behaviour:

    * **Tag mismatch** — if the buffer reports a different configuration
      than requested (stuck switch, corrupted tag), the per-config table
      row is not trustworthy for the rail actually connected, so the
      answer is the §V-B default: ``V_high``.
    * **Derate-aware fallback** — a brown-out on a task raises its
      derate by the adaptive scheduler's backoff
      (:func:`~repro.sched.adaptive.raise_derate`); after
      ``fallback_backoffs`` brown-outs the task is pinned to the
      ``heavy`` configuration.

    Per-config V_safe entries live in a :class:`repro.core.tables.VsafeTable`
    keyed by the canonical configuration tag, so unknown tags fall back
    to ``V_high`` through the table's own defaulting — one code path for
    "never profiled" and "hardware lied about the tag".
    """

    def __init__(self, buffer, configs: Mapping[str, Tuple[str, ...]],
                 gates: Mapping[str, Mapping[str, float]],
                 task_energy: Mapping[str, float], *,
                 v_off: float, v_high: float,
                 energy_threshold: float,
                 task_peaks: Optional[Mapping[str, float]] = None,
                 reactive: str = "small", heavy: str = "large",
                 fallback_backoffs: int = 2) -> None:
        if reactive not in configs or heavy not in configs:
            raise ValueError(
                f"configs must define {reactive!r} and {heavy!r}; "
                f"got {sorted(configs)}")
        self.buffer = buffer
        self.configs = {name: tuple(sorted(banks))
                        for name, banks in configs.items()}
        self.v_off = v_off
        self.v_high = v_high
        self.energy_threshold = energy_threshold
        self.task_energy = dict(task_energy)
        self.task_peaks = dict(task_peaks or {})
        self.reactive = reactive
        self.heavy = heavy
        self.fallback_backoffs = fallback_backoffs
        # Per-config V_safe rows in the §V-B table, keyed by canonical
        # configuration tag; unknown (task, tag) pairs answer V_high
        # through the table's own defaulting.
        self.table = VsafeTable(v_high=v_high)
        for name, rows in gates.items():
            tag = config_tag(self.configs[name])
            for task_name, v_safe in rows.items():
                self.table.store(
                    task_name,
                    VsafeEstimate(v_safe=float(v_safe), v_delta=0.0,
                                  demand=TaskDemand(energy_v2=0.0,
                                                    v_delta=0.0),
                                  method=f"per-config gate [{tag}]"),
                    buffer_config=tag,
                )
        self.derate: Dict[str, float] = {}
        self.brownouts: Dict[str, int] = {}
        self.pinned: Dict[str, str] = {}
        self.backoffs = 0
        self.tag_mismatches = 0
        self.switches = 0

    # -- policy ----------------------------------------------------------

    def _config_capacitance(self, name: str) -> float:
        return sum(self.buffer.bank(b).capacitance
                   for b in self.configs[name])

    def config_for(self, task_name: str) -> str:
        """Which configuration this task should run on.

        Energy-based preference (reactive tasks on the small bank, heavy
        ones on the large), then feasibility-aware escalation: a
        configuration whose per-config V_safe row sits at or above
        ``V_high`` cannot certify the task even from a full buffer (an
        aged part, a profiling fallback), so bigger configurations are
        tried in decreasing capacitance order before giving up on the
        largest one.
        """
        pinned = self.pinned.get(task_name)
        if pinned is not None:
            return pinned
        energy = self.task_energy.get(task_name)
        preferred = (self.heavy  # unknown tasks get the safe, big bank
                     if energy is None or energy >= self.energy_threshold
                     else self.reactive)
        order = [preferred] + sorted(
            (name for name in self.configs if name != preferred),
            key=self._config_capacitance, reverse=True)
        for name in order:
            row = self._lookup(task_name, config_tag(self.configs[name]))
            if row < self.v_high:
                return name
        return max(self.configs, key=self._config_capacitance)

    def _lookup(self, task_name: str, tag: str) -> float:
        """Per-config V_safe with the §V-B default for unknown rows."""
        return self.table.get_vsafe(task_name, buffer_config=tag)

    def __call__(self, task) -> float:
        name = task.name
        choice = self.config_for(name)
        target = self.configs[choice]
        previous = frozenset(self.buffer.config_id)
        incoming_c = 0.0
        if previous != frozenset(target):
            incoming = set(target) - previous
            incoming_c = sum(self.buffer.bank(b).capacitance
                             for b in sorted(incoming))
            self.buffer.configure(target)
            self.switches += 1
        reported = frozenset(self.buffer.config_id)
        if reported != frozenset(target):
            # The hardware is not in the configuration the table row
            # describes — stuck switch or corrupted tag. §V-B default.
            self.tag_mismatches += 1
            return self.v_high
        v_safe = self._lookup(name, config_tag(target))
        gate = compose_gate(
            v_safe, v_high=self.v_high,
            i_peak=self.task_peaks.get(name, 0.0),
            switch_resistance=getattr(self.buffer, "switch_resistance", 0.0),
            config_capacitance=self.buffer.total_capacitance,
            incoming_capacitance=incoming_c,
            v_window=self.v_high - self.v_off,
        )
        return min(self.v_high, gate + self.derate.get(name, 0.0))

    # -- executor feedback (AdaptiveGate protocol) -----------------------

    def on_brownout(self, task) -> None:
        name = task.name
        self.derate[name] = raise_derate(self.derate.get(name, 0.0))
        self.backoffs += 1
        count = self.brownouts.get(name, 0) + 1
        self.brownouts[name] = count
        if count >= self.fallback_backoffs:
            self.pinned[name] = self.heavy  # derate-aware fallback

    def on_success(self, task) -> None:
        name = task.name
        derate = decay_derate(self.derate.get(name, 0.0))
        if derate:
            self.derate[name] = derate
        else:
            self.derate.pop(name, None)
