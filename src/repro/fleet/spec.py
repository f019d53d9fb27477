"""Fleet specifications: a base plant expanded into N jittered devices.

A :class:`FleetSpec` is the serializable recipe for a whole deployment:
one Capybara-class base configuration (the same parameter set
:func:`repro.power.system.capybara_power_system` takes) plus per-device
jitter half-widths modelling manufacturing spread and site-to-site
harvest variation. :meth:`FleetSpec.parameters` expands the recipe into
:class:`FleetParams` — flat numpy arrays, one slot per device — drawing
every jittered quantity from a single seeded stream, so the expansion is
a pure function of the spec and the same device index always gets the
same physical part regardless of how the batch is later sharded.

``FleetParams.device_system(i)`` rebuilds device ``i`` as an ordinary
scalar :class:`~repro.power.system.PowerSystem` **from the same float
values the arrays hold** — no re-derivation, no rounding differences —
which is what makes fleet-versus-scalar differential checks meaningful.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from repro.power.booster import (
    CurvedEfficiency,
    InputBooster,
    LinearEfficiency,
    OutputBooster,
)
from repro.env.correlate import base_grid, fleet_columns
from repro.env.spec import EnvSpec
from repro.power.bank import CapacitorBank
from repro.power.capacitor import TwoBranchSupercap
from repro.power.reconfigurable import ReconfigurableBuffer
from repro.power.harvester import (
    ConstantPowerHarvester,
    SolarHarvester,
    TraceHarvester,
)
from repro.power.monitor import VoltageMonitor
from repro.power.system import PowerSystem, capybara_power_system

#: Spec-expansion RNG stream id, mixed with the fleet seed. Distinct from
#: the per-trial streams ``trial_rng`` derives so a fleet and a verify run
#: sharing a seed never consume the same random numbers.
_SPEC_STREAM = 0xF1EE7

#: Bank-axis RNG stream id: per-device configuration assignment draws come
#: from their own stream, so enabling the bank axis never perturbs the
#: jitter draws of an existing seeded fleet.
_FLEET_BANK_STREAM = 0xBA7F


@dataclass(frozen=True)
class FleetBankSpec:
    """Reconfigurable-bank axis of a fleet (serializable).

    ``banks`` are the physical banks every device carries, as
    ``(name, capacitance, esr, leakage_current)`` rows; ``configs`` the
    candidate active sets devices power up in. Expansion assigns each
    device one configuration (seeded, from the dedicated bank stream) and
    derives its electrical group exactly the way
    :class:`repro.power.reconfigurable.ReconfigurableBuffer` does — same
    formulas, same sorted-bank float order — so the scalar mirror of a
    fleet slot is the same buffer bit for bit.
    """

    banks: tuple
    configs: tuple
    switch_resistance: float = 0.05

    def __post_init__(self) -> None:
        banks = tuple((str(n), float(c), float(e), float(l))
                      for n, c, e, l in self.banks)
        if not banks:
            raise ValueError("a bank spec needs at least one bank")
        names = {n for n, *_ in banks}
        if len(names) != len(banks):
            raise ValueError("bank names must be unique")
        for name, cap, esr, leak in banks:
            if cap <= 0:
                raise ValueError(f"bank {name!r} capacitance must be > 0")
            if esr < 0 or leak < 0:
                raise ValueError(f"bank {name!r} esr/leakage must be >= 0")
        configs = tuple(tuple(sorted(str(b) for b in config))
                        for config in self.configs)
        if not configs:
            raise ValueError("a bank spec needs at least one configuration")
        for config in configs:
            if not config:
                raise ValueError("a configuration needs at least one bank")
            unknown = set(config) - names
            if unknown:
                raise ValueError(f"unknown banks in config: {sorted(unknown)}")
        if self.switch_resistance < 0:
            raise ValueError("switch_resistance must be >= 0")
        object.__setattr__(self, "banks", banks)
        object.__setattr__(self, "configs", configs)

    @property
    def bank_names(self) -> tuple:
        """All bank names, sorted — the canonical array column order."""
        return tuple(sorted(n for n, *_ in self.banks))

    def to_dict(self) -> dict:
        return {
            "banks": [list(row) for row in self.banks],
            "configs": [list(c) for c in self.configs],
            "switch_resistance": self.switch_resistance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetBankSpec":
        return cls(
            banks=tuple(tuple(row) for row in data["banks"]),
            configs=tuple(tuple(c) for c in data["configs"]),
            switch_resistance=float(data.get("switch_resistance", 0.05)),
        )

    @classmethod
    def capybara(cls, datasheet_capacitance: float = 45e-3,
                 dc_esr: float = 4.0) -> "FleetBankSpec":
        """The default two-bank split (the chaos campaign's recipe): a
        small fast-recharging bank at a quarter of the datasheet
        capacitance and a large reserve at three quarters, both built
        from the same dense supercap parts."""
        from repro.power.reconfigurable import capybara_bank_set

        banks = capybara_bank_set(small=0.25 * datasheet_capacitance,
                                  large=0.75 * datasheet_capacitance,
                                  part_esr=4.0 * dc_esr)
        rows = tuple(sorted(
            (name, bank.capacitance, bank.esr, bank.leakage_current)
            for name, bank in banks.items()))
        return cls(banks=rows,
                   configs=(("small",), ("large",), ("large", "small")))


def bank_group_params(bank_caps: np.ndarray, bank_esrs: np.ndarray,
                      bank_leaks: np.ndarray, members: "list",
                      switch_resistance: float,
                      redist_fraction: float) -> dict:
    """Elementwise mirror of ``ReconfigurableBuffer._build_group``.

    ``bank_caps``/``bank_esrs`` are ``(n, B)`` per-device arrays in
    sorted-bank-name column order, ``bank_leaks`` the shared ``(B,)``
    leakage column, ``members`` the column indices of the active set *in
    sorted name order*. Accumulation happens column by column in that
    order — the same left-to-right float summation the scalar buffer
    performs — so a fleet slot and its scalar mirror
    (:meth:`FleetParams.device_buffer`) agree bit for bit.
    """
    n = bank_caps.shape[0]
    capacitance = np.zeros(n)
    conductance = np.zeros(n)
    leakage = np.zeros(n)
    for j in members:
        capacitance = capacitance + bank_caps[:, j]
        esr_col = bank_esrs[:, j]
        conductance = conductance + np.where(esr_col > 0,
                                             1.0 / esr_col, 0.0)
        leakage = leakage + bank_leaks[j]
    esr = np.where(conductance > 0, 1.0 / conductance, 1e-3)
    esr = esr + switch_resistance
    c_redist = capacitance * redist_fraction
    return {
        "c_main": capacitance - c_redist,
        "r_esr": esr,
        "c_redist": c_redist,
        "r_redist": esr * 5.0,
        "leakage": leakage,
    }


@dataclass(frozen=True)
class FleetSpec:
    """A deployment recipe: base plant + per-device jitter (serializable).

    Relative jitters are half-widths of uniform factors: with
    ``esr_jitter=0.10`` every device's ESR is ``dc_esr * U(0.9, 1.1)``.
    ``harvest_period > 0`` switches all devices from constant-power
    harvesting to a clipped-sinusoid (solar-style) profile with a
    per-device phase drawn uniformly over the full cycle.
    """

    devices: int
    seed: int = 0
    # -- base plant (capybara_power_system defaults) ----------------------
    datasheet_capacitance: float = 45e-3
    capacitance_tolerance: float = 0.06
    dc_esr: float = 4.0
    c_decoupling: float = 100e-6
    leakage_current: float = 20e-9
    v_high: float = 2.56
    v_off: float = 1.6
    v_out: float = 2.55
    redist_fraction: float = 0.10
    input_efficiency: float = 0.80
    harvest_power: float = 4e-3
    harvest_period: float = 0.0
    # -- per-device jitter half-widths ------------------------------------
    esr_jitter: float = 0.10
    capacitance_jitter: float = 0.05
    harvest_jitter: float = 0.25
    eta_jitter: float = 0.02
    # -- recorded/parametric environment (overrides harvest_power/period) --
    env: Optional[EnvSpec] = None
    # -- reconfigurable-bank axis (replaces the fixed supercap) -----------
    bank: Optional[FleetBankSpec] = None

    def __post_init__(self) -> None:
        if self.env is not None and self.harvest_period > 0:
            raise ValueError(
                "env and harvest_period are mutually exclusive — the "
                "environment engine replaces the built-in solar profile")
        if self.devices < 0:
            raise ValueError(f"devices must be >= 0, got {self.devices}")
        for name in ("harvest_power", "harvest_period"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= 0, got {value}")
        if not 0 <= self.redist_fraction < 1:
            raise ValueError(
                f"redist_fraction must be in [0, 1), "
                f"got {self.redist_fraction}")
        for name in ("esr_jitter", "capacitance_jitter", "harvest_jitter",
                     "eta_jitter"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be in [0, 1), got {value}")

    @property
    def homogeneous(self) -> bool:
        """True when every device is an exact copy of the base plant."""
        return (self.esr_jitter == 0 and self.capacitance_jitter == 0
                and self.harvest_jitter == 0 and self.eta_jitter == 0
                and self.harvest_period == 0 and self.env is None
                # Per-device configuration assignment makes devices
                # electrically distinct even with every jitter zeroed.
                and self.bank is None)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["format"] = "repro.fleet-spec"
        data["version"] = 1
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        if data.get("format", "repro.fleet-spec") != "repro.fleet-spec":
            raise ValueError(f"not a fleet spec: {data.get('format')!r}")
        fields = {k: v for k, v in data.items()
                  if k not in ("format", "version")}
        if fields.get("env") is not None:
            fields["env"] = EnvSpec.from_dict(fields["env"])
        if fields.get("bank") is not None:
            fields["bank"] = FleetBankSpec.from_dict(fields["bank"])
        return cls(**fields)

    def base_system(self) -> PowerSystem:
        """The un-jittered base plant (what the shared firmware is gated
        against), rested at V_high."""
        if self.env is not None:
            # The un-shifted, un-jittered environment on the fleet's
            # shared grid — the same floats device columns derive from.
            edges, base = base_grid(self.env)
            harvester: object = TraceHarvester(edges, base)
        elif self.harvest_period <= 0:
            harvester = ConstantPowerHarvester(self.harvest_power)
        else:
            harvester = SolarHarvester(peak=self.harvest_power,
                                       period=self.harvest_period)
        system = capybara_power_system(
            datasheet_capacitance=self.datasheet_capacitance,
            capacitance_tolerance=self.capacitance_tolerance,
            dc_esr=self.dc_esr,
            c_decoupling=self.c_decoupling,
            leakage_current=self.leakage_current,
            v_high=self.v_high,
            v_off=self.v_off,
            v_out=self.v_out,
            harvester=harvester,
            redist_fraction=self.redist_fraction,
        )
        system.rest_at(self.v_high)
        return system

    def _nominal_banks(self) -> dict:
        """Un-jittered :class:`CapacitorBank` set (datasheet values with
        the fleet's capacitance tolerance applied, like the fixed plant)."""
        tol = 1.0 + self.capacitance_tolerance
        return {
            name: CapacitorBank(
                capacitance=cap * tol, esr=esr, leakage_current=leak,
                volume_mm3=0.0, part_count=1, max_voltage=self.v_high,
            )
            for name, cap, esr, leak in self.bank.banks
        }

    def bank_system(self, config) -> PowerSystem:
        """The un-jittered base plant in one bank configuration.

        This is what the shared firmware's per-configuration gate table
        is derived from (§V-B: every table row keyed by the configuration
        it was measured in). The design-time capacitance knowledge is the
        sum of the *nominal* bank values in the active set — stale versus
        the tolerance-inflated plant, exactly like the fixed fleet's
        datasheet field.
        """
        if self.bank is None:
            raise ValueError("bank_system requires a bank axis on the spec")
        system = self.base_system()
        buffer = ReconfigurableBuffer(
            self._nominal_banks(), tuple(config),
            switch_resistance=self.bank.switch_resistance,
            redist_fraction=self.redist_fraction,
            c_decoupling=self.c_decoupling,
        )
        system.buffer = buffer
        active = set(config)
        system.datasheet_capacitance = sum(
            cap for name, cap, *_ in self.bank.banks if name in active)
        system.rest_at(self.v_high)
        buffer.rest_all(self.v_high)
        return system

    def parameters(self) -> "FleetParams":
        """Expand into per-device parameter arrays (seeded, deterministic).

        All four jitter streams are drawn in a fixed order for the whole
        fleet at once, so zeroing one jitter never reshuffles another and
        a shard ``[a:b]`` of a large fleet holds exactly the devices the
        full expansion would give those indices.
        """
        n = self.devices
        rng = np.random.default_rng((self.seed, _SPEC_STREAM))
        esr_f = 1.0 + self.esr_jitter * rng.uniform(-1.0, 1.0, n)
        cap_f = 1.0 + self.capacitance_jitter * rng.uniform(-1.0, 1.0, n)
        harv_f = 1.0 + self.harvest_jitter * rng.uniform(-1.0, 1.0, n)
        eta_f = 1.0 + self.eta_jitter * rng.uniform(-1.0, 1.0, n)
        phase = rng.uniform(0.0, 2.0 * math.pi, n)

        # Elementwise mirror of capybara_power_system's derivations.
        true_c = self.datasheet_capacitance * cap_f \
            * (1.0 + self.capacitance_tolerance)
        c_redist = true_c * self.redist_fraction
        c_main = true_c - c_redist - self.c_decoupling
        if n and c_main.min() <= 0:
            raise ValueError(
                "decoupling + redistribution exceed total capacitance for "
                "at least one device — lower capacitance_jitter or "
                "c_decoupling")
        r_esr = self.dc_esr * esr_f
        eta_defaults = CurvedEfficiency()
        harvest_edges = harvest_powers = None
        if self.env is not None:
            # Correlated environment: shared grid, per-device columns,
            # each scaled by the device's harvest jitter factor (site
            # shading). Regenerated identically in every shard worker —
            # the columns never travel between processes.
            harvest_edges, columns = fleet_columns(self.env, n)
            harvest_powers = columns * harv_f[:, None]

        config_idx = bank_caps = bank_esrs = bank_leaks = None
        r_redist = r_esr * 5.0
        leakage = np.full(n, self.leakage_current)
        if self.bank is not None:
            # Bank axis: per-device configuration assignment from the
            # dedicated bank stream (the jitter draws above are
            # untouched), then the assigned configuration's electrical
            # group derived elementwise exactly as the scalar
            # ReconfigurableBuffer derives it. Column order is sorted
            # bank names; the same cap/ESR jitter factors apply to every
            # bank of a device (one production lot per device).
            bank_rng = np.random.default_rng((self.seed, _FLEET_BANK_STREAM))
            configs = self.bank.configs
            config_idx = bank_rng.integers(0, len(configs), n)
            names = self.bank.bank_names
            by_name = {row[0]: row for row in self.bank.banks}
            tol = 1.0 + self.capacitance_tolerance
            bank_caps = np.stack(
                [by_name[name][1] * cap_f * tol for name in names], axis=1)
            bank_esrs = np.stack(
                [by_name[name][2] * esr_f for name in names], axis=1)
            bank_leaks = np.array([by_name[name][3] for name in names])
            col = {name: j for j, name in enumerate(names)}
            rows = np.arange(n)
            per_config = [
                bank_group_params(
                    bank_caps, bank_esrs, bank_leaks,
                    [col[b] for b in config],  # already sorted
                    self.bank.switch_resistance, self.redist_fraction)
                for config in configs
            ]

            def _pick(key: str) -> np.ndarray:
                stacked = np.stack([p[key] for p in per_config])
                return stacked[config_idx, rows]

            c_main = _pick("c_main")
            r_esr = _pick("r_esr")
            c_redist = _pick("c_redist")
            r_redist = _pick("r_redist")
            leakage = _pick("leakage")
        return FleetParams(
            spec=self,
            c_main=c_main,
            r_esr=r_esr,
            c_redist=c_redist,
            r_redist=r_redist,
            c_decoupling=np.full(n, self.c_decoupling),
            leakage=leakage,
            eta_base=eta_defaults.base * eta_f,
            p_harvest=self.harvest_power * harv_f,
            phase=(phase if self.harvest_period > 0 else np.zeros(n)),
            harvest_edges=harvest_edges,
            harvest_powers=harvest_powers,
            config_idx=config_idx,
            bank_caps=bank_caps,
            bank_esrs=bank_esrs,
            bank_leaks=bank_leaks,
        )


@dataclass(frozen=True)
class FleetParams:
    """Per-device physical parameters as flat arrays (one slot/device).

    Scalar knobs that the jitter model never varies (booster curve shape,
    monitor rails, converter limits) stay on :attr:`spec`; the kernel
    hoists them once per batch exactly like the scalar fastpath does.
    """

    spec: FleetSpec
    c_main: np.ndarray
    r_esr: np.ndarray
    c_redist: np.ndarray
    r_redist: np.ndarray
    c_decoupling: np.ndarray
    leakage: np.ndarray
    eta_base: np.ndarray
    p_harvest: np.ndarray
    phase: np.ndarray
    # Environment replay (spec.env only): shared piece edges and one power
    # column per device.
    harvest_edges: Optional[np.ndarray] = None
    harvest_powers: Optional[np.ndarray] = None
    # Bank axis (spec.bank only): per-device configuration index into
    # ``spec.bank.configs``, per-device per-bank electricals in sorted
    # bank-name column order, and the shared per-bank leakage column.
    config_idx: Optional[np.ndarray] = None
    bank_caps: Optional[np.ndarray] = None
    bank_esrs: Optional[np.ndarray] = None
    bank_leaks: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return int(self.c_main.shape[0])

    def slice(self, start: int, stop: int) -> "FleetParams":
        """Devices ``[start, stop)`` as a smaller parameter block.

        Shards of a deterministic expansion: ``spec.parameters().slice(a,
        b)`` holds exactly the devices the full expansion gives indices
        ``a..b-1``, which is what makes process-sharded fleet runs
        byte-identical to serial ones.
        """
        return FleetParams(
            spec=self.spec,
            c_main=self.c_main[start:stop],
            r_esr=self.r_esr[start:stop],
            c_redist=self.c_redist[start:stop],
            r_redist=self.r_redist[start:stop],
            c_decoupling=self.c_decoupling[start:stop],
            leakage=self.leakage[start:stop],
            eta_base=self.eta_base[start:stop],
            p_harvest=self.p_harvest[start:stop],
            phase=self.phase[start:stop],
            harvest_edges=self.harvest_edges,
            harvest_powers=(None if self.harvest_powers is None
                            else self.harvest_powers[start:stop]),
            config_idx=(None if self.config_idx is None
                        else self.config_idx[start:stop]),
            bank_caps=(None if self.bank_caps is None
                       else self.bank_caps[start:stop]),
            bank_esrs=(None if self.bank_esrs is None
                       else self.bank_esrs[start:stop]),
            bank_leaks=self.bank_leaks,
        )

    def device_harvester(self, i: int):
        spec = self.spec
        if self.harvest_edges is not None:
            # The device's environment column, verbatim — the scalar
            # plant replays the same floats the fleet kernels hold.
            return TraceHarvester(self.harvest_edges,
                                  self.harvest_powers[i])
        if spec.harvest_period > 0:
            return SolarHarvester(peak=float(self.p_harvest[i]),
                                  period=spec.harvest_period,
                                  phase=float(self.phase[i]))
        return ConstantPowerHarvester(float(self.p_harvest[i]))

    def device_system(self, i: int,
                      rest_at: Optional[float] = None) -> PowerSystem:
        """Device ``i`` as a scalar :class:`PowerSystem`.

        Built directly from the array entries (not re-derived from the
        spec), so the scalar plant and the fleet slot are the same floats
        bit-for-bit. Rested at ``rest_at`` (default V_high).
        """
        spec = self.spec
        if spec.bank is not None:
            buffer: object = self.device_buffer(i)
        else:
            buffer = TwoBranchSupercap(
                c_main=float(self.c_main[i]),
                r_esr=float(self.r_esr[i]),
                c_redist=float(self.c_redist[i]),
                r_redist=float(self.r_redist[i]),
                c_decoupling=float(self.c_decoupling[i]),
                leakage_current=float(self.leakage[i]),
            )
        system = PowerSystem(
            buffer=buffer,
            output_booster=OutputBooster(
                v_out=spec.v_out,
                efficiency_model=CurvedEfficiency(
                    base=float(self.eta_base[i])),
                min_input_voltage=0.5,
                power_derating=0.6,
            ),
            input_booster=InputBooster(
                efficiency_model=LinearEfficiency(
                    slope=0.0, intercept=spec.input_efficiency),
                v_max=spec.v_high,
            ),
            monitor=VoltageMonitor(v_high=spec.v_high, v_off=spec.v_off),
            harvester=self.device_harvester(i),
            name=f"fleet-device-{i}",
            datasheet_capacitance=(None if spec.bank is not None
                                   else spec.datasheet_capacitance),
        )
        level = spec.v_high if rest_at is None else rest_at
        system.rest_at(level)
        if spec.bank is not None:
            # Idle banks rest at the same level the active group does
            # (the admission precondition), so a later configure()
            # merges against banks parked at the start level.
            buffer.rest_all(level)
        return system

    def device_buffer(self, i: int) -> ReconfigurableBuffer:
        """Device ``i``'s reconfigurable buffer, from the same jittered
        floats the group-parameter arrays were derived from — the scalar
        mirror of the fleet slot, bit for bit."""
        spec = self.spec
        names = spec.bank.bank_names
        banks = {
            name: CapacitorBank(
                capacitance=float(self.bank_caps[i, j]),
                esr=float(self.bank_esrs[i, j]),
                leakage_current=float(self.bank_leaks[j]),
                volume_mm3=0.0,
                part_count=1,
                max_voltage=spec.v_high,
            )
            for j, name in enumerate(names)
        }
        config = spec.bank.configs[int(self.config_idx[i])]
        return ReconfigurableBuffer(
            banks, config,
            switch_resistance=spec.bank.switch_resistance,
            redist_fraction=spec.redist_fraction,
            c_decoupling=spec.c_decoupling,
        )
