"""Compiled stepping kernel: the production path of every simulation.

The reference loop in :mod:`repro.sim.engine` pays for its generality:
every sub-step makes ~15 method calls (terminal-voltage property, booster
current, harvester, monitor, buffer step, observer scheduling) and dozens
of attribute lookups through small objects. For stock component types
none of that dynamism is needed, and this module replays the *identical*
arithmetic in one C function (``_kernel.c``), with every component
inlined.

Identical means identical: the C body performs the same IEEE operations
in the same order as the reference loop, so its results are bit-for-bit
equal, not merely close. It is built with ``-O2 -ffp-contract=off`` (no
fused multiply-add, never ``-ffast-math``), calls the libm ``exp`` that
``math.exp`` calls, writes every zero clamp ``!(x > 0.0)`` (the float
``max(0.0, x)`` returns, NaN included) and every ``min`` as the
reference's comparison chain, and reports a zero divisor or an
overflowing ``exp`` so that this module raises the ``ZeroDivisionError``
or ``OverflowError`` the reference would (and the ``ValueError`` of a
negative harvest power). That is what lets
``PowerSystemSimulator(fast=True)`` be the default. Configurations the
kernel does not recognize (custom buffer/booster/monitor subclasses, or
an efficiency model other than the two stock curves) run the reference
loop.

This module drives the C body. Per call it packs the plant's fields
and the live state into one struct (the C body derives the buffer's
constants from them). A load trace's segments are iterated here, in
Python; a wait (:class:`Wait`) is one rule that the C body runs
itself, drawing each hop, running the rule's load (a scheduler's
background slice, whose trace arrays it reads in place) whenever the
voltage allows, and checking after each whether to stop. So a
scheduler's whole stretch between events, idle hops and background
slices alike, is one C entry.
The C body returns to Python at a segment end, a brown-out, the end of
a wait, a due observer sample, a full sample chunk, at the start of a
step that needs a value only Python can compute, or at the start of an
observed wait's hop or load segment, and is then re-entered:

* Attached observers (ADC samplers, trace recorders, fault injectors)
  are scheduled exactly as the reference schedules them: samples already
  due when a segment starts are delivered before its first step, each
  step is clamped to the next due time, and at a due step Python
  writes the state back and calls the engine's own ``_notify``, then
  hands the kernel what an observer may change (the monitor's enable
  state, the next due time, the burden).
* A lone stock :class:`~repro.sim.uarch.CulpeoUArchBlock`, whose 100 kHz
  clock makes nearly every step a due step, skips ``_notify``: the block
  only converts and keeps a min/max, changes neither the monitor nor its
  burden while it samples, and schedules its next sample one clock period
  on. So the kernel buffers each due terminal voltage, advances the due
  time by that period itself, and Python hands the buffer to
  :meth:`~repro.sim.uarch.CulpeoUArchBlock.on_samples` when it fills
  (``_SAMPLE_CHUNK``), at each segment end and before returning, which
  leaves the block exactly as per-sample delivery would.
* The two stock efficiency curves
  (:class:`~repro.power.booster.LinearEfficiency`,
  :class:`~repro.power.booster.CurvedEfficiency`) and the constant,
  solar and trace harvesters
  (:class:`~repro.power.harvester.ConstantPowerHarvester`,
  :class:`~repro.power.harvester.SolarHarvester`,
  :class:`~repro.power.harvester.TraceHarvester`) are evaluated in C.
  Any other harvester's ``power_at`` is called from Python at the start
  of each step that needs it, in the reference's order.
* An unobserved wait on such a plant is one C entry, however many hops
  and loads it takes. An observed wait returns at the start of every
  hop and load segment, so Python refreshes the observers there as a
  segment's start does.

Python writes ``sim.time``, the buffer state and the monitor's enable
state back at due steps, where observers read them, and once at the
end of the call.

A fleet steps its devices through the same body: :func:`lanes` holds one
kernel state per device, and :func:`advance_lanes` runs a segment on
all of them in one C call (:mod:`repro.fleet.kernel` packs and reads
them).

ESR characterization (:mod:`repro.power.esr_profile`) pulses a bare
buffer: :func:`pulse` is ``EnergyBuffer.pulse`` as one C call, whose
steps run through the buffer step the simulator's loop takes, so the C
file holds one buffer body.

The library is built on first use with the system C compiler and cached
in ``__pycache__`` next to this file, under a digest of the source, the
compile command and the platform; it is published with an atomic rename,
so concurrent workers are safe. Without a compiler, or if the build
fails, ``fast=True`` runs the reference loop and warns once.
"""

from __future__ import annotations

import ctypes
import errno
import hashlib
import math
import os
import platform
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.loads.trace import CurrentTrace
from repro.obs import current as _obs_current
from repro.power.booster import (
    CurvedEfficiency,
    InputBooster,
    LinearEfficiency,
    OutputBooster,
)
from repro.power.capacitor import TwoBranchSupercap
from repro.power.harvester import (
    ConstantPowerHarvester,
    NullHarvester,
    SolarHarvester,
    TraceHarvester,
)
from repro.power.monitor import VoltageMonitor
from repro.power.reconfigurable import (
    ReconfigurableBuffer,
    RedistLossBuffer,
    StaleTagBuffer,
    StuckSwitchBuffer,
)
from repro.sim.uarch import CulpeoUArchBlock

#: Samples the chunked µArch path buffers before it calls
#: ``on_samples``: bounds the buffer on long runs.
_SAMPLE_CHUNK = 1024

# Return codes of repro_advance and repro_wait (_kernel.c).
_END, _BROWN, _DUE, _CHUNK, _NEED, _HOP = 0, 1, 2, 3, 4, 5
_STALL, _RISE, _UNTIL, _OFF = 6, 7, 8, 9
_ZERODIV, _OVERFLOW, _NEGATIVE_POWER, _DOMAIN = -1, -2, -3, -4

#: How a wait ended: the check that stopped it (see :class:`Wait`).
STALL, RISE, UNTIL, OFF, BROWN = "stall", "rise", "until", "off", "brown"
_EXITS = {_STALL: STALL, _RISE: RISE, _UNTIL: UNTIL, _OFF: OFF}

#: The efficiency models the kernel evaluates inline.
_STOCK_EFFICIENCY = (LinearEfficiency, CurvedEfficiency)

#: Bank-fault proxies: they change how the banks they wrap are configured
#: and tagged, never how the active group steps.
_BANK_FAULTS = (StuckSwitchBuffer, RedistLossBuffer, StaleTagBuffer)


def _fields(ctype, names: str) -> list:
    return [(name, ctype) for name in names.split()]


# The three sections of ``struct kstate``, in declaration order.
_PLANT_FIELDS = _fields(ctypes.c_double, """
    v_out min_vin derating out_a out_b out_c out_ref out_floor out_ceiling
    v_max_in in_a in_b in_c in_ref in_floor in_ceiling v_off v_high
    p_h_const h_period h_phase leak c_main r_esr c_red r_red c_dec
    """) + _fields(ctypes.c_int, "out_kind in_kind")
_CALL_FIELDS = _fields(ctypes.c_void_p, "h_edges h_powers volts") + _fields(
    ctypes.c_double, """
    min_dt max_idle_dt idle_dv load_dv period stop_level
    v_main v_red v_term time_abs v_min energy""") + _fields(
    ctypes.c_int, "harvest_mode stopping observed chunked chunk hp_last "
                  "enabled") + _fields(
    ctypes.c_void_p, "w_currents w_durations") + _fields(
    ctypes.c_double, "w_hop w_until w_floor w_rise w_load_time") + _fields(
    ctypes.c_int, "w_stall w_has_floor w_has_rise w_stop_off w_n_load")
_STEP_FIELDS = _fields(ctypes.c_double, """
    i_out duration burden next_due start elapsed transient_window dv_budget
    total_out p_out step_cap t_last v_new arg x_power w_before w_load_start
    """) + _fields(ctypes.c_longlong, "steps") + _fields(ctypes.c_int, """
    has_due out_on drawing hp_idx n_volts begin pending have
    w_flat w_running w_spun w_loading w_seg""")


class _State(ctypes.Structure):
    """``struct kstate``: one kernel call's plant, live state and step."""

    _fields_ = _PLANT_FIELDS + _CALL_FIELDS + _STEP_FIELDS


#: The plant and call sections as one native-aligned record: a call
#: packs them in one go and zero-fills the rest (``_TAIL``).
_ENTRY = struct.Struct("@" + "".join(
    ctype._type_ for _, ctype in _PLANT_FIELDS + _CALL_FIELDS))
#: The call section's rule fields of a segment run (no wait).
_NO_RULE = (0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, -1, 0, 0, 0, 0)
_TAIL = bytes(ctypes.sizeof(_State) - _ENTRY.size)
#: ``struct kstate`` as a numpy record, for the fleet's lane arrays.
_LANE = np.dtype(_State)

_SOURCE = Path(__file__).with_name("_kernel.c")
#: Float rules of the bit-exact contract: no contraction, no fast-math.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: The kernel library once loaded, ``False`` once the build failed.
_kernel: Any = None


def _compile(compiler: str, cache: Path, name: str) -> Path:
    """Build the library into ``cache`` and publish it as ``name`` with an
    atomic rename, so a concurrent build never loads a partial file."""
    workdir = tempfile.mkdtemp(prefix=".build-", dir=cache)
    try:
        built = os.path.join(workdir, name)
        proc = subprocess.run(
            [compiler, *_CFLAGS, str(_SOURCE), "-o", built, "-lm"],
            capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            raise OSError(f"{compiler} exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-400:]}")
        os.replace(built, cache / name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return cache / name


def _build():
    """Load the cached library, building it first if needed."""
    compiler = (shutil.which("cc") or shutil.which("gcc")
                or shutil.which("clang"))
    if compiler is None:
        raise OSError("no C compiler (cc, gcc or clang) on PATH")
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update("\0".join((compiler, *_CFLAGS, sys.platform,
                              platform.machine())).encode())
    name = f"_kernel-{digest.hexdigest()[:16]}.so"
    cache = _SOURCE.parent / "__pycache__"
    path = cache / name
    private = None
    if not path.exists():
        try:
            cache.mkdir(exist_ok=True)
            path = _compile(compiler, cache, name)
        except OSError as exc:
            # a cache that cannot be written (EACCES, EPERM, or a
            # read-only file system): build privately for this process
            if not (isinstance(exc, PermissionError)
                    or exc.errno == errno.EROFS):
                raise
            private = tempfile.mkdtemp(prefix="repro-kernel-")
            path = _compile(compiler, Path(private), name)
    try:
        lib = ctypes.CDLL(str(path))
    finally:
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)
    lib.repro_kstate_size.argtypes = []
    lib.repro_kstate_size.restype = ctypes.c_size_t
    if lib.repro_kstate_size() != ctypes.sizeof(_State):
        raise OSError(f"{path.name}: struct kstate does not match _State")
    for entry in (lib.repro_advance, lib.repro_wait):
        entry.argtypes = [ctypes.POINTER(_State)]
        entry.restype = ctypes.c_int
    lib.repro_advance_lanes.argtypes = [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_double,
        ctypes.c_double, ctypes.c_void_p, ctypes.POINTER(ctypes.c_long)]
    lib.repro_advance_lanes.restype = ctypes.c_int
    lib.repro_pulse.argtypes = [
        ctypes.POINTER(ctypes.c_double), *[ctypes.c_double] * 8,
        ctypes.c_longlong, ctypes.POINTER(ctypes.c_double)]
    lib.repro_pulse.restype = ctypes.c_int
    return lib


def _load():
    """The compiled kernel library, or ``None`` if it cannot be built
    (warned once per process)."""
    global _kernel
    if _kernel is None:
        try:
            _kernel = _build()
        except (OSError, subprocess.SubprocessError) as exc:
            warnings.warn(f"compiled fastpath kernel unavailable ({exc}); "
                          "fast=True runs the reference loop",
                          RuntimeWarning, stacklevel=3)
            _kernel = False
    return _kernel or None


class Wait:
    """A wait: the one rule that draws its hops, runs its optional load
    and ends it.

    Each hop is ``min(hop, max(floor, until - time))``, or
    ``min(hop, until - time)`` without a floor; the first is drawn
    unconditionally. After each hop the wait ends on the first of these
    checks, in this order, and returns its name:

    * :data:`STALL`: the terminal voltage rose by at most 1e-9 V for more
      than ``stall`` hops in a row (never, if ``stall`` is ``None``);
    * :data:`RISE`: the terminal voltage is not below ``rise`` (never, if
      ``rise`` is ``None``, and never with a load);
    * :data:`UNTIL`: the time is ``until`` or later;
    * :data:`OFF`: the monitor is off (only with ``stop_off``).

    A ``load`` (a :class:`~repro.loads.trace.CurrentTrace`) runs in
    place of a hop whenever the terminal voltage is not below ``rise``,
    the first time included: a scheduler's background task, run between
    idle hops. It runs as
    :meth:`~repro.sim.engine.PowerSystemSimulator.run_trace` runs a
    task: its segments stop where the terminal voltage falls below the
    monitor's ``v_off``, and the wait then ends :data:`BROWN`. It also
    ends :data:`BROWN`, at once, if the monitor is off when a load would
    start, as ``run_trace`` fails a task started then. Each load's time,
    end minus start, is added to :attr:`load_time`, which the caller
    seeds. After a whole load the wait ends on :data:`UNTIL` or
    :data:`OFF` as after a hop.

    ``hop`` must be finite and positive, ``until`` and ``rise`` not NaN
    (an infinite ``until`` is a wait without a deadline), ``floor``
    finite and positive and ``stall`` a non-negative integer. A load
    needs a ``rise`` level and takes no ``stall`` count (its trace has
    already refused empty, negative and non-finite segments). Anything
    else raises ``ValueError``.

    :meth:`~repro.sim.engine.PowerSystemSimulator.wait` runs one. On the
    compiled kernel the C body draws and checks every hop and runs every
    load (``repro_wait`` in ``_kernel.c``); the reference loop runs the
    same rule with one ``_advance_reference`` call per hop or load
    segment. Both make the same hops, the same checks and the same
    floats.
    """

    __slots__ = ("hop", "until", "floor", "rise", "stall", "stop_off",
                 "load", "load_time")

    def __init__(self, hop: float, until: float, *,
                 floor: Optional[float] = None, rise: Optional[float] = None,
                 stall: Optional[int] = None, stop_off: bool = False,
                 load: Optional[CurrentTrace] = None,
                 load_time: float = 0.0) -> None:
        if not 0.0 < hop < math.inf:
            raise ValueError(f"hop must be finite and positive, got {hop}")
        if until != until:
            raise ValueError("until must not be NaN")
        if floor is not None and not 0.0 < floor < math.inf:
            raise ValueError(
                f"floor must be finite and positive, got {floor}")
        if rise is not None and rise != rise:
            raise ValueError("rise level must not be NaN")
        if stall is not None and not (isinstance(stall, int) and stall >= 0):
            raise ValueError(
                f"stall must be a non-negative integer, got {stall}")
        if load is not None:
            if rise is None:
                raise ValueError("a load needs a rise level")
            if stall is not None:
                raise ValueError("a load cannot have a stall count")
        self.hop = hop
        self.until = until
        self.floor = floor
        self.rise = rise
        self.stall = stall
        self.stop_off = stop_off
        self.load = load
        self.load_time = load_time

    def next_hop(self, time: float) -> float:
        """The hop a wait draws at ``time``."""
        left = self.until - time
        if self.floor is not None:
            left = max(self.floor, left)
        return min(self.hop, left)

    def _entry(self) -> tuple:
        """The rule fields of ``struct kstate``. The kernel reads the
        load's segment arrays in place; the rule holds the trace for the
        call."""
        load = self.load
        return (0 if load is None else load.currents.ctypes.data,
                0 if load is None else load.durations.ctypes.data,
                self.hop, self.until,
                0.0 if self.floor is None else self.floor,
                0.0 if self.rise is None else self.rise,
                self.load_time,
                -1 if self.stall is None else self.stall,
                self.floor is not None, self.rise is not None, self.stop_off,
                0 if load is None else len(load))


def _stepped(buffer) -> Optional[TwoBranchSupercap]:
    """The stock capacitor that steps for ``buffer``, or ``None``.

    A :class:`ReconfigurableBuffer` delegates all stepping to its active
    group (a ``TwoBranchSupercap``), so the kernel operates on the group
    directly; so does a bank-fault proxy over one, which changes only
    how the banks are configured and tagged. Exact type checks, not
    isinstance: a subclass may override behavior the kernel has inlined
    away.
    """
    if type(buffer) is ReconfigurableBuffer:
        buffer = buffer._group  # noqa: SLF001 — sim-internal
    if type(buffer) is TwoBranchSupercap:
        return buffer
    # Checked last, so the stock buffers pay nothing for it.
    if (type(buffer) in _BANK_FAULTS
            and type(buffer._inner) is ReconfigurableBuffer):  # noqa: SLF001
        return buffer._inner._group  # noqa: SLF001
    return None


def _stock_buffer(system):
    """The concrete capacitor the kernel steps (see :func:`_stepped`), or
    ``None`` if a component (efficiency models included) is not of a
    stock type."""
    out, inp = system.output_booster, system.input_booster
    if (type(out) is not OutputBooster or type(inp) is not InputBooster
            or type(system.monitor) is not VoltageMonitor
            or type(out.efficiency_model) not in _STOCK_EFFICIENCY
            or type(inp.efficiency_model) not in _STOCK_EFFICIENCY):
        return None
    return _stepped(system.buffer)


def supported(system) -> bool:
    """Whether the kernel reproduces this system exactly."""
    return _stock_buffer(system) is not None


def _eta_form(model):
    """``(kind, a, b, c, v_ref, floor, ceiling)`` of a stock efficiency
    model.

    Kind 1 is :class:`LinearEfficiency` (``a * v + b``), kind 2
    :class:`CurvedEfficiency` (``a + b * dv - c * dv * dv`` with
    ``dv = v - v_ref``), both then clipped to ``[floor, ceiling]``; the
    kernel evaluates these inline with the models' own operation order.
    """
    if type(model) is LinearEfficiency:
        return (1, model.slope, model.intercept, 0.0, 0.0,
                model.floor, model.ceiling)
    return (2, model.base, model.slope, model.curvature, model.v_ref,
            model.floor, model.ceiling)


def plant(system) -> Optional[tuple]:
    """The kernel's plant for ``system``, or ``None`` when the reference
    loop must run it (a non-stock component, or no compiled kernel).
    Read once per :func:`advance_segments` call.

    ``(buffer, harvester, harvest kind, values)``: ``values``
    fills the plant section of the kernel state with the components'
    fields as they hold them (the kernel derives the buffer's
    conductance, capacitance, step limit and time constant itself).
    """
    buffer = _stock_buffer(system)
    if buffer is None or _load() is None:
        return None
    out = system.output_booster
    inp = system.input_booster
    monitor = system.monitor
    out_kind, out_a, out_b, out_c, out_ref, out_floor, out_ceiling = \
        _eta_form(out.efficiency_model)
    in_kind, in_a, in_b, in_c, in_ref, in_floor, in_ceiling = \
        _eta_form(inp.efficiency_model)

    harvester = system.harvester
    p_h_const = h_period = h_phase = 0.0
    if type(harvester) is NullHarvester:
        harvest_kind = 0
    elif type(harvester) is ConstantPowerHarvester:
        harvest_kind = 1
        p_h_const = harvester.power
    elif type(harvester) is SolarHarvester and harvester.period > 0:
        # (a zero period is left to power_at, whose division raises)
        harvest_kind = 4
        p_h_const = harvester.peak
        h_period = harvester.period
        h_phase = harvester.phase
    elif type(harvester) is TraceHarvester:
        # Exact type only (mirrors the reference loop): a subclass with
        # an overridden power_at must be called in both loops, or
        # bit-identity breaks between them.
        harvest_kind = 3
    else:
        harvest_kind = 2

    values = (
        out.v_out, out.min_input_voltage, out.power_derating,
        out_a, out_b, out_c, out_ref, out_floor, out_ceiling,
        inp.v_max, in_a, in_b, in_c, in_ref, in_floor, in_ceiling,
        monitor.v_off, monitor.v_high, p_h_const, h_period, h_phase,
        buffer.leakage_current, buffer.c_main, buffer.r_esr,
        buffer.c_redist, buffer.r_redist, buffer.c_decoupling,
        out_kind, in_kind)
    return buffer, harvester, harvest_kind, values


def _write_back(sim, st, buffer) -> None:
    """Store the kernel's time, monitor state and buffer state."""
    sim.time = st.time_abs
    sim.system.monitor.force_enabled(st.enabled)
    buffer._v_main = st.v_main       # noqa: SLF001
    buffer._v_redist = st.v_red      # noqa: SLF001
    buffer._v_term = st.v_term       # noqa: SLF001


def _set_due(st, next_due: Optional[float]) -> None:
    st.has_due = next_due is not None
    if next_due is not None:
        st.next_due = next_due


def _raise(code: int, arg: float) -> None:
    """Raise what the reference loop raises where the kernel stopped
    with error ``code`` (``arg``: the kernel state's ``arg``)."""
    if code == _ZERODIV:
        raise ZeroDivisionError("float division by zero")
    if code == _OVERFLOW:
        raise OverflowError("math range error")
    if code == _DOMAIN:
        raise ValueError("math domain error")
    if code == _NEGATIVE_POWER:
        raise ValueError(f"p_harvest must be non-negative, got {arg}")
    raise RuntimeError(f"compiled kernel returned {code}")


def advance_segments(sim, segments: Union[Iterable[Tuple[float, float]],
                                           Wait],
                     harvesting: bool,
                     stop_below: Optional[float]) -> Union[None, float, str]:
    """Advance ``sim`` through ``(current, duration)`` segments, or
    through one :class:`Wait`.

    Mirrors a sequence of ``PowerSystemSimulator._advance_reference``
    calls exactly (same recurrence, same rounding, same observer
    schedule), mutating the simulator, buffer, monitor and observers in
    place. For segments, returns the absolute brown-out time if the
    terminal voltage crossed ``stop_below`` (stopping there, mid-trace),
    else ``None``. A wait runs as the reference wait does (one
    ``_advance_reference`` per hop or load segment, the rule's checks
    after each hop and each whole load), stops only where its load
    browns out, at the monitor's ``v_off`` (``stop_below`` is
    ``None``), stores the load time in the rule's ``load_time`` and
    returns the name of the check that ended it.

    With observers attached, each segment, and each hop or load segment
    of a wait, starts as a reference call does: due times are refreshed,
    samples already due are delivered, and ``loaded`` is read from the
    burden at that moment. Every step is clamped to the next due time.
    At a due step this function writes back time, buffer and monitor
    state, calls the engine's ``_notify`` (the one notification routine
    both loops share), then hands the kernel the monitor's enable state,
    the next due time and the burden. A lone stock µArch block instead gets its
    due-step samples in chunks (see the module docstring).

    Apart from due steps, the state is written back to the simulator
    once, at the end of the call, so ``segments`` must not read the live
    simulator.

    A system the kernel cannot run (see :func:`plant`) takes the
    reference loop, one call per segment, hop or load segment.
    """
    if isinstance(segments, Wait):
        wait: Optional[Wait] = segments
        pending: Iterator[Tuple[float, float]] = iter(())
    else:
        wait, pending = None, iter(segments)
    hoisted = plant(sim.system)
    if hoisted is None:
        if wait is not None:
            return sim._wait_reference(wait, harvesting)  # noqa: SLF001
        for current, duration in pending:
            hit = sim._advance_reference(  # noqa: SLF001
                current, duration, harvesting, stop_below)
            if hit is not None:
                return hit
        return None
    buffer, harvester, harvest_kind, values = hoisted

    # Observability: count kernel entries at batch granularity. The
    # disabled cost is one global read per whole-trace (or whole-wait)
    # call.
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter("sim.fastpath.calls").inc()

    monitor = sim.system.monitor
    observers = sim.observers
    observed = bool(observers)
    # Chunked µArch delivery (module docstring) takes a lone block of the
    # exact stock type, clocked below 1 GHz so that _notify, whose due
    # horizon is 1e-12 s, takes exactly one sample per due step.
    block: Any = observers[0] if len(observers) == 1 else None
    if type(block) is not CulpeoUArchBlock or block.clock_period <= 1e-9:
        block = None
    volts: Any = None
    if block is not None:
        volts = (ctypes.c_double * _SAMPLE_CHUNK)()
    harvest_mode = harvest_kind if harvesting else 0
    power_at = harvester.power_at if harvest_mode == 2 else None
    edges = powers = None
    hp_last = 0
    if harvest_mode == 3:
        # the arrays stay referenced by ``edges``/``powers`` for the call
        edges = harvester.edges.astype(float, order="C", copy=False)
        powers = harvester.powers.astype(float, order="C", copy=False)
        hp_last = len(powers) - 1
    stopping = stop_below is not None
    st = _State.from_buffer_copy(_ENTRY.pack(
        *values,
        edges.ctypes.data if edges is not None else 0,
        powers.ctypes.data if powers is not None else 0,
        ctypes.addressof(volts) if volts is not None else 0,
        sim.MIN_DT, sim.MAX_IDLE_DT, sim.IDLE_DV, sim.LOAD_DV,
        block.clock_period if block is not None else 0.0,
        stop_below if stopping else 0.0,
        buffer._v_main, buffer._v_redist, buffer._v_term,  # noqa: SLF001
        sim.time, sim._v_min_seen, sim._energy_out,  # noqa: SLF001
        harvest_mode, stopping, observed, block is not None, _SAMPLE_CHUNK,
        hp_last, monitor.output_enabled,
        *(_NO_RULE if wait is None else wait._entry())) + _TAIL)

    def begin() -> None:
        # a reference call's start: hand over the µArch samples so far,
        # refresh the due times, deliver what is due at this instant
        # (before the first step) and read the burden
        if volts is not None and st.n_volts:
            block.on_samples(volts[:st.n_volts], st.t_last)
            st.n_volts = 0
        sim._refresh_observer_due()  # noqa: SLF001
        next_due = sim._next_due     # noqa: SLF001
        if next_due is not None and next_due <= st.time_abs + 1e-12:
            _write_back(sim, st, buffer)
            next_due = sim._notify()           # noqa: SLF001
            st.enabled = monitor.output_enabled
        st.burden = sim._burden()    # noqa: SLF001
        _set_due(st, next_due)

    result: Union[None, float, str] = None
    if wait is None:
        entry, code = _kernel.repro_advance, _END
    else:
        entry = _kernel.repro_wait
        code = entry(st)
    while True:
        if code == _END:
            # the next segment (a wait's hops are drawn in C)
            seg = next(pending, None)
            if seg is None:
                break
            if observed:
                begin()
            st.i_out, st.duration = seg
            st.begin = 1
        elif code == _HOP:
            # an observed wait's next hop or load segment (or one after
            # a segment that took no step) is about to start
            if observed:
                begin()
        elif code == _CHUNK:
            block.on_samples(volts[:_SAMPLE_CHUNK], st.t_last)
            st.n_volts = 0
        elif code == _DUE:
            # _notify's due step: write back what observers read,
            # deliver the samples, hand back what they may change
            _write_back(sim, st, buffer)
            next_due = sim._notify()                 # noqa: SLF001
            st.enabled = monitor.output_enabled      # SupplyGlitch
            st.burden = sim._burden()                # noqa: SLF001
            _set_due(st, next_due)
        elif code == _NEED:
            st.x_power = power_at(st.arg)
            st.have = 1
        elif code == _BROWN:
            result = st.time_abs if wait is None else BROWN
            break
        elif code < 0:
            _raise(code, st.arg)
        else:
            result = _EXITS[code]
            break
        code = entry(st)

    if volts is not None and st.n_volts:
        block.on_samples(volts[:st.n_volts], st.t_last)
    _write_back(sim, st, buffer)
    sim._v_min_seen = st.v_min   # noqa: SLF001
    sim._energy_out = st.energy  # noqa: SLF001
    if wait is not None:
        wait.load_time = st.w_load_time
    return result


def pulse(buffer, i_load: float, dt: float, steps: int) -> float:
    """``buffer.pulse(i_load, dt, steps)`` on the compiled kernel.

    :meth:`~repro.power.capacitor.EnergyBuffer.pulse`, bit for bit: the
    same lowest terminal voltage and the same node voltages after it.
    ``repro_pulse`` runs the steps through the buffer step
    ``repro_advance`` takes. ``buffer.pulse`` runs instead for a buffer
    the kernel does not step (see :func:`_stepped`), for arguments
    ``pulse`` refuses, without a compiled kernel, and where the kernel
    reports a step on which ``pulse`` raises (having written nothing),
    so that ``pulse`` raises its own exception.
    """
    cap = _stepped(buffer)
    if (cap is None or type(steps) is not int or steps < 1 or dt <= 0
            or _load() is None):
        return buffer.pulse(i_load, dt, steps)
    nodes = (ctypes.c_double * 3)(
        cap._v_main, cap._v_redist, cap._v_term)  # noqa: SLF001
    v_min = ctypes.c_double()
    code = _kernel.repro_pulse(
        nodes, cap.c_main, cap.r_esr, cap.c_redist, cap.r_redist,
        cap.c_decoupling, cap.leakage_current, i_load, dt, steps,
        ctypes.byref(v_min))
    if code != _END:
        return buffer.pulse(i_load, dt, steps)
    cap._v_main, cap._v_redist, cap._v_term = nodes  # noqa: SLF001
    return v_min.value


def lanes(system, n: int) -> Optional[np.ndarray]:
    """``n`` kernel states for :func:`advance_lanes`, each holding
    ``system``'s plant (one record per lane, with ``struct kstate``'s
    field names, for a fleet to write its per-device values over) and
    its harvester kind as ``harvest_mode``.

    ``None`` when the kernel cannot run ``system`` without Python: no
    compiled kernel, a non-stock component, or a harvester that Python
    evaluates.
    """
    hoisted = plant(system)
    if hoisted is None or hoisted[2] == 2:
        return None
    states = np.zeros(n, dtype=_LANE)
    for (name, _), value in zip(_PLANT_FIELDS, hoisted[-1]):
        states[name] = value
    states["harvest_mode"] = hoisted[2]
    return states


def advance_lanes(states: np.ndarray, run: np.ndarray, i_out: float,
                  duration: float, brown: np.ndarray) -> None:
    """Run one ``(i_out, duration)`` segment on every lane of ``states``
    whose ``run`` flag (``uint8``) is set, in one C call.

    Each lane steps exactly as an :func:`advance_segments` segment on its
    plant would, and must be one the kernel evaluates without Python: no
    observers, and a null, constant, solar or trace harvester. A lane
    that falls below its ``stop_level`` stops there: its ``run`` flag is
    cleared and its time stored in ``brown``.
    The states keep the lanes' live state and count their ``steps``.
    """
    failed = ctypes.c_long()
    code = _kernel.repro_advance_lanes(
        states.ctypes.data, len(states), run.ctypes.data, i_out, duration,
        brown.ctypes.data, ctypes.byref(failed))
    if code != _END:
        _raise(code, float(states["arg"][failed.value]))
