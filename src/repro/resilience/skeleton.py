"""The fault-campaign skeleton both chaos campaigns run on.

A campaign crosses its *axes* (every campaign has injectors; the
simulator's also has apps and estimators) into a grid, and trial ``i``
runs grid cell ``i mod len(grid)``. Every trial is a :class:`Case`: the
resolved inputs (seed, index, cell and the campaign's settings) whose
``replay`` runs it, so a saved case re-runs exactly the trial the
campaign ran. :func:`run_grid` checks the arguments, fans the cases out
over :func:`repro.harness.parallel.parallel_map`, tallies the outcomes
per axis, counts them in :mod:`repro.obs` parent-side (so telemetry is
the same for any ``jobs``) and saves one JSON case per unsafe trial. The
report is a pure function of ``(trials, seed, parameters)``.

Two campaigns plug into it: the simulator's
(:mod:`repro.resilience.campaign`, ``repro chaos``) and the daemon's
(:mod:`repro.serve.chaos`, ``repro chaos --serve``).

Fault recipes and cases are :class:`Record` dataclasses that declare
each field once, so the ``to_dict`` a case file stores cannot drift from
the constructor its replay calls.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from pathlib import Path
from typing import (
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.harness.parallel import parallel_map
from repro.harness.report import TextTable
from repro.obs import current as _obs_current

PathLike = Union[str, Path]

#: How a trial ends, in precedence order: ``livelock`` (no progress is
#: possible) over ``brown_out`` (the safety property was violated) over
#: ``completed`` (finished with nothing degraded); anything else is
#: ``degraded_but_safe``, the designed failure mode.
OUTCOMES: Tuple[str, ...] = ("completed", "degraded_but_safe", "brown_out",
                             "livelock")

#: The outcomes that fail a campaign and get a case file.
UNSAFE: Tuple[str, ...] = ("brown_out", "livelock")

#: Version of both case document formats.
CASE_VERSION = 1

#: Declared field types a record stores its values as (a document
#: written by hand may give 2 for 2.0).
_STORED_AS = {"int": int, "float": float, "bool": bool, "str": str,
              "dict": dict}


@dataclass(frozen=True)
class Record:
    """A frozen plain-data record whose fields are declared once.

    After :meth:`check` accepts the values given, each field declared
    ``int``, ``float``, ``bool``, ``str`` or ``dict`` is stored as that
    type.
    """

    def __post_init__(self) -> None:
        self.check()
        for f in fields(self):
            store = _STORED_AS.get(getattr(f.type, "__name__", f.type))
            if store is not None:
                object.__setattr__(self, f.name, store(getattr(self, f.name)))

    def check(self) -> None:
        """Raise ``ValueError`` for a value out of range."""


@dataclass(frozen=True)
class Recipe(Record):
    """A named, parameterized fault recipe (an *injector*).

    Subclasses set ``name``, the registry key, declare each parameter,
    with its default, as a dataclass field, and check its range in
    :meth:`check`.
    """

    name: ClassVar[str] = ""

    def params(self) -> dict:
        """Plain-JSON parameters: the constructor's keyword arguments."""
        return asdict(self)

    def to_dict(self) -> dict:
        return {"injector": self.name, "params": self.params()}


class Registry(dict):
    """One campaign's recipe classes by name."""

    def __init__(self, label: str) -> None:
        super().__init__()
        #: What error messages call a recipe (``"injector"``).
        self.label = label

    def register(self, cls: Type[Recipe]) -> Type[Recipe]:
        """Class decorator adding a recipe to the registry."""
        if not cls.name:
            raise ValueError(f"{cls.__name__} needs a non-empty name")
        if cls.name in self:
            raise ValueError(f"duplicate {self.label}: {cls.name!r}")
        self[cls.name] = cls
        return cls

    def from_dict(self, data: dict) -> Recipe:
        """Rebuild a recipe from its ``to_dict`` form."""
        name = data.get("injector")
        if name not in self:
            raise ValueError(f"unknown {self.label} {name!r}; choose from "
                             f"{sorted(self)}")
        return self[name](**data.get("params", {}))

    def defaults(self, names: Optional[Iterable[str]] = None
                 ) -> Tuple[dict, ...]:
        """The named recipes (default: every one, by name) with default
        parameters, as plain data."""
        names = sorted(self) if names is None else list(names)
        unknown = [name for name in names if name not in self]
        if unknown:
            raise ValueError(f"unknown {self.label}(s): {', '.join(unknown)}"
                             f"; choose from: {', '.join(sorted(self))}")
        return tuple(self[name]().to_dict() for name in names)


@dataclass
class TrialOutcome:
    """How one trial ended: an :data:`OUTCOMES` name and plain-data
    details (picklable)."""

    outcome: str
    details: dict = field(default_factory=dict)

    @property
    def unsafe(self) -> bool:
        return self.outcome in UNSAFE


@dataclass(frozen=True)
class Case(Record):
    """One replayable campaign trial.

    Subclasses set :attr:`FORMAT`, implement :meth:`replay`, and declare
    in document order ``seed``, ``index``, the fields :attr:`CELL` names,
    the campaign's settings, and ``original`` (what a saved unsafe trial
    ended in).
    """

    #: The document's ``format`` field.
    FORMAT: ClassVar[str] = ""
    #: The fields that make the trial's grid cell, in report order; the
    #: ``injector`` recipe dict is one of them.
    CELL: ClassVar[Tuple[str, ...]] = ("injector",)
    #: The details a replay prints and a trial's ``repro.obs`` event
    #: carries.
    SUMMARY: ClassVar[Tuple[str, ...]] = ()

    def replay(self) -> TrialOutcome:
        """Run the recorded trial."""
        raise NotImplementedError

    def names(self) -> Dict[str, str]:
        """The grid cell, with the injector by its registry name."""
        return _names({key: getattr(self, key) for key in self.CELL})

    def to_dict(self) -> dict:
        return {"format": self.FORMAT, "version": CASE_VERSION,
                **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Case":
        """Keys that are not fields, such as the settings older documents
        carried at today's constant values, are ignored."""
        if data.get("format") != cls.FORMAT:
            raise ValueError(f"not a {cls.FORMAT} document")
        if data.get("version") != CASE_VERSION:
            raise ValueError(f"unsupported version: {data.get('version')!r}")
        return cls(**{f.name: data[f.name] for f in fields(cls)
                      if f.name in data})

    def save(self, path: PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2),
                              encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike) -> "Case":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _names(cell: Mapping) -> Dict[str, str]:
    """A grid cell with its injector recipe replaced by its name."""
    return dict(cell, injector=cell["injector"]["injector"])


@dataclass
class CampaignReport:
    """Aggregated outcomes of one campaign.

    Pure data (no timestamps, no worker counts, details only for unsafe
    trials), so identical ``(trials, seed, parameters)`` runs serialize
    to identical JSON for any ``jobs``.
    """

    format: str
    title: str
    config: dict
    counts: Dict[str, int]
    #: Outcome counts per value of each tallied axis (``per_<axis>``).
    tallies: Dict[str, Dict[str, Dict[str, int]]]
    unsafe: List[dict]
    cases: List[str]

    @property
    def unsafe_count(self) -> int:
        return len(self.unsafe)

    @property
    def ok(self) -> bool:
        """True when no trial browned out or livelocked."""
        return self.unsafe_count == 0

    def to_dict(self) -> dict:
        return {
            "format": self.format,
            "version": 1,
            "config": self.config,
            "counts": self.counts,
            **{f"per_{axis}": table for axis, table in self.tallies.items()},
            "unsafe": self.unsafe,
            "cases": self.cases,
            "ok": self.ok,
        }

    def render(self) -> str:
        """The injector table under the title, by name, then each other
        tallied axis in the order its values were given."""
        tables = [(self.title, "injector", sorted(self.tallies["injector"]))]
        tables += [(None, axis, list(table))
                   for axis, table in self.tallies.items()
                   if axis != "injector"]
        lines = []
        for title, axis, rows in tables:
            table = TextTable([axis] + list(OUTCOMES), title=title)
            for name in rows:
                stats = self.tallies[axis][name]
                table.add_row([name] + [stats.get(o, 0) for o in OUTCOMES])
            lines.append(table.render())
        if self.unsafe:
            lines.append(f"unsafe trials ({self.unsafe_count}):")
            for entry in self.unsafe[:10]:
                cell = " / ".join(
                    str(value) for key, value in entry.items()
                    if key not in ("index", "outcome", "details"))
                lines.append(f"  trial {entry['index']} {cell}: "
                             f"{entry['outcome']}")
        if self.cases:
            lines.append(f"chaos cases ({len(self.cases)}):")
            lines.extend(f"  {path}" for path in self.cases)
        lines.append("verdict: " + ("OK" if self.ok else "UNSAFE"))
        return "\n".join(lines)


def _replay(case: Case) -> TrialOutcome:
    """Run one trial (module-level: picklable for the fan-out)."""
    return case.replay()


def run_grid(case_type: Type[Case], trials: int, *, seed: int, jobs: int,
             axes: Mapping[str, Sequence], settings: Mapping[str, object],
             registry: Registry, tally: Sequence[str], counter: str,
             case_file: str, cases_dir: Optional[str], report: str,
             title: str, config: dict) -> CampaignReport:
    """Run ``trials`` trials over the grid ``axes`` spans; aggregate a
    report.

    ``axes`` maps each of ``case_type.CELL`` to its values (the grid is
    their product, in that order; ``injector`` values are ``registry``
    recipe dicts); ``settings`` fills the case's other fields. ``tally``
    names the axes that get an outcome table; ``counter`` prefixes the
    ``repro.obs`` names; ``case_file`` formats an unsafe trial's case
    file name from ``index`` and the cell names, in ``cases_dir``
    (created only when a trial is unsafe). ``report``, ``title`` and
    ``config`` are the report's format name, title and config block.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for axis, values in axes.items():
        if not values:
            raise ValueError(f"{axis}s must not be empty")
    for data in axes["injector"]:
        registry.from_dict(data)
    grid = [dict(zip(axes, cell)) for cell in product(*axes.values())]
    # Building every case checks the settings before any trial starts.
    cases = [case_type(seed=seed, index=index, **grid[index % len(grid)],
                       **settings) for index in range(trials)]
    outcomes = parallel_map(_replay, cases, jobs=jobs)

    counts = dict.fromkeys(OUTCOMES, 0)
    tallies: Dict[str, Dict[str, Dict[str, int]]] = {axis: {}
                                                     for axis in tally}
    for cell in grid:
        names = _names(cell)
        for axis in tally:
            tallies[axis].setdefault(names[axis], dict.fromkeys(OUTCOMES, 0))
    unsafe: List[dict] = []
    case_paths: List[str] = []
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter(f"{counter}.trials").inc(len(outcomes))
    for case, result in zip(cases, outcomes):
        names = case.names()
        counts[result.outcome] += 1
        for axis in tally:
            tallies[axis][names[axis]][result.outcome] += 1
        if obs is not None:
            obs.metrics.counter(f"{counter}.outcome.{result.outcome}").inc()
            obs.emit(f"{counter}.trial", trial=case.index, **names,
                     outcome=result.outcome,
                     **{key: result.details.get(key) for key in case.SUMMARY})
        if not result.unsafe:
            continue
        unsafe.append({"index": case.index, **names,
                       "outcome": result.outcome, "details": result.details})
        if cases_dir is not None:
            path = Path(cases_dir) / case_file.format(index=case.index,
                                                      **names)
            path.parent.mkdir(parents=True, exist_ok=True)
            replace(case, original={"outcome": result.outcome,
                                    "details": result.details}).save(path)
            case_paths.append(str(path))
    return CampaignReport(format=report, title=title, config=config,
                          counts=counts, tallies=tallies, unsafe=unsafe,
                          cases=case_paths)
