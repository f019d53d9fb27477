"""Layer-boundary spans recorded from outside the program.

A :class:`SpanRecorder` replaces public functions of the package under
test with thin wrappers.  Each wrapper records one span per call (name,
start, end, parent, run id) and keeps per-name call counts, total time
and self time (span time minus the time of its child spans).  Spans are
kept in memory and written out once, when the traced run ends.

Patching follows the caller's lookup: a function is replaced in every
loaded ``repro`` module namespace that holds the original object, under
whatever name it is bound there (``repro.fleet.runner`` binds
``advance_fleet`` as ``_segalg_advance``), and a method is replaced on
its class.  Modules imported later pick up the wrapper from the module
that defines the function.

Only calls on the thread that started the recorder become spans, so
spans always nest; calls from other threads pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class SpanRecorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[tuple] = []        # (id, name, start, end, parent)
        self.stats: Dict[str, List[float]] = {}   # name -> [calls, total, self]
        self.lanes: Dict[str, int] = {}     # name -> lanes over all calls
        self.started: Optional[float] = None
        self.ended: Optional[float] = None
        self._stack: List[list] = []        # [id, name, start, child time]
        self._thread = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []
        self._next_id = 0

    # -- recording ----------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.get_ident()
        self.started = time.perf_counter()

    def stop(self) -> None:
        self.ended = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return (self.ended or time.perf_counter()) - self.started

    def _wrap(self, fn: Callable, name: str,
              namer: Optional[Callable[[tuple], str]],
              lanes: Optional[Callable[[tuple, dict], int]]) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        stats = self.stats
        get_ident = threading.get_ident
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != recorder._thread:
                return fn(*args, **kwargs)
            span_name = namer(args) if namer is not None else name
            if lanes is not None:
                recorder.lanes[span_name] = recorder.lanes.get(
                    span_name, 0) + lanes(args, kwargs)
            recorder._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [recorder._next_id, span_name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                spans.append((frame[0], span_name, frame[2], end, parent))
                entry = stats.get(span_name)
                if entry is None:
                    entry = stats[span_name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[3]

        return wrapper

    # -- patching -----------------------------------------------------------

    def patch(self, target: str, name: str,
              namer: Optional[Callable[[tuple], str]] = None,
              lanes: Optional[Callable[[tuple, dict], int]] = None) -> None:
        """Wrap ``target`` (``"pkg.mod:func"`` or ``"pkg.mod:Class.meth"``)."""
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name, namer, lanes))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, namer, lanes)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self, table: Sequence[tuple]) -> None:
        """Patch every ``(span name, target[, namer[, lanes]])`` row."""
        for name, target, *extra in table:
            self.patch(target, name, *extra)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def covered_s(self) -> float:
        """Time covered by root spans, from the span list alone."""
        roots = sorted((s[2], s[3]) for s in self.spans if s[4] is None)
        covered = 0.0
        cur_start = cur_end = None
        for start, end in roots:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return covered

    def summary(self) -> dict:
        """Per-name counts and times, plus the uncovered remainder."""
        wall = self.wall_s
        self_total = sum(entry[2] for entry in self.stats.values())
        return {
            "run_id": self.run_id,
            "wall_s": wall,
            "self_total_s": self_total,
            "covered_s": self.covered_s(),
            "uncovered_s": wall - self.covered_s(),
            "spans": len(self.spans),
            "by_name": {name: {"calls": int(e[0]), "total_s": e[1],
                               "self_s": e[2]}
                        for name, e in sorted(self.stats.items())},
        }

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.started or 0.0
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "name": name,
                    "start": start - base, "end": end - base,
                    "parent": parent,
                }, separators=(",", ":")) + "\n")


def check_summary(summary: dict, required: Sequence[str],
                  tolerance_s: float = 1e-6) -> List[str]:
    """Problems with a traced run; an empty list means it checks out.

    Every required span name must have been called at least once, and
    self times plus the uncovered remainder must add up to the traced
    wall time (they do exactly when spans nest properly).
    """
    problems = []
    by_name = summary["by_name"]
    for name in required:
        if by_name.get(name, {}).get("calls", 0) < 1:
            problems.append(f"wrapper {name} recorded no call")
    total = summary["self_total_s"] + summary["uncovered_s"]
    if abs(total - summary["wall_s"]) > tolerance_s + 1e-9 * summary["wall_s"]:
        problems.append(
            f"self times + uncovered = {total:.6f} s, traced wall "
            f"{summary['wall_s']:.6f} s")
    return problems
