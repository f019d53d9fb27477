"""Intermittent programs: atomic tasks and non-volatile progress.

A :class:`Program` is an ordered sequence of :class:`AtomicTask`s with a
single piece of non-volatile state — the index of the next task to run.
Task effects commit only at task completion (the Alpaca/Chain-style
contract); a brown-out mid-task leaves the index untouched, so the task
re-executes from scratch after the platform recharges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.loads.trace import CurrentTrace


@dataclass(frozen=True)
class AtomicTask:
    """One atomic region: a name and its electrical load profile."""

    name: str
    trace: CurrentTrace

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task needs a non-empty name")

    @property
    def duration(self) -> float:
        return self.trace.duration

    def __str__(self) -> str:
        return self.name


@dataclass
class Program:
    """A task sequence plus its non-volatile progress pointer."""

    tasks: Sequence[AtomicTask]
    pc: int = 0

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a program needs at least one task")
        self.tasks = tuple(self.tasks)
        if not 0 <= self.pc <= len(self.tasks):
            raise ValueError(f"pc out of range: {self.pc}")

    @property
    def finished(self) -> bool:
        return self.pc >= len(self.tasks)

    @property
    def current(self) -> AtomicTask:
        if self.finished:
            raise IndexError("program already finished")
        return self.tasks[self.pc]

    def commit(self) -> None:
        """Record the current task as completed (non-volatile write)."""
        if self.finished:
            raise IndexError("nothing to commit; program finished")
        self.pc += 1

    def reset(self) -> None:
        """Restart the whole program (fresh deployment)."""
        self.pc = 0

    def remaining(self) -> List[AtomicTask]:
        return list(self.tasks[self.pc:])

    def __iter__(self) -> Iterator[AtomicTask]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)
