"""Process-pool fan-out for embarrassingly parallel experiment loops.

Monte-Carlo trials, event-rate sweeps and ablation grids are all
independent work items; :func:`parallel_map` spreads them over a
``concurrent.futures`` process pool while keeping results **bit-identical**
to the serial path:

* results come back in submission order, whatever order workers finish in;
* every work item carries its own deterministic seed (callers derive one
  per item, e.g. ``np.random.default_rng((seed, index))``), so no item's
  randomness depends on which process ran it or on how work was chunked;
* ``jobs <= 1`` short-circuits to a plain in-process loop — no pool, no
  pickling, identical arithmetic.

Work functions must be module-level (picklable) and take a single argument
(tuple them up); item payloads must likewise pickle, which every spec,
trace and power-system object in this repo does.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro import obs as _obs

T = TypeVar("T")
R = TypeVar("R")


class _ObservedCall:
    """Wraps a work function so a worker process reports its telemetry.

    When the parent has observability enabled, each worker call runs under
    a fresh local registry (and an in-memory tracer if the parent traces);
    the call returns ``(result, payload)`` and the parent folds the payload
    back in **submission order**, so the merged metrics and replayed events
    are identical to a serial run. Must be module-level: picklable.
    """

    def __init__(self, fn: Callable[[T], R], config: dict) -> None:
        self.fn = fn
        self.config = config

    def __call__(self, item: T) -> "Tuple[R, dict]":
        tracer = _obs.Tracer() if self.config.get("trace") else None
        with _obs.observe(tracer=tracer) as state:
            result = self.fn(item)
            payload = _obs.worker_events_and_snapshot(state)
        return result, payload


def default_jobs() -> int:
    """A sensible worker count for this machine (``os.cpu_count()``)."""
    return max(1, os.cpu_count() or 1)


def split_ranges(n: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most ``shards`` contiguous half-open
    ``(start, stop)`` ranges of near-equal size.

    The split depends only on ``(n, shards)`` — callers that shard a
    deterministic workload (e.g. a device batch) and concatenate results
    in range order get output independent of worker count. Empty inputs
    yield no ranges; remainders go to the earliest ranges so sizes differ
    by at most one.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if n <= 0:
        return []
    shards = min(shards, n)
    base, extra = divmod(n, shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 jobs: Optional[int] = None,
                 chunksize: int = 1) -> List[R]:
    """Map ``fn`` over ``items``, preserving order.

    ``jobs=None`` or ``jobs<=1`` runs serially in-process. Anything higher
    uses a process pool of ``min(jobs, len(items))`` workers. The returned
    list is identical to ``[fn(x) for x in items]`` either way.
    """
    work: Sequence[T] = items if isinstance(items, (list, tuple)) \
        else list(items)
    if jobs is None or jobs <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    workers = min(jobs, len(work))
    observed = _obs.current()
    if observed is not None:
        wrapped = _ObservedCall(fn, observed.spawn_config())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(wrapped, work,
                                  chunksize=max(1, chunksize)))
        results: List[R] = []
        for result, payload in pairs:
            _obs.absorb_worker_output(observed, payload)
            results.append(result)
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work, chunksize=max(1, chunksize)))
