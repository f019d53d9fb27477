"""Performance ledger: end-to-end and per-layer metrics for four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig13 --seed 0 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and reports the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` makes the
separate traced run and reports the ``per_layer`` metrics.  Outputs are
checked in both modes.  Human-readable detail goes to stdout first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Spans, daemon journals and per-workload layer columns
are written under ``perfbench/out/``; each traced run ends with the layer
x workload table of the columns found there.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import refclock  # noqa: E402

WORKLOADS = ("fig13", "verify", "fleet-env", "serve")
SETUPS = 3


def run_context(seed: int) -> dict:
    """Seed, source revision, interpreter, numpy, CPUs and CPU model."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    if not commit:
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    cpu = platform.processor()
    try:
        for row in Path("/proc/cpuinfo").read_text().splitlines():
            if row.startswith("model name"):
                cpu = row.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = ""
    return {"seed": seed, "commit": commit,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def child_env() -> dict:
    """Environment of every measured process: the checkout's ``src`` on
    the path, and one BLAS thread, whose idle spinning would otherwise
    land in the CPU times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def worker(args: argparse.Namespace, mode: str, **extra) -> dict:
    """Run ``worker.py`` in a fresh process; returns its RESULT plus its
    set-up time: CPU seconds up to its ``ready`` line, and wall seconds
    from spawn to that line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=str(ROOT))
    result: dict = {}
    try:
        for line in proc.stdout:
            if line.startswith("ready "):
                result["setup_wall_s"] = time.perf_counter() - start
                result["setup_s"] = float(line.split()[1])
            elif line.startswith("RESULT "):
                result.update(json.loads(line[len("RESULT "):]))
            else:
                print(line, end="")
        code = proc.wait(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or "setup_s" not in result:
        raise RuntimeError(f"worker {mode} exited with {code}")
    return result


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return (f"n={len(values)} median={statistics.median(values):.4f} "
            f"q1={q[0]:.4f} q3={q[2]:.4f}")


def print_table(title: str, rows: Dict[str, Dict[str, float]],
                columns: List[str]) -> None:
    print(title)
    print("  " + "layer".ljust(16) + "".join(c.rjust(12) for c in columns))
    names = sorted({name for col in rows.values() for name in col},
                   key=lambda n: (n == "uncovered", n))
    for name in names:
        print("  " + name.ljust(16) + "".join(
            (f"{rows[c][name]:.4f}" if name in rows.get(c, {}) else "-")
            .rjust(12) for c in columns))


def layer_table() -> None:
    columns, rows = [], {}
    for workload in WORKLOADS:
        path = OUT / f"layers-{workload}.json"
        if path.exists():
            columns.append(workload)
            rows[workload] = json.loads(path.read_text())
    print_table("self time (s) by layer x workload, traced runs:", rows,
                columns)


# -- the in-process workloads ------------------------------------------------

def batch_timed(args: argparse.Namespace) -> dict:
    setups = [worker(args, "setup") for _ in range(SETUPS - 1)]
    result = worker(args, "timed")
    setups.append(result)
    print(f"set-up cpu (s): {spread([r['setup_s'] for r in setups])}")
    print(f"set-up wall (s): {spread([r['setup_wall_s'] for r in setups])}")
    factor = refclock.scale(result["reference_s"])
    print(f"reference samples, cpu (s): {spread(result['reference_s'])}; "
          f"scale {factor:.4f}")
    setup_s = statistics.median(r["setup_s"] for r in setups)
    print(f"unscaled: setup {setup_s:.6g} s, cpu {result['cpu_s']:.6g} s")
    print(f"timed operations, cpu (s): {spread(result['op_cpu_s'])}")
    print(f"timed operations, wall (s): {spread(result['op_wall_s'])} "
          f"total {sum(result['op_wall_s']):.3f}")
    for note in result["notes"]:
        print(note)
    result["setup_s"] = factor * setup_s
    result["cpu_s"] *= factor
    return result


def batch_traced(args: argparse.Namespace) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    base = worker(args, "probe")
    traced = worker(args, "traced", spans_out=OUT / (
        f"spans-{args.workload}-{args.seed}.jsonl"))
    traced["metrics"]["trace.overhead_s"] = traced["cpu_s"] - base["cpu_s"]
    print(f"traced operation: wall {traced['wall_s']:.4f} s, cpu "
          f"{traced['cpu_s']:.4f} s; untraced: wall {base['wall_s']:.4f} s, "
          f"cpu {base['cpu_s']:.4f} s")
    return traced


# -- the serve workload --------------------------------------------------------

def print_phases(rates: dict) -> None:
    print(f"{'rate':>6} {'req/s':>8} {'n':>6} {'p50_ms':>8} {'p99_ms':>8} "
          f"{'late_p99':>8} {'cpu_us/req':>10} growing valid")
    for label, stats in rates.items():
        print(f"{label:>6} {stats['rate']:8.0f} {stats['n']:6d} "
              f"{stats['p50_ms']:8.3f} {stats['p99_ms']:8.3f} "
              f"{stats['late_p99_ms']:8.3f} "
              f"{1e6 * stats['cpu_per_request_s']:10.1f} "
              f"{stats['growing']!s:>7} {stats['valid']}")


def serve_run(args: argparse.Namespace, traced: bool) -> dict:
    import servework

    out = OUT / f"serve-{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    bench = servework.ServeBench(ROOT, out, args.seed, args.seconds, traced,
                                 child_env())
    result = asyncio.run(bench.run())
    checks = [servework.check_answers(log) for log in bench.logs]
    lines = [line for c in checks for line in c["lines"]]
    sessions = [result[k] for k in ("untraced", "traced") if k in result]
    replays_match = True
    for label, session, check in zip(("untraced", "traced"), sessions,
                                     checks):
        replayed = session["stats"]["engine"]["replayed_reports"]
        print(f"{label} daemon: {check['resends']} resent reports answered, "
              f"{replayed} replayed by its dedup")
        replays_match &= replayed == check["resends"]
    result.update(
        digest=hashlib.sha256(b"".join(lines)).hexdigest()[:16],
        attempted=sum(c["attempted"] for c in checks),
        failed=sum(c["failed"] for c in checks),
        correct=(all(s["exit_code"] == 0 for s in sessions)
                 and not any(c["mismatched"] for c in checks)
                 and replays_match),
        setup_s=statistics.median(result["setup_cpu_s"]),
        cpu_s=result["untraced"]["rates"]["mid"]["cpu_per_request_s"],
        peak_rss_mb=result["untraced"]["peak_rss_mb"])
    for c in checks:
        for problem in c["problems"]:
            print("serve check:", problem)
    print(f"set-up cpu (s): {spread(result['setup_cpu_s'])}")
    print(f"set-up wall (s): {spread(result['setup_wall_s'])}")
    for label, session in zip(("untraced", "traced"), sessions):
        print(f"{label} daemon: {session['sent']} requests")
        print_phases(session["rates"])
    untraced = result["untraced"]
    if "search" in untraced:
        search = untraced["search"]
        print(f"max_qps_at_slo (p99 <= {servework.SLO_P99_MS} ms): "
              f"{search['max_qps_at_slo']:.1f} req/s; probes (rate, p99_ms, "
              f"growing, valid): {search['probes']}")
    return result


def serve_layer_metrics(result: dict) -> tuple:
    """Layer metrics: spans and daemon counters from the traced daemon,
    client-side latencies and the rate search from the untraced one."""
    traced, untraced = result["traced"], result["untraced"]
    daemon = traced["daemon"]
    summary = json.loads(daemon.summary_path.read_text())
    snapshot = json.loads(daemon.metrics_path.read_text())["metrics"]
    counters = snapshot["counters"]
    hists = snapshot["histograms"]
    metrics = layers.span_metrics(summary, summary["lanes"], counters)
    batch = hists.get("serve.batch_size") or {}
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    admits = counters.get("serve.admits", 0)
    rates = untraced["rates"]
    metrics.update({
        "serve.server.batch_size.mean":
            batch["sum"] / batch["count"] if batch.get("count") else 0.0,
        "serve.server.latency_p99_ms": 1000.0 * layers.hist_quantile(
            hists.get("serve.latency_s"), 0.99),
        "serve.server.shed": traced["stats"]["shed"],
        "serve.server.deadline_expired": traced["stats"]["deadline_expired"],
        "serve.engine.coalesced_ratio":
            counters.get("serve.coalesced", 0) / admits if admits else 0.0,
        "serve.cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "serve.journal.bytes_appended": traced["journal_bytes_appended"],
        "loadgen.sent": untraced["sent"] + traced["sent"],
        "loadgen.late_p99_ms": max(s["late_p99_ms"] for s in rates.values()),
        "serve.max_qps_at_slo": untraced["search"]["max_qps_at_slo"],
        "trace.overhead_s": traced["rates"]["mid"]["n"] * (
            traced["rates"]["mid"]["cpu_per_request_s"]
            - rates["mid"]["cpu_per_request_s"]),
    })
    # A rate whose generator fell behind is invalid: its latencies are
    # not reported, and read 0 like the metrics of an idle layer.
    for label, stats in rates.items():
        if stats["valid"]:
            metrics[f"serve.latency_p50_ms.{label}"] = stats["p50_ms"]
            metrics[f"serve.latency_p99_ms.{label}"] = stats["p99_ms"]
    if rates["mid"]["valid"]:
        for cls, (p50, p99, _n) in rates["mid"]["by_class"].items():
            metrics[f"serve.{cls}.p50_ms"] = p50
            metrics[f"serve.{cls}.p99_ms"] = p99
    return metrics, summary


# -- entry point -------------------------------------------------------------

def report_outputs(args: argparse.Namespace, result: dict) -> None:
    print(f"failed_ratio: {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']})")
    print(f"digest {args.workload} seed {args.seed}: {result['digest']}")


def emit(correct: bool, attempted: int, failed: int,
         values: Dict[str, float], declared: List[dict]) -> None:
    metrics = {}
    for spec in declared:
        value = float(values[spec["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {spec['name']} is {value}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = run_context(args.seed)
    print("context:", json.dumps(context, sort_keys=True))

    if args.trace == 0:
        if args.workload == "serve":
            result = serve_run(args, traced=False)
        else:
            result = batch_timed(args)
        report_outputs(args, result)
        for spec in benchmark["end_to_end"]:
            print(f"{spec['name']}: {result[spec['name']]:.6g} {spec['unit']}")
        emit(result["correct"], result["attempted"], result["failed"],
             result, benchmark["end_to_end"])
        return 0

    if args.workload == "serve":
        result = serve_run(args, traced=True)
        metrics, summary = serve_layer_metrics(result)
        from spans import check_summary
        problems = check_summary(summary, layers.REQUIRED["serve"])
        column = layers.layer_self_times(summary)
    else:
        traced = batch_traced(args)
        metrics, summary = traced["metrics"], traced["summary"]
        problems = traced["problems"]
        column = traced["layers"]
        result = traced["checked"]
    report_outputs(args, result)
    overhead = metrics["trace.overhead_s"]
    for spec in benchmark["per_layer"]:
        metrics.setdefault(spec["name"], 0.0)     # layer idle here
    print(f"traced wall {summary['wall_s']:.4f} s = self "
          f"{summary['self_total_s']:.4f} s + uncovered "
          f"{summary['uncovered_s']:.4f} s; {summary['spans']} spans; "
          f"tracing overhead {overhead:.4f} s")
    print("inclusive time of the busiest spans (s):")
    busiest = sorted(summary["by_name"].items(),
                     key=lambda kv: -kv[1]["total_s"])[:8]
    for name, entry in busiest:
        print(f"  {name:44s} calls={entry['calls']:<7d} "
              f"total={entry['total_s']:.4f} self={entry['self_s']:.4f}")
    for problem in problems:
        print("trace check:", problem)
    (OUT / f"layers-{args.workload}.json").write_text(
        json.dumps(column, sort_keys=True))
    layer_table()
    emit(result["correct"] and not problems, result["attempted"],
         result["failed"], metrics, benchmark["per_layer"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
