"""Launch ``repro serve`` with layer spans installed in the daemon.

Usage::

    python3 perfbench/daemon.py --spans-out OUT.jsonl --summary-out OUT.json \\
        -- --port 0 --cache journal.jsonl --metrics-out metrics.json

Everything after ``--`` goes to ``repro.cli.main(["serve", ...])``.  The
daemon runs with the same span wrappers as the in-process traced runs;
when it exits, the span list and a per-name summary are written out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--summary-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]

    for name in layers.PRELOAD:
        __import__(name)
    from repro import cli

    recorder = SpanRecorder("serve-daemon")
    recorder.install(layers.SPAN_TABLE)
    recorder.start()
    try:
        code = cli.main(["serve", *serve_args])
    finally:
        recorder.stop()
        recorder.uninstall()
        summary = recorder.summary()
        summary["lanes"] = recorder.lanes
        recorder.write(Path(args.spans_out))
        Path(args.summary_out).write_text(
            json.dumps(summary, sort_keys=True), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
