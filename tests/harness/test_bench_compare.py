"""The benchmark regression gate (``benchmarks/compare.py``).

The script lives outside the package (it is CI tooling, not library
code), so the tests load it by path.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).resolve().parents[2] / "benchmarks" / "compare.py",
)
compare_mod = importlib.util.module_from_spec(_SPEC)
# Registered before exec: the module's dataclass resolves its (string)
# field annotations through sys.modules at class-creation time.
sys.modules["bench_compare"] = compare_mod
_SPEC.loader.exec_module(compare_mod)


def _payload(kernel_speedup=5.0, hit_rate=0.9, sweep_speedup=3.0,
             fleet_speedup=15.0, segalg_fleet_speedup=6.0,
             serving_qps=200_000.0):
    return {
        "benchmark": "BENCH",
        "quick": False,
        "python": "3.12.0",
        "cpus": 2,
        "kernel": {"speedup": kernel_speedup,
                   "reference_s": 0.30, "fast_s": 0.06},
        "analysis": {"hit_rate": hit_rate, "speedup": 3.0,
                     "cold_s": 0.002, "warm_s": 0.0007},
        "sweep": {"speedup_fast": sweep_speedup,
                  "speedup_fast_parallel": 3.1,
                  "reference_s": 3.6, "fast_s": 1.1},
        "fleet": {"speedup": fleet_speedup,
                  "scalar_s": 1.8, "fleet_s": 0.1,
                  "fleet_device_steps_per_s": 1.1e7},
        "segalg_fleet": {"speedup": segalg_fleet_speedup,
                         "stepping_s": 1.0, "segalg_s": 0.17},
        "serving": {"qps": serving_qps, "requests": 200000,
                    "seconds": 1.0, "wire_qps": 80_000.0},
    }


class TestLookup:
    def test_dotted_paths(self):
        data = {"a": {"b": {"c": 7}}}
        assert compare_mod.lookup(data, "a.b.c") == 7
        assert compare_mod.lookup(data, "a.b") == {"c": 7}

    def test_missing_returns_none(self):
        assert compare_mod.lookup({"a": 1}, "a.b") is None
        assert compare_mod.lookup({}, "nope") is None


class TestCompare:
    def test_identical_payloads_pass(self):
        rows, ok = compare_mod.compare(_payload(), _payload())
        assert ok
        gated = {r[0]: r[4] for r in rows}
        assert gated["kernel.speedup"] == "ok"

    def test_floor_violation_fails(self):
        rows, ok = compare_mod.compare(_payload(kernel_speedup=1.5),
                                       _payload())
        assert not ok
        status = {r[0]: r[4] for r in rows}["kernel.speedup"]
        assert "floor" in status

    def test_relative_regression_fails(self):
        # Above every absolute floor, but far below the baseline's value.
        fresh = _payload(sweep_speedup=1.31)
        base = _payload(sweep_speedup=6.0)
        rows, ok = compare_mod.compare(fresh, base)
        assert not ok
        status = {r[0]: r[4] for r in rows}["sweep.speedup_fast"]
        assert "below baseline" in status

    def test_missing_gated_metric_fails(self):
        fresh = _payload()
        del fresh["analysis"]["hit_rate"]
        rows, ok = compare_mod.compare(fresh, _payload())
        assert not ok
        assert {r[0]: r[4] for r in rows}["analysis.hit_rate"] == "MISSING"

    def test_missing_baseline_still_gates_floors(self):
        """A gate with no baseline (first run) still enforces floors."""
        rows, ok = compare_mod.compare(_payload(), {})
        assert ok
        rows, ok = compare_mod.compare(_payload(kernel_speedup=0.5), {})
        assert not ok

    def test_reported_metrics_never_gate(self):
        fresh = _payload()
        fresh["sweep"]["speedup_fast_parallel"] = 0.01   # terrible, but info
        _, ok = compare_mod.compare(fresh, _payload())
        assert ok


class TestRender:
    def test_table_has_all_rows(self):
        rows, _ = compare_mod.compare(_payload(), _payload())
        text = compare_mod.render(rows)
        assert "kernel.speedup" in text
        assert "status" in text.splitlines()[0]
        assert len(text.splitlines()) == 2 + len(rows)


class TestMain:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_ok_exit_zero(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "fresh.json", _payload())
        base = self._write(tmp_path, "base.json", _payload())
        assert compare_mod.main([fresh, "--baseline", base]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "fresh.json",
                            _payload(kernel_speedup=1.0))
        base = self._write(tmp_path, "base.json", _payload())
        assert compare_mod.main([fresh, "--baseline", base]) == 1
        assert "verdict: REGRESSION" in capsys.readouterr().out

    def test_default_baseline_is_checked_in_json(self, tmp_path, capsys):
        """The checked-in BENCH.json must satisfy its own gate."""
        repo_root = Path(__file__).resolve().parents[2]
        baseline = json.loads((repo_root / "BENCH.json").read_text())
        fresh = self._write(tmp_path, "fresh.json",
                            copy.deepcopy(baseline))
        assert compare_mod.main([fresh]) == 0
        out = capsys.readouterr().out
        assert "BENCH.json" in out

    def test_default_baseline_is_bench_json(self):
        assert compare_mod.default_baseline().endswith("BENCH.json")

    def test_baseline_missing_sections_still_gates_floors(self, tmp_path,
                                                          capsys):
        """A baseline lacking whole sections (e.g. recorded before a
        metric existed) still works as --baseline: those gates fall
        back to their absolute floors."""
        stripped = _payload()
        del stripped["fleet"]
        del stripped["segalg_fleet"]
        base = self._write(tmp_path, "base.json", stripped)
        fresh = self._write(tmp_path, "fresh.json", _payload())
        assert compare_mod.main([fresh, "--baseline", base]) == 0
        assert "verdict: OK" in capsys.readouterr().out


class TestGateSpecSanity:
    def test_gated_metrics_exist_in_checked_in_baseline(self):
        repo_root = Path(__file__).resolve().parents[2]
        baseline = json.loads((repo_root / "BENCH.json").read_text())
        for spec in compare_mod.GATED_METRICS:
            value = compare_mod.lookup(baseline, spec.path)
            assert value is not None, spec.path
            if spec.floor is not None:
                assert value >= spec.floor, \
                    f"baseline itself below floor: {spec.path}"

    def test_reported_metrics_exist_in_checked_in_baseline(self):
        repo_root = Path(__file__).resolve().parents[2]
        baseline = json.loads((repo_root / "BENCH.json").read_text())
        for path in compare_mod.REPORTED_METRICS:
            assert compare_mod.lookup(baseline, path) is not None, path
