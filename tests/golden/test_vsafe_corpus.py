"""Golden-corpus check: V_safe across the catalog × every estimator.

The committed ``vsafe_corpus.json`` must equal what ``regen.py`` computes
from the current code — exactly, not approximately. An intentional change
to estimator math regenerates the corpus (``PYTHONPATH=src python -m
tests.golden.regen``) and commits the diff; an *unintentional* drift
fails here.

The regen module is loaded by file path so the suite does not depend
on ``tests`` being importable as a package.
"""

import importlib.util
import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location(
    "golden_regen", _HERE / "regen.py")
regen = importlib.util.module_from_spec(_SPEC)
sys.modules["golden_regen"] = regen
_SPEC.loader.exec_module(regen)


def _committed() -> dict:
    return json.loads((_HERE / "vsafe_corpus.json").read_text(
        encoding="utf-8"))


class TestCorpusShape:
    def test_header_and_coverage(self):
        corpus = _committed()
        assert corpus["format"] == "repro.golden-vsafe"
        assert corpus["version"] == 3
        # Technology-complete: all four technologies appear.
        technologies = {e["technology"] for e in corpus["entries"]}
        assert technologies == {"electrolytic", "ceramic", "tantalum",
                                "supercapacitor"}
        # Every surveyed entry covers every estimator.
        estimators = set(corpus["estimators"])
        surveyed = [e for e in corpus["entries"] if e["surveyed"]]
        assert surveyed, "corpus must survey at least one bank"
        for entry in surveyed:
            assert set(entry["vsafe"]) == estimators

    def test_vsafe_values_are_physical(self):
        corpus = _committed()
        v_off = corpus["plant"]["v_off"]
        for entry in corpus["entries"]:
            if not entry["surveyed"]:
                continue
            for name, record in entry["vsafe"].items():
                assert record["v_safe"] >= v_off, (entry["part_number"],
                                                   name)

    def test_environment_entries_cover_every_model_and_front_end(self):
        corpus = _committed()
        env = corpus["environment"]
        combos = {(e["model"], e["mppt"]) for e in env["entries"]}
        assert len(env["entries"]) == 9
        assert combos == {
            (m, f)
            for m in ("diurnal-solar", "kinetic-burst", "thermal-gradient")
            for f in ("constant-voltage", "voc-fraction",
                      "perturb-observe")}
        estimators = set(corpus["estimators"])
        v_off = corpus["plant"]["v_off"]
        fingerprints = set()
        for entry in env["entries"]:
            assert set(entry["vsafe"]) == estimators
            assert entry["pieces"] > 1
            assert entry["energy_j"] > 0.0
            assert len(entry["trace_fingerprint"]) == 32
            fingerprints.add(entry["trace_fingerprint"])
            for name, record in entry["vsafe"].items():
                assert record["v_safe"] >= v_off, (entry["model"], name)
        # Distinct environments lower to distinct traces.
        assert len(fingerprints) == len(env["entries"])

    def test_bank_entries_cover_every_set_and_configuration(self):
        corpus = _committed()
        bank = corpus["bank"]
        assert len(bank["entries"]) >= 6
        combos = {(e["set"], e["tag"]) for e in bank["entries"]}
        assert combos == {
            (s, t)
            for s in ("capybara-default", "capybara-dense")
            for t in ("small", "large", "large+small")}
        estimators = set(corpus["estimators"])
        v_off = corpus["plant"]["v_off"]
        for entry in bank["entries"]:
            assert set(entry["vsafe"]) == estimators
            assert entry["group"]["capacitance"] > 0
            assert entry["group"]["r_esr"] > 0
            for name, record in entry["vsafe"].items():
                assert record["v_safe"] >= v_off, (entry["tag"], name)
        # Composition algebra sanity, pinned per set: the merged group
        # holds both banks' capacitance and beats either lone bank's ESR.
        for set_name in ("capybara-default", "capybara-dense"):
            rows = {e["tag"]: e["group"] for e in bank["entries"]
                    if e["set"] == set_name}
            assert rows["large+small"]["capacitance"] > \
                rows["large"]["capacitance"] > rows["small"]["capacitance"]
            assert rows["large+small"]["r_esr"] < min(
                rows["large"]["r_esr"], rows["small"]["r_esr"])


class TestCorpusMatchesCode:
    def test_regeneration_reproduces_committed_corpus_exactly(self):
        fresh = regen.build_corpus()
        committed = _committed()
        assert fresh == committed, (
            "golden V_safe corpus drifted — if the estimator/catalog "
            "change is intentional, regenerate with "
            "`PYTHONPATH=src python -m tests.golden.regen` and commit "
            "the diff")
