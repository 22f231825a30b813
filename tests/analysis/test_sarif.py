"""SARIF 2.1.0 export: structure, code flows, suppressions."""

import json

import pytest

from repro.analysis import all_rules, get_rule
from repro.analysis.engine import Analyzer
from repro.analysis.sarif import to_sarif


@pytest.fixture
def sarif_run(tmp_path, monkeypatch):
    """Run the analyzer over a small dirty tree; returns the parsed run."""

    def build(source, rules=None):
        src = tmp_path / "src" / "repro"
        src.mkdir(parents=True, exist_ok=True)
        (src / "mod.py").write_text(source)
        monkeypatch.chdir(tmp_path)
        selected = rules if rules is not None else all_rules()
        report = Analyzer(rules=selected).run(["src"])
        doc = json.loads(to_sarif(report, selected))
        assert doc["version"] == "2.1.0"
        assert len(doc["runs"]) == 1
        return doc["runs"][0]

    return build


class TestStructure:
    def test_driver_lists_every_rule_with_level(self, sarif_run):
        run = sarif_run("x = 1\n")
        rules = run["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        assert ids == sorted(ids)
        for rule_id in ("SIM001", "SEC003", "SIM005", "RES004"):
            assert rule_id in ids
        by_id = {r["id"]: r for r in rules}
        assert by_id["SEC003"]["defaultConfiguration"]["level"] == "error"
        assert by_id["RES004"]["defaultConfiguration"]["level"] == "warning"
        assert by_id["SEC003"]["properties"]["family"] == "SEC"
        assert "fullDescription" in by_id["SEC003"]

    def test_result_location_is_one_based(self, sarif_run):
        run = sarif_run("import random\nx = random.random()\n",
                        rules=[get_rule("SIM001")])
        results = run["results"]
        assert len(results) == 1
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2
        assert region["startColumn"] >= 1
        assert results[0]["ruleId"] == "SIM001"
        assert results[0]["level"] == "error"

    def test_rule_index_points_into_driver_rules(self, sarif_run):
        run = sarif_run("import random\nx = random.random()\n")
        result = next(r for r in run["results"] if r["ruleId"] == "SIM001")
        rules = run["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == "SIM001"


class TestCodeFlows:
    def test_dataflow_trace_becomes_a_thread_flow(self, sarif_run):
        run = sarif_run(
            "def relay(peer, net, dst):\n"
            "    rows = peer.execute_local('q')\n"
            "    net.transfer('here', dst, rows)\n",
            rules=[get_rule("SEC003")],
        )
        result = run["results"][0]
        steps = result["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(steps) >= 2
        assert steps[0]["location"]["message"]["text"].startswith("source:")
        lines = [
            s["location"]["physicalLocation"]["region"]["startLine"]
            for s in steps
        ]
        assert lines[0] == 2 and lines[-1] == 3


class TestSuppressions:
    def test_inline_allow_is_marked_in_source(self, sarif_run):
        run = sarif_run(
            "import random\n"
            "x = random.random()  # repro: allow[SIM001] fixture\n",
            rules=[get_rule("SIM001")],
        )
        result = run["results"][0]
        assert result["suppressions"][0]["kind"] == "inSource"


class TestEffectProperties:
    def test_effect_findings_embed_their_signature(self, tmp_path,
                                                   monkeypatch):
        # PURE001 is scoped to the engine modules, so build the tree at
        # the real kernel path instead of the shared mod.py fixture.
        kernel = tmp_path / "src" / "repro" / "sqlengine"
        kernel.mkdir(parents=True)
        (kernel / "vectorize.py").write_text(
            "import time\n"
            "\n"
            "def lower_probe():\n"
            "    def run_probe(rows):\n"
            "        return time.perf_counter(), rows\n"
            "    return run_probe\n"
        )
        monkeypatch.chdir(tmp_path)
        rules = [get_rule("PURE001")]
        report = Analyzer(rules=rules).run(["src"])
        run = json.loads(to_sarif(report, rules))["runs"][0]
        result = next(r for r in run["results"] if r["ruleId"] == "PURE001")
        props = result["properties"]
        assert props["effectSignature"]["wallclock"] is True
        assert "wallclock" in props["offendingEffects"]
        # the call-chain witness rides along as a code flow
        steps = result["codeFlows"][0]["threadFlows"][0]["locations"]
        assert any(
            "time.perf_counter" in s["location"]["message"]["text"]
            for s in steps
        )
