"""The framework itself: registry, suppressions, reports."""

import json

import pytest

from repro.analysis import (
    Severity,
    all_rules,
    analyze_paths,
    analyze_source,
    get_rule,
    register_rule,
)
from repro.analysis.engine import PARSE_RULE_ID, categorize
from repro.analysis.registry import AnalysisError, Rule
from repro.analysis.report import to_json, to_text


class TestRegistry:
    def test_all_seven_rules_registered(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        for expected in (
            "CFG001",
            "ISO001",
            "ISO002",
            "SIM001",
            "SIM002",
            "SIM003",
            "SIM004",
        ):
            assert expected in ids

    def test_unknown_rule_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule"):
            get_rule("NOPE999")

    def test_duplicate_id_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate rule id"):

            @register_rule
            class Clash(Rule):
                id = "SIM001"
                description = "clashes with the real SIM001"

    def test_missing_id_rejected(self):
        with pytest.raises(AnalysisError, match="has no id"):

            @register_rule
            class Nameless(Rule):
                description = "forgot the id"

    def test_unknown_category_rejected(self):
        with pytest.raises(AnalysisError, match="unknown categories"):

            @register_rule
            class Lost(Rule):
                id = "ZZZ999"
                description = "bad category"
                categories = ("docs",)


class TestCategorize:
    def test_paths_map_to_categories(self):
        assert categorize("src/repro/core/peer.py") == "src"
        assert categorize("tests/test_peer.py") == "tests"
        assert categorize("benchmarks/run.py") == "benchmarks"
        assert categorize("scripts/tool.py") == "src"


class TestSuppressions:
    def test_one_comment_can_allow_multiple_rules(self):
        source = (
            "import random\n"
            "import time\n"
            "x = random.random() + time.time()"
            "  # repro: allow[SIM001,SIM002] demo\n"
        )
        findings = analyze_source(source, path="src/repro/fake.py")
        assert len(findings) == 2
        assert all(f.suppressed for f in findings)
        assert {f.rule for f in findings} == {"SIM001", "SIM002"}

    def test_comment_inside_string_is_not_a_suppression(self):
        source = (
            "import random\n"
            'note = "# repro: allow[SIM001]"\n'
            "x = random.random()\n"
        )
        findings = analyze_source(source, path="src/repro/fake.py")
        assert len(findings) == 1
        assert not findings[0].suppressed


class TestParseErrors:
    def test_syntax_error_yields_parse_finding(self):
        findings = analyze_source("def broken(:\n", path="src/repro/bad.py")
        assert len(findings) == 1
        assert findings[0].rule == PARSE_RULE_ID
        assert findings[0].severity is Severity.ERROR
        assert findings[0].reported


class TestReports:
    def _report(self, tmp_path, source):
        target = tmp_path / "src" / "repro"
        target.mkdir(parents=True)
        (target / "mod.py").write_text(source)
        return analyze_paths([str(target / "mod.py")])

    def test_json_report_shape(self, tmp_path):
        report = self._report(
            tmp_path, "import random\nx = random.random()\n"
        )
        payload = json.loads(to_json(report))
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["ok"] is False
        assert payload["counts"]["reported"] == 1
        assert payload["findings"][0]["rule"] == "SIM001"
        assert payload["findings"][0]["snippet"] == "x = random.random()"

    def test_json_accepted_section_under_verbose(self, tmp_path):
        report = self._report(
            tmp_path,
            "import random\nx = random.random()  # repro: allow[SIM001] ok\n",
        )
        payload = json.loads(to_json(report, include_clean=True))
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert payload["accepted"][0]["justification"] == "ok"

    def test_text_report_mentions_location_and_summary(self, tmp_path):
        report = self._report(
            tmp_path, "import random\nx = random.random()\n"
        )
        text = to_text(report)
        assert "SIM001" in text
        assert ":2:" in text
        assert "1 finding(s)" in text
