"""The ``python -m repro.analysis`` entry point, driven through main()."""

import json

import pytest

from repro.analysis.__main__ import main


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A tiny scan tree with one dirty file; cwd moved into it."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "dirty.py").write_text(
        "import random\nx = random.random()\n"
    )
    (src / "clean.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        (tree / "src" / "repro" / "dirty.py").unlink()
        assert main(["src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tree, capsys):
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out
        assert "dirty.py:2" in out

    def test_missing_path_exits_two(self, tree, capsys):
        assert main(["no/such/dir"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_select_exits_two(self, tree, capsys):
        assert main(["--select", "NOPE999", "src"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule id: 'NOPE999'" in err
        # The error lists every valid id so the fix is a copy-paste away.
        for rule_id in ("SIM001", "SEC001", "RES001", "ARCH001"):
            assert rule_id in err


class TestSelect:
    def test_select_limits_rules(self, tree, capsys):
        assert main(["--select", "SIM002", "src"]) == 0
        assert main(["--select", "sim001", "src"]) == 1


class TestJson:
    def test_json_output_parses(self, tree, capsys):
        assert main(["--json", "src"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "SIM001"


class TestListRules:
    def test_list_rules_prints_all_ids(self, tree, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "SIM001",
            "SIM002",
            "SIM003",
            "SIM004",
            "ISO001",
            "ISO002",
            "CFG001",
        ):
            assert rule_id in out


class TestGraphSubcommand:
    def test_dot_export_names_the_scanned_modules(self, tree, capsys):
        assert main(["graph", "src"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph repro_imports {")
        assert '"repro.dirty"' in out
        assert '"repro.clean"' in out
        assert out.count("{") == out.count("}")

    def test_json_export_parses(self, tree, capsys):
        assert main(["graph", "--format", "json", "src"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        names = [module["name"] for module in payload["modules"]]
        assert "repro.dirty" in names

    def test_out_writes_the_file(self, tree, capsys):
        assert main(["graph", "--out", "deps.dot", "src"]) == 0
        assert "wrote dot graph" in capsys.readouterr().out
        assert (tree / "deps.dot").read_text().startswith("digraph")

    def test_syntax_error_exits_two(self, tree, capsys):
        (tree / "src" / "repro" / "broken.py").write_text("def broken(:\n")
        assert main(["graph", "src"]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tree, capsys):
        assert main(["graph", "no/such/dir"]) == 2
        assert "error:" in capsys.readouterr().err


class TestAstCache:
    def test_lint_and_graph_share_one_cache(self, tree, capsys):
        assert main(["--ast-cache", ".ast-cache", "src"]) == 1
        cached = set((tree / ".ast-cache").iterdir())
        assert cached  # the lint pass populated it
        capsys.readouterr()
        assert main(["graph", "--ast-cache", ".ast-cache", "src"]) == 0
        # The graph pass parsed the same sources: nothing new was written.
        assert set((tree / ".ast-cache").iterdir()) == cached

    def test_results_match_without_a_cache(self, tree, capsys):
        assert main(["--json", "src"]) == 1
        uncached = json.loads(capsys.readouterr().out)
        assert main(["--json", "--ast-cache", ".ast-cache", "src"]) == 1
        cached = json.loads(capsys.readouterr().out)
        assert cached["findings"] == uncached["findings"]

    def test_unusable_cache_dir_exits_two(self, tree, capsys):
        (tree / "blocker").write_text("a file, not a directory\n")
        assert main(["--ast-cache", "blocker/nested", "src"]) == 2
        assert "AST cache" in capsys.readouterr().err


class TestSarifOutput:
    def test_sarif_writes_a_parseable_log(self, tree, capsys):
        assert main(["--sarif", "out.sarif", "src"]) == 1
        doc = json.loads((tree / "out.sarif").read_text())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        assert any(r["ruleId"] == "SIM001" for r in run["results"])

    def test_sarif_composes_with_json_stdout(self, tree, capsys):
        assert main(["--sarif", "out.sarif", "--json", "src"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "SIM001"
        assert (tree / "out.sarif").exists()


class TestEffectsSubcommand:
    def test_default_dump_lists_impure_functions(self, tree, capsys):
        assert main(["effects", "src"]) == 0
        out = capsys.readouterr().out
        assert "repro.dirty" in out
        assert "global_random" in out
        assert "pure" in out  # the summary line

    def test_json_dump_parses_and_is_versioned(self, tree, capsys):
        assert main(["effects", "--format", "json", "src"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"].startswith("effects")
        assert payload["total"] >= payload["pure"]
        impure = payload["functions"]
        assert any("repro.dirty" in qual for qual in impure)

    def test_who_touches_reports_witnessed_matches(self, tree, capsys):
        assert main(["effects", "--who-touches", "random", "src"]) == 0
        out = capsys.readouterr().out
        assert "repro.dirty" in out
        assert "via:" in out
        assert "random.random(...)" in out

    def test_who_touches_clock_on_a_clean_tree(self, tree, capsys):
        assert main(["effects", "--who-touches", "clock", "src"]) == 0
        out = capsys.readouterr().out
        assert "0 function(s)" in out

    def test_signature_query(self, tree, capsys):
        assert main(["effects", "--signature", "repro.dirty", "src"]) == 0
        out = capsys.readouterr().out
        assert "global_random" in out

    def test_unknown_signature_exits_two(self, tree, capsys):
        assert main(
            ["effects", "--signature", "repro.nope.f", "src"]
        ) == 2
        assert "unknown function" in capsys.readouterr().err

    def test_out_writes_the_report_file(self, tree, capsys):
        assert main([
            "effects", "--format", "json", "--out",
            "effect-signatures.json", "src",
        ]) == 0
        payload = json.loads((tree / "effect-signatures.json").read_text())
        assert payload["version"].startswith("effects")

    def test_effects_reuses_the_shared_ast_cache(self, tree, capsys):
        assert main(["--ast-cache", ".ast-cache", "src"]) == 1
        capsys.readouterr()
        before = set((tree / ".ast-cache").iterdir())
        assert main(["effects", "--ast-cache", ".ast-cache", "src"]) == 0
        # parse entries are shared; the effects pass adds only its own
        # aux payloads, never re-parses
        after = set((tree / ".ast-cache").iterdir())
        assert before <= after
