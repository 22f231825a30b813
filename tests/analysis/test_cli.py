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
        assert "DET003" in out
        assert "dirty.py:2" in out

    def test_missing_path_exits_two(self, tree, capsys):
        assert main(["no/such/dir"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_select_exits_two(self, tree, capsys):
        assert main(["--select", "NOPE999", "src"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule id: 'NOPE999'" in err
        # The error lists every valid id so the fix is a copy-paste away.
        for rule_id in ("SIM003", "SEC003", "RES004", "ARCH001"):
            assert rule_id in err


class TestSelect:
    def test_select_limits_rules(self, tree, capsys):
        assert main(["--select", "SIM003", "src"]) == 0
        assert main(["--select", "det003", "src"]) == 1


class TestJson:
    def test_json_output_parses(self, tree, capsys):
        assert main(["--json", "src"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "DET003"


class TestListRules:
    def test_list_rules_prints_all_ids(self, tree, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "ARCH001", "ATOM001", "CFG001", "DET003", "ISO002",
            "PURE001", "RES004", "SEC002", "SEC003", "SIM003",
        ]


class TestUnknownAllowIds:
    def test_allow_naming_an_unknown_rule_exits_two(self, tree, capsys):
        (tree / "src" / "repro" / "clean.py").write_text(
            "x = 1\n"
            "y = 2  # repro: allow[SIM002] a rule that no longer exists\n"
        )
        assert main(["src"]) == 2
        err = capsys.readouterr().err
        assert "clean.py:2" in err
        assert "SIM002" in err

    def test_allow_naming_a_rule_outside_select_is_fine(self, tree, capsys):
        (tree / "src" / "repro" / "clean.py").write_text(
            "x = 1  # repro: allow[SEC003] not selected, still a real rule\n"
        )
        (tree / "src" / "repro" / "dirty.py").unlink()
        assert main(["--select", "SIM003", "src"]) == 0
