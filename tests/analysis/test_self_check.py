"""The repo must pass its own analyzer — the gate CI enforces."""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(*argv):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )


@pytest.fixture(scope="module")
def self_check():
    """One four-tier run over the repo (the CI command), shared below."""
    return _run("src", "tests", "benchmarks", "--json")


def test_repo_is_clean_under_all_rules(self_check):
    """The analysis job's command exits 0."""
    assert self_check.returncode == 0, self_check.stdout + self_check.stderr


def test_repo_is_clean_in_json_mode(self_check):
    payload = json.loads(self_check.stdout)
    assert payload["ok"] is True
    assert payload["findings"] == []


def test_graph_export_covers_every_src_module():
    """The graph the rules reason over must see the whole package."""
    proc = _run("graph", "--format", "json", "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    graphed = {module["path"] for module in payload["modules"]}
    expected = set()
    for dirpath, dirnames, filenames in os.walk(
        os.path.join(REPO_ROOT, "src", "repro")
    ):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if filename.endswith(".py"):
                relpath = os.path.relpath(
                    os.path.join(dirpath, filename), REPO_ROOT
                )
                expected.add(relpath.replace(os.sep, "/"))
    assert expected <= graphed


def test_dot_export_is_well_formed():
    proc = _run("graph", "--format", "dot", "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    dot = proc.stdout
    assert dot.startswith("digraph repro_imports {")
    assert dot.rstrip().endswith("}")
    assert dot.count("{") == dot.count("}")
    # Every layering-contract unit shows up as a cluster.
    for unit in ("core", "sim", "sqlengine", "baton", "analysis"):
        assert f'"cluster_{unit}"' in dot
