"""The repo must pass its own analyzer — the gate CI enforces."""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.engine import categorize, iter_python_files
from repro.analysis.projectgraph import ProjectGraph
from repro.analysis.registry import FileContext

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def self_check():
    """One run over the repo (the CI command), shared below."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "tests", "benchmarks", "--json"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )


def test_repo_is_clean_under_all_rules(self_check):
    """The analysis job's command exits 0."""
    assert self_check.returncode == 0, self_check.stdout + self_check.stderr


def test_repo_is_clean_in_json_mode(self_check):
    payload = json.loads(self_check.stdout)
    assert payload["ok"] is True
    assert payload["findings"] == []


def test_project_graph_covers_every_src_module():
    """The graph the interprocedural rules reason over sees the whole
    package: every ``src/repro`` file becomes a module node."""
    contexts = []
    for filepath in iter_python_files([os.path.join(REPO_ROOT, "src", "repro")]):
        path = os.path.relpath(filepath, REPO_ROOT).replace(os.sep, "/")
        with open(filepath, encoding="utf-8") as handle:
            source = handle.read()
        contexts.append(
            FileContext(path, categorize(path), source, ast.parse(source))
        )
    graph = ProjectGraph.build(contexts)
    assert contexts
    assert {module.path for module in graph.modules.values()} == {
        ctx.path for ctx in contexts
    }
    assert all(name.startswith("repro") for name in graph.modules)
