"""ARCH001: the layering contract over the module import graph."""

import pytest


def _path(module):
    return "src/" + module.replace(".", "/") + ".py"


class TestPositive:
    def test_sim_importing_core_fires(self, project):
        findings = project(
            "ARCH001",
            {
                "src/repro/sim/net.py": "from repro.core.peer import Peer\n",
                "src/repro/core/peer.py": "class Peer:\n    pass\n",
            },
        )
        assert len(findings) == 1
        assert findings[0].path == "src/repro/sim/net.py"
        assert "sim" in findings[0].message

    def test_sqlengine_importing_sim_fires(self, project):
        findings = project(
            "ARCH001",
            {
                "src/repro/sqlengine/exe.py": "import repro.sim.clock\n",
                "src/repro/sim/clock.py": "TICK = 1\n",
            },
        )
        assert len(findings) == 1

    def test_analysis_importing_any_repro_module_fires(self, project):
        findings = project(
            "ARCH001",
            {
                "src/repro/analysis/fake.py": (
                    "from repro.errors import ReproError\n"
                ),
                "src/repro/errors.py": "class ReproError(Exception):\n    pass\n",
            },
        )
        # analysis must stay stdlib-only: even ``errors`` is off limits.
        assert len(findings) == 1

    @pytest.mark.parametrize(
        "importer, imported",
        [
            ("repro.plan.driver", "repro.core.peer"),
            ("repro.plan.sms", "repro.hadoopdb.system"),
            ("repro.hadoopdb.system", "repro.core.network"),
            ("repro.mapreduce.engine", "repro.core.peer"),
        ],
    )
    def test_the_plan_layer_border_fires(self, project, importer, imported):
        """The executors share ``repro.plan``; it, the MapReduce framework
        and the HadoopDB leaf never reach up into the platform, and the plan
        layer never into the baseline."""
        findings = project(
            "ARCH001",
            {
                _path(importer): f"import {imported}\n",
                _path(imported): "X = 1\n",
            },
        )
        assert [finding.path for finding in findings] == [_path(importer)]
        assert imported in findings[0].message


class TestNegative:
    def test_the_baseline_is_a_leaf_over_the_plan_layer(self, project):
        assert not project(
            "ARCH001",
            {
                "src/repro/hadoopdb/system.py": (
                    "from repro.plan.driver import Driver\n"
                    "from repro.mapreduce.engine import Engine\n"
                    "from repro.sim.network import Net\n"
                ),
                "src/repro/plan/driver.py": (
                    "from repro.mapreduce.engine import Engine\n"
                    "from repro.sqlengine.expr import Expr\n"
                    "class Driver:\n    pass\n"
                ),
                "src/repro/mapreduce/engine.py": (
                    "from repro.sim.network import Net\n"
                    "class Engine:\n    pass\n"
                ),
                "src/repro/sim/network.py": "class Net:\n    pass\n",
                "src/repro/sqlengine/expr.py": "class Expr:\n    pass\n",
            },
        )

    def test_sim_importing_errors_is_allowed(self, project):
        assert not project(
            "ARCH001",
            {
                "src/repro/sim/net.py": "from repro.errors import NetworkError\n",
                "src/repro/errors.py": "class NetworkError(Exception):\n    pass\n",
            },
        )

    def test_core_may_import_anything(self, project):
        assert not project(
            "ARCH001",
            {
                "src/repro/core/peer.py": (
                    "from repro.sim.clock import TICK\n"
                    "from repro.sqlengine.db import Database\n"
                ),
                "src/repro/sim/clock.py": "TICK = 1\n",
                "src/repro/sqlengine/db.py": "class Database:\n    pass\n",
            },
        )

    def test_type_checking_guarded_import_is_exempt(self, project):
        assert not project(
            "ARCH001",
            {
                "src/repro/sim/net.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.core.peer import Peer\n"
                ),
                "src/repro/core/peer.py": "class Peer:\n    pass\n",
            },
        )

    def test_intra_unit_imports_are_free(self, project):
        assert not project(
            "ARCH001",
            {
                "src/repro/sim/net.py": "from repro.sim.clock import TICK\n",
                "src/repro/sim/clock.py": "TICK = 1\n",
            },
        )

    def test_tests_category_is_not_emitted(self, project):
        # The path puts this copy of repro.sim.net in the tests category;
        # the violation is real but ARCH001 only emits for src files.
        assert not project(
            "ARCH001",
            {
                "tests/repro/sim/net.py": "from repro.core.peer import Peer\n",
                "src/repro/core/peer.py": "class Peer:\n    pass\n",
            },
        )
