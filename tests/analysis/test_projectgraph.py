"""The whole-program import/call graph the interprocedural rules share."""

from repro.analysis.projectgraph import (
    MODULE_SCOPE,
    module_name_for_path,
    unit_of,
)


class TestNaming:
    def test_paths_root_at_the_repro_package(self):
        assert (
            module_name_for_path("src/repro/core/peer.py")
            == "repro.core.peer"
        )

    def test_init_names_the_package(self):
        assert (
            module_name_for_path("src/repro/sim/__init__.py") == "repro.sim"
        )

    def test_non_repro_fixture_paths_still_get_names(self):
        assert module_name_for_path("lib/widgets.py") == "lib.widgets"

    def test_unit_is_the_second_component(self):
        assert unit_of("repro.core.peer") == "core"
        assert unit_of("repro.errors") == "errors"
        assert unit_of("fixture") == "fixture"


class TestImportGraph:
    def test_internal_imports_become_edges(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": "from repro.b import helper\n",
                "src/repro/b.py": "def helper():\n    return 1\n",
            }
        )
        edges = {(e.src, e.dst) for e in graph.import_edges}
        assert ("repro.a", "repro.b") in edges

    def test_stdlib_imports_are_not_edges(self, graph_of):
        graph = graph_of({"src/repro/a.py": "import os\nimport json\n"})
        assert graph.import_edges == []

    def test_type_checking_guard_is_recorded(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.b import Thing\n"
                ),
                "src/repro/b.py": "class Thing:\n    pass\n",
            }
        )
        (edge,) = graph.import_edges
        assert edge.type_checking_only

    def test_relative_import_resolves_within_the_package(self, graph_of):
        graph = graph_of(
            {
                "src/repro/pkg/__init__.py": "",
                "src/repro/pkg/a.py": "from .b import helper\n",
                "src/repro/pkg/b.py": "def helper():\n    return 1\n",
            }
        )
        edges = {(e.src, e.dst) for e in graph.import_edges}
        assert ("repro.pkg.a", "repro.pkg.b") in edges


class TestCallGraph:
    def test_bare_call_resolves_in_the_module(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": (
                    "def helper():\n"
                    "    return 1\n"
                    "def outer():\n"
                    "    return helper()\n"
                )
            }
        )
        assert "repro.a:helper" in graph.edges["repro.a:outer"]

    def test_imported_call_resolves_across_modules(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": (
                    "from repro.b import helper\n"
                    "def outer():\n"
                    "    return helper()\n"
                ),
                "src/repro/b.py": "def helper():\n    return 1\n",
            }
        )
        assert "repro.b:helper" in graph.edges["repro.a:outer"]

    def test_self_call_resolves_to_the_enclosing_class(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": (
                    "class Worker:\n"
                    "    def step(self):\n"
                    "        return 1\n"
                    "    def run(self):\n"
                    "        return self.step()\n"
                )
            }
        )
        assert graph.edges["repro.a:Worker.run"] == {"repro.a:Worker.step"}
        (site,) = [s for s in graph.call_sites if s.callee_name == "step"]
        assert site.precise and not site.via_fallback

    def test_nested_function_gets_a_dotted_qualname(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": (
                    "def outer():\n"
                    "    def inner():\n"
                    "        return 1\n"
                    "    return inner()\n"
                )
            }
        )
        assert "repro.a:outer.inner" in graph.functions
        assert "repro.a:outer.inner" in graph.edges["repro.a:outer"]

    def test_nested_class_methods_share_the_one_qualname(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": (
                    "def helper():\n"
                    "    return 1\n"
                    "def outer():\n"
                    "    class Local:\n"
                    "        def tick(self):\n"
                    "            return helper()\n"
                    "    return Local().tick()\n"
                    "class Outer:\n"
                    "    class Inner:\n"
                    "        def run(self):\n"
                    "            return helper()\n"
                )
            }
        )
        callers = {site.caller for site in graph.call_sites}
        assert {"repro.a:outer.Local.tick", "repro.a:Outer.Inner.run"} <= callers
        assert callers <= set(graph.functions)
        assert "repro.a:outer.Local.tick" in graph.edges["repro.a:outer"]

    def test_function_reference_argument_becomes_an_edge(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": (
                    "def work():\n"
                    "    return 1\n"
                    "def outer(runner):\n"
                    "    return runner('p1', work)\n"
                )
            }
        )
        assert "repro.a:work" in graph.edges["repro.a:outer"]
        (site,) = [s for s in graph.call_sites if s.callee_name == "runner"]
        assert site.func_ref_args == ("repro.a:work",)

    def test_scope_chain_walks_out_to_the_module(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": (
                    "def outer():\n"
                    "    def inner():\n"
                    "        return 1\n"
                    "    return inner\n"
                )
            }
        )
        assert list(graph.scope_chain("repro.a:outer.inner")) == [
            "repro.a:outer.inner",
            "repro.a:outer",
            f"repro.a:{MODULE_SCOPE}",
        ]

    def test_attr_assigns_record_target_and_noneness(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": (
                    "def grant(peer, cert):\n"
                    "    peer.certificate = cert\n"
                    "def clear(peer):\n"
                    "    peer.certificate = None\n"
                )
            }
        )
        by_caller = {a.caller: a for a in graph.attr_assigns}
        assert not by_caller["repro.a:grant"].value_is_none
        assert by_caller["repro.a:clear"].value_is_none


class TestEdgePrecision:
    AMBIGUOUS = {
        "src/repro/a.py": (
            "class One:\n"
            "    def run(self):\n"
            "        return check(self)\n"
            "class Two:\n"
            "    def run(self):\n"
            "        return 2\n"
            "def outer(thing):\n"
            "    return thing.run()\n"
        )
    }

    def test_unique_method_name_fallback_is_precise(self, graph_of):
        graph = graph_of(
            {
                "src/repro/a.py": (
                    "class Only:\n"
                    "    def solo(self):\n"
                    "        return 1\n"
                    "def outer(thing):\n"
                    "    return thing.solo()\n"
                )
            }
        )
        assert graph.edges["repro.a:outer"] == {"repro.a:Only.solo"}
        (site,) = [s for s in graph.call_sites if s.callee_name == "solo"]
        assert site.precise and site.via_fallback

    def test_ambiguous_method_name_fallback_is_not_precise(self, graph_of):
        # The candidates stay on the call site (effect inference weighs
        # them against the receiver), never in the edge map.
        graph = graph_of(self.AMBIGUOUS)
        (site,) = [s for s in graph.call_sites if s.callee_name == "run"]
        assert site.resolved == ("repro.a:One.run", "repro.a:Two.run")
        assert not site.precise
        assert "repro.a:outer" not in graph.edges
        assert "repro.a:One.run" not in graph.reverse_edges

    def test_precise_only_reachability_drops_ambiguous_paths(self, graph_of):
        graph = graph_of(self.AMBIGUOUS)
        assert graph.functions_reachable_from({"repro.a:outer"}) == {
            "repro.a:outer"
        }
        assert graph.functions_reaching({"check"}) == {"repro.a:One.run"}


class TestReachability:
    CHAIN = {
        "src/repro/a.py": (
            "def sink(x):\n"
            "    return x.verify()\n"
            "def mid():\n"
            "    return sink(None)\n"
            "def top():\n"
            "    return mid()\n"
            "def unrelated():\n"
            "    return 0\n"
        )
    }

    def test_functions_reaching_walks_callers_transitively(self, graph_of):
        graph = graph_of(self.CHAIN)
        reaching = graph.functions_reaching({"verify"})
        assert {"repro.a:sink", "repro.a:mid", "repro.a:top"} <= reaching
        assert "repro.a:unrelated" not in reaching

    def test_forward_closure_includes_the_roots(self, graph_of):
        graph = graph_of(self.CHAIN)
        reachable = graph.functions_reachable_from({"repro.a:top"})
        assert {"repro.a:top", "repro.a:mid", "repro.a:sink"} <= reachable

