"""SIM003: nondeterministic set iteration feeding ordered results."""

import pytest


class TestPositive:
    def test_for_loop_over_set_literal_fires(self, reported):
        findings = reported(
            "SIM003",
            """\
            def emit(out):
                for host in {"a", "b", "c"}:
                    out.append(host)
            """,
        )
        assert len(findings) == 1
        assert "sorted" in findings[0].message

    def test_for_loop_over_set_variable_fires(self, reported):
        findings = reported(
            "SIM003",
            """\
            def emit(rows):
                seen = set()
                for row in rows:
                    seen.add(row[0])
                result = []
                for key in seen:
                    result.append(key)
                return result
            """,
        )
        assert len(findings) == 1
        assert findings[0].line == 6

    def test_list_comprehension_over_set_fires(self, reported):
        findings = reported(
            "SIM003",
            """\
            def keys(mapping):
                touched = set(mapping)
                return [key for key in touched]
            """,
        )
        assert len(findings) == 1

    def test_list_call_on_set_fires(self, reported):
        findings = reported(
            "SIM003",
            """\
            def snapshot(hosts: set) -> list:
                return list(hosts)
            """,
        )
        assert len(findings) == 1

    def test_annotated_parameter_fires(self, reported):
        findings = reported(
            "SIM003",
            """\
            from typing import Set

            def emit(peer_ids: Set[str]):
                return [peer for peer in peer_ids]
            """,
        )
        assert len(findings) == 1

    def test_self_attribute_set_fires(self, reported):
        findings = reported(
            "SIM003",
            """\
            class Network:
                def __init__(self):
                    self._hosts = set()

                def dump(self):
                    return [host for host in self._hosts]
            """,
        )
        assert len(findings) == 1

    def test_set_union_fires(self, reported):
        findings = reported(
            "SIM003",
            """\
            def merge(left: set, right: set):
                return list(left | right)
            """,
        )
        assert len(findings) == 1

    def test_join_over_set_fires(self, reported):
        findings = reported(
            "SIM003",
            """\
            def render(names: set) -> str:
                return ", ".join(names)
            """,
        )
        assert len(findings) == 1

    @pytest.mark.parametrize(
        "source",
        [
            "S = {1, 2}\nCONTROL = list(S)\n",
            # A class body, a default and a nested class body run in the
            # enclosing scope, where ``S`` is the set.
            "S = {1, 2}\nclass K:\n    CONTROL = list(S)\n",
            "S = {1, 2}\ndef f(x=list(S)):\n    return x\n",
            "def f():\n    S = {1, 2}\n    class K:\n"
            "        CONTROL = list(S)\n    return K\n",
        ],
        ids=["module", "class-body", "default", "nested-class-body"],
    )
    def test_set_frozen_where_the_scope_runs_it(self, reported, source):
        assert len(reported("SIM003", source)) == 1


class TestNegative:
    def test_sorted_iteration_is_clean(self, reported):
        assert not reported(
            "SIM003",
            """\
            def emit(peer_ids: set):
                return [peer for peer in sorted(peer_ids)]
            """,
        )

    def test_order_insensitive_consumers_are_clean(self, reported):
        assert not reported(
            "SIM003",
            """\
            def stats(values: set):
                return sum(v for v in values), max(values), len(values)
            """,
        )

    def test_membership_test_is_clean(self, reported):
        assert not reported(
            "SIM003",
            """\
            def keep(rows, wanted: set):
                return [row for row in rows if row[0] in wanted]
            """,
        )

    def test_list_iteration_is_clean(self, reported):
        assert not reported(
            "SIM003",
            """\
            def emit(peers: list):
                return [peer for peer in peers]
            """,
        )

    def test_dict_iteration_is_clean(self, reported):
        # Python dicts are insertion-ordered, hence deterministic here.
        assert not reported(
            "SIM003",
            """\
            def emit(stats: dict):
                return [key for key in stats]
            """,
        )

    def test_set_to_set_is_clean(self, reported):
        assert not reported(
            "SIM003",
            """\
            def copy_of(hosts: set):
                return {host for host in hosts}
            """,
        )

    def test_not_applied_to_tests_category(self, reported):
        assert not reported(
            "SIM003",
            """\
            def check(hosts: set):
                return list(hosts)
            """,
            path="tests/test_fake.py",
        )


class TestSuppression:
    def test_standalone_allow_with_reason(self, analyze):
        findings = analyze(
            "SIM003",
            """\
            def first(single: set):
                # repro: allow[SIM003] singleton set by construction
                return next(iter(single))
            """,
        )
        assert len(findings) == 1
        assert findings[0].suppressed
        assert "singleton" in findings[0].justification
