"""Corner cases of the Phase-A flow extractor, driven through SEC003.

Each scenario routes rows read remotely without access rewriting
(``peer.execute_local``) toward ``net.transfer`` so the assertion is
simply "does the taint survive this construct" — the rule is the
oscilloscope, the construct under test is the dataflow semantics.
"""

import random

from repro.analysis import analyze_project, get_rule
from repro.analysis.dataflow import receiver_tokens


class TestConstructs:
    def test_plain_assignment_flows(self, reported):
        assert reported(
            "SEC003",
            """\
            def go(peer, net):
                rows = peer.execute_local('q')
                net.transfer('a', 'b', rows)
            """,
        )

    def test_reassignment_kills_taint(self, reported):
        assert not reported(
            "SEC003",
            """\
            def go(peer, net):
                rows = peer.execute_local('q')
                rows = []
                net.transfer('a', 'b', rows)
            """,
        )

    def test_aug_assign_is_a_weak_update(self, reported):
        # ``rows += fetched`` mixes taint into whatever rows held.
        assert reported(
            "SEC003",
            """\
            def go(peer, net):
                rows = []
                rows += peer.execute_local('q')
                net.transfer('a', 'b', rows)
            """,
        )

    def test_tuple_unpack_is_element_wise(self, reported):
        findings = reported(
            "SEC003",
            """\
            def go(peer, net):
                a, b = peer.execute_local('q'), 1.0

                net.transfer('a', 'b', b)
                net.transfer('a', 'b', a)
            """,
        )
        assert len(findings) == 1
        assert findings[0].line == 5  # only the transfer of ``a``

    def test_comprehension_taints_the_container(self, reported):
        assert reported(
            "SEC003",
            """\
            def go(peer, net, queries):
                batches = [peer.execute_local(q) for q in queries]
                net.transfer('a', 'b', batches[0])
            """,
        )

    def test_walrus_binds_and_flows(self, reported):
        assert reported(
            "SEC003",
            """\
            def go(peer, net):
                net.transfer('a', 'b', (rows := peer.execute_local('q')))
            """,
        )

    def test_except_rebinding_on_every_path_kills_taint(self, reported):
        # Both the try body and the handler overwrite ``rows`` with a clean
        # value, so the pre-try taint cannot reach the transfer.
        assert not reported(
            "SEC003",
            """\
            def go(peer, net, cached):
                rows = peer.execute_local('q')
                try:
                    rows = cached()
                except ValueError:
                    rows = []
                net.transfer('a', 'b', rows)
            """,
        )

    def test_handler_sees_mid_body_taint(self, reported):
        # The handler runs with the body partially executed: the tainted
        # binding from before the raise point must merge in.
        assert reported(
            "SEC003",
            """\
            def go(peer, net, risky):
                rows = []
                try:
                    rows = peer.execute_local('q')
                    risky()
                except ValueError:
                    net.transfer('a', 'b', rows)
            """,
        )

    def test_branch_merge_unions_both_arms(self, reported):
        assert reported(
            "SEC003",
            """\
            def go(peer, net, flag):
                if flag:
                    rows = peer.execute_local('q')
                else:
                    rows = []
                net.transfer('a', 'b', rows)
            """,
        )

    def test_loop_carried_flow_is_seen(self, reported):
        # ``rows`` is tainted only on the second trip around the loop.
        assert reported(
            "SEC003",
            """\
            def go(peer, net, items):
                rows = []
                for _ in items:
                    net.transfer('a', 'b', rows)
                    rows = peer.execute_local('q')
            """,
        )

    def test_taint_through_self_attribute_across_methods(self, reported):
        assert reported(
            "SEC003",
            """\
            class Driver:
                def grab(self, peer):
                    self.rows = peer.execute_local('q')

                def go(self, net):
                    net.transfer('a', 'b', self.rows)
            """,
        )

    def test_mutator_pushes_taint_into_container(self, reported):
        assert reported(
            "SEC003",
            """\
            def go(peer, net):
                acc = []
                acc.append(peer.execute_local('q'))
                net.transfer('a', 'b', acc[0])
            """,
        )

    def test_helper_return_launders_nothing(self, reported):
        # Interprocedural: taint survives a helper's return value.
        assert reported(
            "SEC003",
            """\
            def fetch(peer):
                return peer.execute_local('q')

            def go(peer, net):
                net.transfer('a', 'b', fetch(peer))
            """,
        )


class TestDeterminism:
    FILES = {
        "src/repro/fake/reads.py": (
            "def fetch(peer):\n"
            "    return peer.execute_local('q')\n"
        ),
        "src/repro/fake/kernel.py": (
            "from repro.fake.reads import fetch\n"
            "def go(peer, net):\n"
            "    net.transfer('a', 'b', fetch(peer))\n"
        ),
        "src/repro/fake/other.py": (
            "def noop():\n"
            "    return 1\n"
        ),
    }

    def test_shuffled_file_orders_render_identically(self):
        rule = [get_rule("SEC003")]
        rendered = []
        paths = list(self.FILES)
        rng = random.Random(7)
        for _ in range(4):
            rng.shuffle(paths)
            files = {path: self.FILES[path] for path in paths}
            findings = analyze_project(files, rules=rule)
            rendered.append([f.render() for f in findings])
        assert rendered[0]  # the flow is found at all
        assert all(r == rendered[0] for r in rendered[1:])


class TestReceiverTokens:
    def test_tokens_split_on_identifier_boundaries(self):
        assert receiver_tokens("self._backlog") == {"self", "_backlog"}
        assert "log" not in receiver_tokens("self._backlog")
        assert "wal" in receiver_tokens("node.wal")
        assert receiver_tokens(None) == frozenset()
