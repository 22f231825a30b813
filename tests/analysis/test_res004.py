"""RES004: NetworkError-family escapes must be handled along the unwind."""


class TestPositive:
    def test_bare_helper_chain_to_transfer_fires(self, reported):
        findings = reported(
            "RES004",
            """\
            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(net, src, dst):
                return fetch_block(net, src, dst)
            """,
        )
        assert findings
        assert any("escape" in f.message for f in findings)

    def test_witness_trace_reaches_the_primitive(self, reported):
        findings = reported(
            "RES004",
            """\
            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(net, src, dst):
                return fetch_block(net, src, dst)
            """,
        )
        trace = findings[0].trace
        assert trace
        assert any("can raise" in note for _, _, note in trace)

    def test_direct_cross_peer_site_fires(self, reported):
        # An unprotected primitive in an entry point is itself the escape.
        findings = reported(
            "RES004",
            """\
            def ship(net, src, dst):
                return net.transfer(src, dst, 64)
            """,
        )
        assert len(findings) == 1
        assert "call_resilient" in findings[0].message
        assert findings[0].trace[0][2] == "net.transfer(...) can raise"

    def test_covered_helper_called_bare_elsewhere_fires(self, reported):
        # The helper is wrapped at one site (covered there), but the bare
        # call site lets the family unwind to an entry point.
        findings = reported(
            "RES004",
            """\
            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def careful(context, net, src, dst):
                def attempt():
                    return fetch_block(net, src, dst)

                return context.call_resilient('p', attempt)

            def careless(net, src, dst):
                return fetch_block(net, src, dst)
            """,
        )
        assert findings
        assert all(f.line >= 10 for f in findings)  # only the bare path


    def test_else_block_of_a_family_try_is_not_covered(self, reported):
        # A try's handlers do not catch what its ``else:`` block raises.
        findings = reported(
            "RES004",
            """\
            from repro.errors import NetworkError

            def ship(net, payload):
                try:
                    prepared = payload.prepare()
                except NetworkError:
                    return None
                else:
                    return net.transfer(0, 1, prepared)
            """,
        )
        assert len(findings) == 1
        assert findings[0].line == 9

class TestNegative:
    def test_family_handler_on_the_path_is_quiet(self, reported):
        assert not reported(
            "RES004",
            """\
            from repro.errors import NetworkError

            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(net, src, dst):
                try:
                    return fetch_block(net, src, dst)
                except NetworkError:
                    return None
            """,
        )

    def test_wrapped_entry_is_quiet(self, reported):
        assert not reported(
            "RES004",
            """\
            def fetch_block(net, src, dst):
                return net.transfer(src, dst, 4096)

            def pull(context, net, src, dst):
                def attempt():
                    return fetch_block(net, src, dst)

                return context.call_resilient('p', attempt)
            """,
        )

    def test_resilience_context_call_receiver_also_covers(self, reported):
        assert not reported(
            "RES004",
            """\
            def run(network, owner, query_peer):
                def fetch_report():
                    return network.transfer(owner.host, query_peer.host, 8)

                return network.resilience.call('p', fetch_report)
            """,
        )

    def test_mapreduce_unit_is_exempt(self, reported):
        # MapReduce's fault model is job re-execution, not message retry.
        assert not reported(
            "RES004",
            """\
            def shuffle(network, src, dst):
                return network.transfer(src, dst, 64)
            """,
            path="src/repro/mapreduce/shuffle.py",
        )

    def test_sim_unit_is_exempt(self, reported):
        assert not reported(
            "RES004",
            """\
            def fetch(net, src, dst):
                return net.transfer(src, dst, 1)

            def pull(net, src, dst):
                return fetch(net, src, dst)
            """,
            path="src/repro/sim/network.py",
        )
