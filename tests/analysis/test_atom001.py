"""ATOM001: bootstrap metadata is mutated only through the WAL reducer."""


BOOTSTRAP = "proj/core/bootstrap.py"
METALOG = "proj/core/metalog.py"

STATE = """
    class BootstrapState:
        def __init__(self):
            self.peers = {}
            self.roles = {}
"""

WAL = """
    from proj.core.state import BootstrapState

    class MetadataLog:
        def __init__(self):
            self.entries = []

        def append(self, entry):
            self.entries.append(entry)

        def apply(self, state: BootstrapState, entry):
            state.peers[entry[1]] = entry[2]
"""


class TestFires:
    def test_hand_rolled_replication(self, project):
        findings = project("ATOM001", {
            "proj/core/state.py": STATE,
            BOOTSTRAP: """
                from proj.core.state import BootstrapState

                class Bootstrap:
                    def __init__(self, network):
                        self.state = BootstrapState()
                        self.network = network

                    def admit(self, peer_id, info):
                        self.state.peers[peer_id] = info
                        self.network.transfer(0, 1, ('admit', peer_id, info))
            """,
        })
        assert len(findings) == 1
        finding = findings[0]
        assert "'Bootstrap.admit'" in finding.message
        assert "metalog WAL reducer" in finding.message
        sig = finding.properties["effectSignature"]
        assert sig["network_send"] is True
        assert any("BootstrapState" in owner for owner in sig["mutates"])

    def test_pair_split_across_helpers_is_still_caught(self, project):
        # The mutation and the send live in different functions; the
        # mutation is still reported, once, where it bypasses the reducer.
        findings = project("ATOM001", {
            "proj/core/state.py": STATE,
            BOOTSTRAP: """
                from proj.core.state import BootstrapState

                class Bootstrap:
                    def __init__(self, network):
                        self.state = BootstrapState()
                        self.network = network

                    def _write(self, peer_id, info):
                        self.state.peers[peer_id] = info

                    def _replicate(self, entry):
                        self.network.transfer(0, 1, entry)

                    def admit(self, peer_id, info):
                        self._write(peer_id, info)
                        self._replicate(('admit', peer_id, info))
            """,
        })
        assert len(findings) == 1
        assert "'Bootstrap._write'" in findings[0].message

    def test_mutation_without_a_send_fires(self, project):
        # A standby replays the log: state written any other way diverges
        # whether or not the writer also talks on the wire.
        findings = project("ATOM001", {
            "proj/core/state.py": STATE,
            BOOTSTRAP: """
                from proj.core.state import BootstrapState

                class Bootstrap:
                    def __init__(self):
                        self.state = BootstrapState()

                    def admit_local(self, peer_id, info):
                        self.state.peers[peer_id] = info
            """,
        })
        assert len(findings) == 1
        assert "'Bootstrap.admit_local'" in findings[0].message


class TestQuiet:
    def test_mutation_routed_through_the_reducer(self, project):
        # Both effects appear in admit's signature, but the only chain to
        # the mutation passes through metalog — the sanctioned path.
        assert project("ATOM001", {
            "proj/core/state.py": STATE,
            METALOG: WAL,
            BOOTSTRAP: """
                from proj.core.state import BootstrapState
                from proj.core.metalog import MetadataLog

                class Bootstrap:
                    def __init__(self, network):
                        self.state = BootstrapState()
                        self.log = MetadataLog()
                        self.network = network

                    def admit(self, peer_id, info):
                        entry = ('admit', peer_id, info)
                        self.log.append(entry)
                        self.log.apply(self.state, entry)
                        self.network.transfer(0, 1, entry)
            """,
        }) == []

    def test_send_without_metadata_mutation_is_fine(self, project):
        assert project("ATOM001", {
            BOOTSTRAP: """
                class Bootstrap:
                    def __init__(self, network):
                        self.network = network
                        self.outbox = []

                    def gossip(self, payload):
                        self.outbox.append(payload)
                        self.network.broadcast(0, payload)
            """,
        }) == []

    def test_the_reducer_itself_is_exempt(self, project):
        # metalog replicating its own records is the sanctioned design.
        assert project("ATOM001", {
            "proj/core/state.py": STATE,
            METALOG: """
                from proj.core.state import BootstrapState

                class MetadataLog:
                    def __init__(self, network):
                        self.network = network

                    def append_and_ship(self, state: BootstrapState, entry):
                        state.peers[entry[1]] = entry[2]
                        self.network.transfer(0, 1, entry)
            """,
        }) == []
