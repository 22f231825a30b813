"""Tier-4 effect inference: extraction, fixpoint, witnesses, determinism."""

import random

from repro.analysis import analyze_project
from repro.analysis.effects import (
    EffectInference,
    class_name_tokens,
    receiver_name_tokens,
)
from repro.analysis.registry import get_rule


def infer(graph_of, files):
    return EffectInference.for_graph(graph_of(files))


def sig(inference, qual):
    assert qual in inference.bases, f"no such function: {qual}"
    return inference.signature(qual)


class TestIntrinsics:
    def test_wallclock_random_io_network(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time
                import random
                import os

                def clock():
                    return time.perf_counter()

                def entropy():
                    return random.random()

                def disk(path):
                    return open(path).read()

                def wire(self_net, payload):
                    self_net.transfer(0, 1, payload)

                def listdir():
                    return os.listdir('.')
            """,
        })
        assert sig(inference, "proj.mod:clock").wallclock
        assert sig(inference, "proj.mod:entropy").global_random
        assert sig(inference, "proj.mod:disk").real_io
        assert sig(inference, "proj.mod:wire").network_send
        assert sig(inference, "proj.mod:listdir").real_io

    def test_from_imports_resolve_to_intrinsics(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                from time import perf_counter
                from random import shuffle as mix

                def t():
                    return perf_counter()

                def r(items):
                    mix(items)
            """,
        })
        assert sig(inference, "proj.mod:t").wallclock
        assert sig(inference, "proj.mod:r").global_random

    def test_seeded_rng_instance_is_not_global_random(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import random

                def draw(rng):
                    return rng.random()

                def make():
                    return random.Random(7)
            """,
        })
        assert not sig(inference, "proj.mod:draw").global_random
        assert not sig(inference, "proj.mod:make").global_random

    def test_self_mutation_owner_is_enclosing_class(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                class Ledger:
                    def record(self, entry):
                        self.entries.append(entry)

                    def reset(self):
                        self.entries = []
            """,
        })
        assert sig(inference, "proj.mod:Ledger.record").mutates == (
            "proj.mod:Ledger",
        )
        assert sig(inference, "proj.mod:Ledger.reset").mutates == (
            "proj.mod:Ledger",
        )

    def test_annotated_param_mutation_owner(self, graph_of):
        inference = infer(graph_of, {
            "proj/state.py": """
                class BootstrapState:
                    def __init__(self):
                        self.peers = {}
            """,
            "proj/apply.py": """
                from proj.state import BootstrapState

                def apply(state: BootstrapState, entry):
                    state.peers[entry[0]] = entry[1]
            """,
        })
        assert sig(inference, "proj.apply:apply").mutates == (
            "proj.state:BootstrapState",
        )

    def test_local_container_mutation_is_not_shared(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                def build(rows):
                    out = []
                    for row in rows:
                        out.append(row)
                    return out
            """,
        })
        assert sig(inference, "proj.mod:build").pure

    def test_global_statement_mutation(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                _COUNTER = 0

                def bump():
                    global _COUNTER
                    _COUNTER += 1
            """,
        })
        assert sig(inference, "proj.mod:bump").mutates == (
            "proj.mod:<globals>",
        )


class TestPropagation:
    def test_effects_flow_up_call_chains(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def leaf():
                    return time.monotonic()

                def middle():
                    return leaf()

                def top():
                    return middle()
            """,
        })
        assert sig(inference, "proj.mod:top").wallclock

    def test_mutual_recursion_converges(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def ping(n):
                    if n <= 0:
                        return time.monotonic()
                    return pong(n - 1)

                def pong(n):
                    return ping(n - 1)

                def spin(n):
                    return spin(n - 1) if n else 0
            """,
        })
        assert sig(inference, "proj.mod:ping").wallclock
        assert sig(inference, "proj.mod:pong").wallclock
        assert sig(inference, "proj.mod:spin").pure

    def test_unique_fallback_method_needs_receiver_match(self, graph_of):
        files = {
            "proj/wal.py": """
                class MetadataLog:
                    def append(self, entry):
                        self.entries.append(entry)
            """,
            "proj/use.py": """
                class Holder:
                    def good(self, entry):
                        # receiver names the class: effects propagate
                        self.metadata_log.append(entry)

                    def unrelated(self, pending, entry):
                        # a plain list named nothing like MetadataLog
                        pending.append(entry)
            """,
        }
        inference = infer(graph_of, files)
        assert "proj.wal:MetadataLog" in sig(
            inference, "proj.use:Holder.good"
        ).mutates
        assert all(
            "MetadataLog" not in owner
            for owner in sig(inference, "proj.use:Holder.unrelated").mutates
        )

    def test_ambiguous_fallback_method_propagates_on_receiver_match(
        self, graph_of
    ):
        # Two ``append`` methods: the graph keeps no edge, but the call
        # site's candidates still reach effect inference.
        inference = infer(graph_of, {
            "proj/wal.py": """
                class MetadataLog:
                    def append(self, entry):
                        self.entries.append(entry)

                class Journal:
                    def append(self, entry):
                        self.lines.append(entry)
            """,
            "proj/use.py": """
                def record(metadata_log, entry):
                    metadata_log.append(entry)
            """,
        })
        assert sig(inference, "proj.use:record").mutates == (
            "proj.wal:MetadataLog",
        )

    def test_nested_class_methods_key_by_the_graph_qualname(self, graph_of):
        graph = graph_of({
            "proj/mod.py": """
                import time

                def outer():
                    class Local:
                        def tick(self):
                            return time.time()

                    return Local().tick()
            """,
        })
        inference = EffectInference.for_graph(graph)
        assert set(inference.bases) == set(graph.functions)
        assert sig(inference, "proj.mod:outer.Local.tick").wallclock
        assert sig(inference, "proj.mod:outer").wallclock

    def test_decorator_cannot_launder_effects(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def stamp(tag):
                    started = time.monotonic()
                    def wrap(fn):
                        return fn
                    return wrap

                @stamp('x')
                def decorated(v):
                    return v

                def plain(v):
                    return v
            """,
        })
        # the decorator call runs where the def statement does, so its
        # effect lands on the module's top level, not on the wrapped body
        assert sig(inference, "proj.mod:<module>").wallclock
        assert sig(inference, "proj.mod:decorated").pure
        assert sig(inference, "proj.mod:plain").pure

    def test_graph_and_effects_file_decorators_in_the_enclosing_scope(
        self, graph_of
    ):
        graph = graph_of({
            "proj/mod.py": """
                import time

                def stamp(at):
                    return lambda fn: fn

                class Clock:
                    @stamp(time.time())
                    def decorated(self, v=time.monotonic()):
                        return v
            """,
        })
        callers = {site.callee_name: site.caller for site in graph.call_sites}
        assert callers == {
            "stamp": "proj.mod:<module>",
            "time": "proj.mod:<module>",
            "monotonic": "proj.mod:<module>",
        }
        inference = EffectInference.for_graph(graph)
        assert sig(inference, "proj.mod:<module>").wallclock
        assert sig(inference, "proj.mod:Clock.decorated").pure

    def test_function_reference_argument_is_assumed_invoked(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def nap(now):
                    time.sleep(0.1)

                def launder(runner):
                    runner(nap)
            """,
        })
        # higher-order laundering: passing ``nap`` taints the passer
        assert sig(inference, "proj.mod:launder").wallclock


class TestWitness:
    def test_witness_is_grounded_and_ordered(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def leaf():
                    return time.monotonic()

                def top():
                    return leaf()
            """,
        })
        qual = "proj.mod:top"
        hops = inference.witness(qual, lambda a: a[0] == "wallclock")
        assert [h[0] for h in hops] == ["proj.mod:top", "proj.mod:leaf"]
        assert hops[-1][2] == "time.monotonic(...)"

    def test_witness_respects_exclusions(self, graph_of):
        inference = infer(graph_of, {
            "proj/mod.py": """
                import time

                def via_a():
                    return time.monotonic()

                def top():
                    return via_a()
            """,
        })
        qual = "proj.mod:top"
        blocked = inference.witness(
            qual,
            lambda a: a[0] == "wallclock",
            exclude=frozenset({"proj.mod:via_a"}),
        )
        assert blocked is None


class TestCaching:
    def test_inference_is_memoized_per_graph(self, graph_of):
        graph = graph_of({"proj/mod.py": "def f():\n    return 1\n"})
        first = EffectInference.for_graph(graph)
        assert EffectInference.for_graph(graph) is first


class TestDeterminism:
    FILES = {
        "proj/sim/handlers.py": (
            "import time\n"
            "from proj.sim.helpers import delay\n"
            "def on_done(now):\n"
            "    return delay(now)\n"
        ),
        "proj/sim/helpers.py": (
            "import time\n"
            "def delay(now):\n"
            "    time.sleep(0.01)\n"
            "    return now\n"
        ),
        "proj/sim/other.py": (
            "def noop():\n"
            "    return 1\n"
        ),
        "proj/plain.py": (
            "import random\n"
            "def draw():\n"
            "    return random.random()\n"
        ),
    }

    def test_shuffled_file_orders_render_identically(self):
        rule = [get_rule("DET003")]
        rendered = []
        paths = list(self.FILES)
        rng = random.Random(11)
        for _ in range(4):
            rng.shuffle(paths)
            files = {path: self.FILES[path] for path in paths}
            findings = analyze_project(files, rules=rule)
            rendered.append([f.render() for f in findings])
        assert rendered[0]  # the contract violation is found at all
        assert all(r == rendered[0] for r in rendered[1:])

    def test_shuffled_file_orders_infer_identical_signatures(self, graph_of):
        dumps = []
        paths = list(self.FILES)
        rng = random.Random(13)
        for _ in range(4):
            rng.shuffle(paths)
            inference = infer(
                graph_of, {path: self.FILES[path] for path in paths}
            )
            dumps.append(
                {
                    qual: signature.to_dict()
                    for qual, signature in (
                        (q, inference.signature(q)) for q in inference.bases
                    )
                }
            )
        assert all(d == dumps[0] for d in dumps[1:])


class TestHelpers:
    def test_class_name_tokens(self):
        tokens = class_name_tokens("MetadataLog")
        assert {"metadata", "log", "metadatalog"} <= tokens

    def test_receiver_name_tokens_depluralize(self):
        tokens = receiver_name_tokens("self._events")
        assert "events" in tokens and "event" in tokens
        assert "self" not in tokens
