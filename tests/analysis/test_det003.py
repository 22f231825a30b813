"""DET003: library code stays on the simulated clock and seeded RNGs."""


HANDLERS = "proj/sim/handlers.py"


class TestFires:
    def test_sleep_inside_a_sim_module_function(self, project):
        findings = project("DET003", {
            HANDLERS: """
                import time

                def on_transfer_done(now):
                    time.sleep(0.01)
                    return now + 1.0
            """,
        })
        assert len(findings) == 1
        assert "time.sleep(...)" in findings[0].message
        assert "wallclock" in findings[0].properties["offendingEffects"]

    def test_callback_pushed_onto_a_queue_is_a_handler(self, project):
        # ``retry`` lives outside repro.sim, but handing it to push()
        # makes it handler code all the same.
        findings = project("DET003", {
            "proj/serving/retry.py": """
                import random

                def retry(now):
                    return now + random.random()

                def schedule_retry(queue, now):
                    queue.push(now + 1.0, retry)
            """,
        })
        assert len(findings) == 1
        assert "'retry'" in findings[0].message
        assert "global_random" in findings[0].properties["offendingEffects"]

    def test_helper_module_reached_from_a_handler(self, project):
        # A bench helper is no root itself (bench measures wall time), but
        # the library function that reaches it is.
        findings = project("DET003", {
            "proj/bench/util.py": """
                import time

                def backoff():
                    time.sleep(0.5)
            """,
            HANDLERS: """
                from proj.bench.util import backoff

                def on_timeout(now):
                    backoff()
                    return now
            """,
        })
        assert len(findings) == 1
        # reported at the handler (the contract root); the trace walks
        # down into the helper module that really sleeps
        assert "'on_timeout'" in findings[0].message
        paths = [step[0] for step in findings[0].trace]
        assert paths[0] == "proj/sim/handlers.py"
        assert paths[-1] == "proj/bench/util.py"


    def test_method_of_a_class_nested_in_a_function(self, project):
        # The finding names the method by its path through the enclosing
        # def and class, the one qualname every analysis keys by.
        findings = project("DET003", {
            "src/repro/core/clocky.py": """
                import time

                def outer():
                    class Local:
                        def tick(self):
                            return time.time()

                    return Local().tick()
            """,
        })
        assert len(findings) == 1
        assert "'outer.Local.tick'" in findings[0].message
        assert findings[0].line == 7

    def test_decorator_argument_is_charged_to_the_module_top_level(
        self, project
    ):
        # The decorator call runs when the def statement does, so the
        # witness starts at the module's top level, not at the wrapped def.
        findings = project("DET003", {
            "proj/bench/util.py": """
                import time

                def started():
                    return time.time()
            """,
            HANDLERS: """
                from proj.bench.util import started

                def stamp(at):
                    return lambda fn: fn

                @stamp(started())
                def on_tick(now):
                    return now
            """,
        })
        assert len(findings) == 1
        assert "proj.sim.handlers top-level" in findings[0].message
        assert findings[0].trace[0][1] == 7
        assert findings[0].trace[-1][2] == "started: time.time(...)"


class TestQuiet:
    def test_rescheduling_on_the_simulated_timeline(self, project):
        assert project("DET003", {
            HANDLERS: """
                def on_transfer_done(now, queue):
                    queue.push(now + 1.0, retry)

                def retry(now):
                    return now
            """,
        }) == []

    def test_simulated_network_send_is_fine(self, project):
        # DET003 polices the real world, not the simulated one.
        assert project("DET003", {
            HANDLERS: """
                def on_replicate(now, network, payload):
                    network.transfer(0, 1, payload)
                    return now
            """,
        }) == []

    def test_seeded_rng_is_fine(self, project):
        assert project("DET003", {
            HANDLERS: """
                def on_jitter(now, rng):
                    return now + rng.random()
            """,
        }) == []

    def test_non_sim_code_without_queue_contact_is_not_a_root(self, project):
        # bench measures wall time by design: outside DET003's boundary.
        assert project("DET003", {
            "proj/bench/timing.py": """
                import time

                def measure():
                    return time.perf_counter()
            """,
        }) == []
