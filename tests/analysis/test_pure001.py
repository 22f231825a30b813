"""PURE001: compiled evaluators / executor kernels must be pure."""


KERNEL = "proj/sqlengine/vectorize.py"
EXECUTOR = "proj/sqlengine/executor.py"


class TestFires:
    def test_wallclock_inside_a_lowered_kernel(self, project):
        findings = project("PURE001", {
            KERNEL: """
                import time

                def lower_filter(positions):
                    def run_filter(rows):
                        started = time.perf_counter()
                        return [r for r in rows if r[positions[0]]], started
                    return run_filter
            """,
        })
        assert len(findings) == 1
        finding = findings[0]
        assert "time.perf_counter(...)" in finding.message
        assert "wallclock" in finding.properties["offendingEffects"]
        assert finding.properties["effectSignature"]["wallclock"] is True

    def test_effect_three_calls_away_is_still_caught(self, project):
        findings = project("PURE001", {
            "proj/util.py": """
                import random

                def jitter():
                    return random.random()

                def scale(v):
                    return v * jitter()
            """,
            EXECUTOR: """
                from proj.util import scale

                def run_project(rows):
                    return [scale(r[0]) for r in rows]
            """,
        })
        assert len(findings) == 1
        # the witness walks from the kernel down to the intrinsic
        trace_text = " ".join(step[2] for step in findings[0].trace)
        assert "run_project" in trace_text
        assert "random.random(...)" in trace_text

    def test_mutation_of_foreign_state_is_impure(self, project):
        findings = project("PURE001", {
            "proj/sim/metrics.py": """
                class MetricSink:
                    def __init__(self):
                        self.samples = []
            """,
            KERNEL: """
                from proj.sim.metrics import MetricSink

                def run_probe(rows, sink: MetricSink):
                    sink.samples.append(len(rows))
                    return rows
            """,
        })
        assert len(findings) == 1
        assert "mutates(MetricSink)" in findings[0].properties[
            "offendingEffects"
        ]

    def test_deepest_function_reported_once_per_chain(self, project):
        findings = project("PURE001", {
            KERNEL: """
                import time

                def deep():
                    return time.perf_counter()

                def mid():
                    return deep()

                def top():
                    return mid()
            """,
        })
        assert len(findings) == 1
        assert "'deep'" in findings[0].message


class TestQuiet:
    def test_pure_kernels_pass(self, project):
        assert project("PURE001", {
            KERNEL: """
                def lower_filter(positions):
                    def run_filter(rows):
                        return [r for r in rows if r[positions[0]] is None]
                    return run_filter
            """,
        }) == []

    def test_engine_owned_mutation_is_allowed(self, project):
        # ExecStats-style counters owned by sqlengine are the executor's
        # business, not a side channel.
        assert project("PURE001", {
            EXECUTOR: """
                class ExecStats:
                    def __init__(self):
                        self.rows_seen = 0

                def run_scan(rows, stats: ExecStats):
                    stats.rows_seen += len(rows)
                    return list(rows)
            """,
        }) == []

    def test_raising_is_not_impure(self, project):
        assert project("PURE001", {
            KERNEL: """
                def lower_cast(position):
                    def run_cast(row):
                        if row[position] is None:
                            raise ValueError('null in cast')
                        return int(row[position])
                    return run_cast
            """,
        }) == []

    def test_modules_outside_the_engine_are_not_roots(self, project):
        assert project("PURE001", {
            "proj/serving/frontdoor.py": """
                import time

                def stamp():
                    return time.time()
            """,
        }) == []
