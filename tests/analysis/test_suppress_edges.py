"""Suppression-grammar edge cases: shared lines and multi-line calls."""

import textwrap

from repro.analysis import analyze_source, get_rule


def _analyze(rule_ids, source):
    return analyze_source(
        textwrap.dedent(source),
        path="src/repro/fake.py",
        rules=[get_rule(rule_id) for rule_id in rule_ids],
    )


class TestSharedLine:
    SOURCE = """\
    def snapshot(peer, options):
        return peer.execute_local(options.get("sql", "q"))
    """

    def test_single_rule_allow_leaves_the_other_reported(self):
        source = self.SOURCE.replace(
            '"q"))', '"q"))  # repro: allow[ISO002] rows stay on the owner'
        )
        findings = _analyze(["ISO002", "CFG001"], source)
        by_rule = {finding.rule: finding for finding in findings}
        assert by_rule["ISO002"].suppressed
        assert by_rule["CFG001"].reported

    def test_both_rules_can_share_one_allow(self):
        source = self.SOURCE.replace(
            '"q"))', '"q"))  # repro: allow[ISO002,CFG001] debug snapshot'
        )
        findings = _analyze(["ISO002", "CFG001"], source)
        assert len(findings) == 2
        assert all(finding.suppressed for finding in findings)
        assert all(
            finding.justification == "debug snapshot" for finding in findings
        )


class TestMultiLineCalls:
    def test_standalone_allow_inside_a_call_covers_the_next_line(self):
        # The engines' idiom: the comment sits on its own line between the
        # call's open paren and the flagged argument line.
        (finding,) = _analyze(
            ["SIM003"],
            """\
            def pick(fire):
                the_peers = {1}
                return fire(
                    # repro: allow[SIM003] singleton set
                    next(iter(the_peers))
                )
            """,
        )
        assert finding.suppressed
        assert finding.justification == "singleton set"

    def test_standalone_allow_above_the_call_covers_its_first_line(self):
        (finding,) = _analyze(
            ["SIM003"],
            """\
            def pick():
                the_peers = {1}
                # repro: allow[SIM003] singleton set
                return list(
                    the_peers
                )
            """,
        )
        assert finding.suppressed

    def test_inline_allow_on_an_interior_line_misses_the_call_line(self):
        # Findings anchor at the call's first physical line; an inline
        # comment further down annotates the wrong line and must not hide
        # the finding.
        (finding,) = _analyze(
            ["SIM003"],
            """\
            def pick():
                the_peers = {1}
                return list(
                    the_peers  # repro: allow[SIM003] wrong line
                )
            """,
        )
        assert finding.reported
