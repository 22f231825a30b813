"""SEC002: peers admitted or credentialed without CA verification."""

import pytest


class TestPositive:
    def test_register_without_verify_fires(self, project):
        findings = project(
            "SEC002",
            {
                "src/repro/core/net.py": """\
                def admit(bootstrap, peer):
                    return bootstrap.register_peer(peer)
                """
            },
        )
        assert len(findings) == 1
        assert "register_peer" in findings[0].message

    def test_certificate_handout_without_verify_fires(self, project):
        findings = project(
            "SEC002",
            {
                "src/repro/core/boot.py": """\
                def grant(ca, peer):
                    peer.certificate = ca.issue(peer.peer_id)
                """
            },
        )
        assert len(findings) == 1
        assert "certificate" in findings[0].message

    @pytest.mark.parametrize(
        "grant",
        [
            "peer.certificate, peer.role = cert, 'member'",
            "peer.certificate: object = cert",
        ],
        ids=["tuple-target", "annotated"],
    )
    def test_every_target_shape_is_a_handout(self, project, grant):
        findings = project(
            "SEC002",
            {"src/repro/core/boot.py": f"def grant(peer, cert):\n    {grant}\n"},
        )
        assert len(findings) == 1
        assert "certificate" in findings[0].message


class TestNegative:
    def test_verify_in_the_same_function_clears_admission(self, project):
        assert not project(
            "SEC002",
            {
                "src/repro/core/boot.py": """\
                def grant(ca, peer):
                    cert = ca.issue(peer.peer_id)
                    if not ca.verify(cert):
                        raise ValueError('bad certificate')
                    peer.certificate = cert
                """
            },
        )

    def test_verify_reached_through_a_precise_callee_clears_it(self, project):
        assert not project(
            "SEC002",
            {
                "src/repro/core/boot.py": """\
                class Bootstrap:
                    def register_peer(self, peer):
                        if not self.ca.verify(peer.certificate):
                            raise ValueError('bad certificate')
                """,
                "src/repro/core/net.py": """\
                def admit(bootstrap, peer):
                    return bootstrap.register_peer(peer)
                """,
            },
        )

    def test_storing_ones_own_certificate_is_exempt(self, project):
        # The receiving side of admission: the peer keeps what it was
        # granted; verification was the issuer's obligation.
        assert not project(
            "SEC002",
            {
                "src/repro/core/peer.py": """\
                class Peer:
                    def accept_grant(self, grant):
                        self.certificate = grant.certificate
                """
            },
        )

    def test_clearing_a_certificate_is_exempt(self, project):
        assert not project(
            "SEC002",
            {
                "src/repro/core/boot.py": """\
                def revoke(peer):
                    peer.certificate = None
                """
            },
        )

    def test_tests_category_is_not_emitted(self, project):
        assert not project(
            "SEC002",
            {
                "tests/core/test_boot.py": """\
                def admit(bootstrap, peer):
                    return bootstrap.register_peer(peer)
                """
            },
        )
