"""No historical catch is lost: each real bug a rule found, as the code
stood before its fix, must still fire its (surviving) rule, and the fixed
form must stay quiet.

One row per catch recorded in CHANGES.md, in the order the analyzer found
them, plus one row per fixed point a rule guards that has no recorded
catch (PURE001, ATOM001).  Every row runs the whole registered rule set,
so unregistering any kept rule fails at least one row.
"""

import textwrap

import pytest

from repro.analysis import analyze_project

# -- Online aggregation shipped partial aggregates unpriced (ISO002).

ONLINE_AGG_UNPRICED = """\
def online_aggregate(network, plan, local_plan, owners):
    for owner_id in owners:
        execution = network.peers[owner_id].execute_fetch(
            plan.base.table, local_plan.sql, user=None
        )
        yield execution.result.rows[0][0]
"""

# -- Its priced form still fetched unmasked rows with no role check
#    (SEC001, now SEC003) and outside the resilience layer (RES001, now
#    RES004); fixed by the access gate and a closure under resilience.call.

ONLINE_AGG_UNGATED = """\
def online_aggregate(network, plan, local_plan, owners, query_peer):
    for owner_id in owners:
        owner = network.peers[owner_id]
        execution = owner.execute_fetch(
            plan.base.table, local_plan.sql, user=None
        )
        network.network.transfer(
            owner.host, query_peer.host, execution.result.byte_size
        )
        yield execution.result.rows[0][0]
"""

ONLINE_AGG_GATED = """\
from repro.core.accesscheck import require_unrestricted_read


def online_aggregate(network, plan, local_plan, owners, query_peer, user):
    require_unrestricted_read(network.peers, [plan.base], owners, user)
    for owner_id in owners:

        def fetch_report(owner_id=owner_id):
            owner = network.peers[owner_id]
            execution = owner.execute_fetch(
                plan.base.table, local_plan.sql, user=None
            )
            network.network.transfer(
                owner.host, query_peer.host, execution.result.byte_size
            )
            return execution

        execution = network.resilience.call(owner_id, fetch_report)
        yield execution.result.rows[0][0]
"""

SINGLE_PEER = """\
from repro.core.accesscheck import require_unrestricted_read


class BasicEngine:
    def _single_peer(self, sql, plan, peer_id, user):
        context = self.context
{guard}
        def run_remote():
            owner = context.peer(peer_id)
            execution = owner.execute_local(sql)
            result_bytes = execution.result.byte_size
            transfer = context.network.transfer(
                owner.host, context.query_peer.host, result_bytes
            )
            return execution, result_bytes, transfer

        return context.call_resilient(peer_id, run_remote)
"""

SINGLE_PEER_GUARD = """\
        require_unrestricted_read(context.peers, [plan.base], [peer_id], user)
"""

REPLICA_REPAIR = """\
from typing import Set


class ReplicatedOverlay:
    def repair(self):
        assignment = self._current_assignment()
        dirty: Set[str] = {{
            primary_id
            for primary_id, holder_ids in assignment.items()
            if self._assignment.get(primary_id) != holder_ids
        }}
        for primary_id in {iterable}:
            for holder_id in self._assignment.get(primary_id, []):
                self._store[holder_id].pop(primary_id, None)
"""

CONSOLE_ADD_PEER = """\
{imports}

class Console:
    def _cmd_peer_add(self, net, peer_id, options):
        return net.add_peer(peer_id, instance_type=options.get("type", {default}))
"""

REGISTER_PEER = """\
class BootstrapPeer:
    def register_peer(self, peer, now):
        certificate = self.ca.issue(peer.peer_id, now)
{verify}        peer.certificate = certificate
        self._peers[peer.peer_id] = now
"""

REGISTER_PEER_VERIFY = """\
        if not self.ca.verify(certificate):
            raise ValueError("certificate failed CA verification")
"""

NETWORK_ADD_PEER = """\
class BestPeerNetwork:
    def add_peer(self, peer):
        self.bootstrap.register_peer(peer, 0.0)
"""

# -- A follower crash mid-resync unwound NetworkError out of bootstrap
#    lease acquisition (RES004).

RESYNC = """\
from repro.errors import NetworkError


class BootstrapCluster:
    def promote(self, primary, standby):
        self._resync(primary, standby)
        return standby

    def _resync(self, leader, follower):
{send}
        follower.rebuild(leader.log.entries_since(0))

    def _priced_send(self, src, dst, nbytes):
        self._send_args = (src, dst, nbytes)
        if self.resilience is not None:
            return self.resilience.call(dst, self._send)
        return self._send()

    def _send(self):
        return self.network.transfer(*self._send_args)
"""

RESYNC_BARE = """\
        self._priced_send(leader.host, follower.host, 1)"""

RESYNC_CAUGHT = """\
        try:
            self._priced_send(leader.host, follower.host, 1)
        except NetworkError:
            return"""

# -- CI's former effect drift gate: a public serving function reaching the
#    wall clock (now DET003, whose roots are the whole library).

SERVING_STACK = """\
{imports}

def last_item(items{clock_param}):
    note_time({clock_arg})
    return items.pop()


def note_time({clock_arg}):
    return {clock}
"""

# -- Fixed points with no recorded catch.

KERNEL = """\
{imports}

def _lower_filter(positions):
    def run_filter(rows):
{probe}        return [row for row in rows if row[positions[0]] is not None]
    return run_filter
"""

METADATA_STATE = """\
class BootstrapState:
    def __init__(self):
        self.peers = {}
"""

METALOG = """\
def apply(state, record):
    state.peers[record[0]] = record[1]
"""

BOOTSTRAP_ADMIT = """\
from repro.core import metalog


class Bootstrap:
    def admit(self, peer_id, info):
{write}
"""

ROWS = [
    pytest.param(
        "SIM003",
        {"src/repro/baton/replication.py": REPLICA_REPAIR.format(iterable="dirty")},
        {"src/repro/baton/replication.py": REPLICA_REPAIR.format(iterable="sorted(dirty)")},
        id="SIM003-replica-repair-loop",
    ),
    pytest.param(
        "ISO002",
        {"src/repro/core/online_aggregation.py": ONLINE_AGG_UNPRICED},
        {"src/repro/core/online_aggregation.py": ONLINE_AGG_UNGATED},
        id="ISO002-online-aggregation-unpriced",
    ),
    pytest.param(
        "CFG001",
        {"src/repro/console/commands.py": CONSOLE_ADD_PEER.format(
            imports="", default='"m1.small"')},
        {"src/repro/console/commands.py": CONSOLE_ADD_PEER.format(
            imports="from repro.core.config import DEFAULT_INSTANCE_TYPE",
            default="DEFAULT_INSTANCE_TYPE")},
        id="CFG001-inline-instance-type-default",
    ),
    pytest.param(
        "SEC003",
        {"src/repro/core/engine_basic.py": SINGLE_PEER.format(guard="")},
        {"src/repro/core/engine_basic.py": SINGLE_PEER.format(guard=SINGLE_PEER_GUARD)},
        id="SEC003-single-peer-pushdown-gate",
    ),
    pytest.param(
        "SEC003",
        {"src/repro/core/online_aggregation.py": ONLINE_AGG_UNGATED},
        {"src/repro/core/online_aggregation.py": ONLINE_AGG_GATED},
        id="SEC003-online-aggregation-gate",
    ),
    pytest.param(
        "SEC002",
        {"src/repro/core/bootstrap.py": REGISTER_PEER.format(verify=""),
         "src/repro/core/network.py": NETWORK_ADD_PEER},
        {"src/repro/core/bootstrap.py": REGISTER_PEER.format(verify=REGISTER_PEER_VERIFY),
         "src/repro/core/network.py": NETWORK_ADD_PEER},
        id="SEC002-register-peer-verifies",
    ),
    pytest.param(
        "RES004",
        {"src/repro/core/online_aggregation.py": ONLINE_AGG_UNGATED},
        {"src/repro/core/online_aggregation.py": ONLINE_AGG_GATED},
        id="RES004-online-aggregation-fetch-outside-resilience",
    ),
    pytest.param(
        "ARCH001",
        {"src/repro/sim/compute.py": "from repro.sqlengine.executor import ExecStats\n"},
        {"src/repro/sim/compute.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.sqlengine.executor import ExecStats\n")},
        id="ARCH001-sim-imports-sqlengine",
    ),
    pytest.param(
        "RES004",
        {"src/repro/core/bootstrap.py": RESYNC.format(send=RESYNC_BARE)},
        {"src/repro/core/bootstrap.py": RESYNC.format(send=RESYNC_CAUGHT)},
        id="RES004-resync-lease-network-error",
    ),
    pytest.param(
        "DET003",
        {"src/repro/serving/stack.py": SERVING_STACK.format(
            imports="import time", clock_param="", clock_arg="",
            clock="time.time()")},
        {"src/repro/serving/stack.py": SERVING_STACK.format(
            imports="", clock_param=", clock", clock_arg="clock",
            clock="clock.now_s()")},
        id="DET003-public-serving-function-reads-wall-clock",
    ),
    pytest.param(
        "PURE001",
        {"src/repro/sqlengine/vectorize.py": KERNEL.format(
            imports="import time",
            probe="        time.perf_counter()\n")},
        {"src/repro/sqlengine/vectorize.py": KERNEL.format(imports="", probe="")},
        id="PURE001-fixed-point-kernel-reads-clock",
    ),
    pytest.param(
        "ATOM001",
        {"src/repro/core/metalog.py": METADATA_STATE + METALOG,
         "src/repro/core/bootstrap.py": BOOTSTRAP_ADMIT.format(
             write="        self.state.peers[peer_id] = info")},
        {"src/repro/core/metalog.py": METADATA_STATE + METALOG,
         "src/repro/core/bootstrap.py": BOOTSTRAP_ADMIT.format(
             write="        metalog.apply(self.state, (peer_id, info))")},
        id="ATOM001-fixed-point-metadata-written-outside-the-wal",
    ),
]


def _fired(files):
    findings = analyze_project(
        {path: textwrap.dedent(source) for path, source in files.items()}
    )
    return {finding.rule for finding in findings if finding.reported}


@pytest.mark.parametrize("rule, before, after", ROWS)
def test_catch_still_fires_and_fix_stays_quiet(rule, before, after):
    assert rule in _fired(before)
    assert rule not in _fired(after)
