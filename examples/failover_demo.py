#!/usr/bin/env python3
"""Auto fail-over, fault injection and strong consistency (§3.2, Algorithm 1).

Part 1 crashes a peer's instance mid-workload and shows that (a) the
bootstrap daemon detects it through CloudWatch, launches a fresh instance
and restores the database from the latest EBS snapshot, and (b) queries
touching the failed peer *block* until recovery completes — they never
return partial answers.

Part 2 installs a seeded :class:`FaultPlan` — random message drops plus a
transient unavailability window — and shows the retry/backoff layer
absorbing every fault: the answer stays identical while the fault counters
prove the chaos actually happened.

Run:  python examples/failover_demo.py
"""

import os
import sys
from dataclasses import asdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import BestPeerNetwork
from repro.sim import FaultPlan, Outage
from repro.tpch import Q2, SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator


def build_network():
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    for index in range(3):
        net.add_peer(f"corp-{index}")
        # load_peer also takes the initial EBS snapshot.
        net.load_peer(f"corp-{index}", TpchGenerator(seed=9).generate_peer(index))
    return net


def crash_demo(net, baseline):
    victim = "corp-1"
    old_host = net.peers[victim].host
    net.crash_peer(victim)
    print(f"\ncrashed {victim} (instance {old_host})")

    execution = net.execute(Q2(ship_date="1995-01-01"), engine="basic")
    print(
        f"query blocked {execution.blocked_on_failover_s:.1f}s for fail-over, "
        f"then answered {execution.scalar():,.2f} "
        f"in {execution.latency_s:.1f}s total"
    )
    assert abs(execution.scalar() - baseline.scalar()) < 1e-6

    peer = net.peers[victim]
    print(
        f"{victim} is back: instance {old_host} -> {peer.host}, "
        f"{peer.database.execute('SELECT COUNT(*) FROM lineitem').scalar():,} "
        "lineitem rows restored from EBS"
    )


def chaos_demo(net, baseline):
    # 20% of remote deliveries are dropped, and corp-2's instance refuses
    # a window of deliveries — both seeded, so the run is reproducible.
    plan = FaultPlan(
        seed=11,
        drop_probability=0.2,
        outages=[Outage(net.peers["corp-2"].host, start=2, end=5)],
    )
    net.install_fault_plan(plan)
    print("\ninstalled FaultPlan(seed=11): 20% drops + corp-2 outage window")

    execution = net.execute(Q2(ship_date="1995-01-01"), engine="basic")
    net.install_fault_plan(None)

    print(
        f"answered {execution.scalar():,.2f} under chaos "
        f"in {execution.latency_s:.1f}s "
        f"(backoff {execution.retry_backoff_s:.2f}s)"
    )
    faults = net.metrics.faults.as_dict()
    wire = asdict(net.network.fault_stats)
    for label, counts in (("faults absorbed", faults), ("caused by", wire)):
        print(f"{label}: " + ", ".join(f"{k}={v}" for k, v in counts.items() if v))
    assert net.network.fault_stats.total > 0
    assert abs(execution.scalar() - baseline.scalar()) < 1e-6


def main():
    net = build_network()
    baseline = net.execute(Q2(ship_date="1995-01-01"), engine="basic")
    print(f"baseline revenue: {baseline.scalar():,.2f} "
          f"({baseline.latency_s:.3f}s)")

    crash_demo(net, baseline)
    chaos_demo(net, baseline)
    print("\nstrong consistency held: identical answers through crash and chaos")


if __name__ == "__main__":
    main()
