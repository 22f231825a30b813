"""Tests for the administrator console."""

import pytest

from repro.console import Console, ConsoleError
from repro.core import BestPeerNetwork
from repro.sim import FaultPlan, Outage
from repro.tpch import Q2, SECONDARY_INDICES, TPCH_SCHEMAS, TpchGenerator


def booted_console():
    console = Console()
    console.run_script(
        [
            "schema CREATE TABLE item (id INTEGER PRIMARY KEY, "
            "label TEXT, price FLOAT)",
            "network create",
            "peer add acme",
            "peer add globex",
            "load acme item 1,anvil,99.5;2,rope,5.0",
            "load globex item 10,tnt,250.0",
        ]
    )
    return console


class TestLifecycle:
    def test_full_setup_script(self):
        console = booted_console()
        assert len(console.network.peers) == 2

    def test_comments_and_blanks_ignored(self):
        console = Console()
        assert console.execute("") == ""
        assert console.execute("   # a comment") == ""

    def test_unknown_command(self):
        with pytest.raises(ConsoleError):
            Console().execute("frobnicate now")

    def test_network_before_schema_rejected(self):
        with pytest.raises(ConsoleError):
            Console().execute("network create")

    def test_commands_before_network_rejected(self):
        console = Console()
        with pytest.raises(ConsoleError):
            console.execute("peer add x")

    def test_double_network_create_rejected(self):
        console = booted_console()
        with pytest.raises(ConsoleError):
            console.execute("network create")

    def test_schema_requires_create_table(self):
        console = Console()
        with pytest.raises(ConsoleError):
            console.execute("schema SELECT 1 FROM t")


class TestPeerCommands:
    def test_peer_list(self):
        output = booted_console().execute("peer list")
        assert "acme" in output
        assert "globex" in output
        assert "m1.small" in output

    def test_peer_add_with_options(self):
        console = booted_console()
        output = console.execute("peer add initech type=m1.large tables=item")
        assert "initech" in output
        assert console.network.peers["initech"].instance.instance_type.name == (
            "m1.large"
        )

    def test_peer_depart(self):
        console = booted_console()
        console.execute("peer depart globex")
        assert "globex" not in console.network.peers

    def test_peer_crash_then_maintenance(self):
        console = booted_console()
        console.execute("peer crash acme")
        output = console.execute("maintenance")
        assert "failovers=1" in output


class TestLoadAndQuery:
    def test_inline_load_and_sql(self):
        console = booted_console()
        output = console.execute("sql SELECT COUNT(*) FROM item")
        assert "3" in output.splitlines()[1]

    def test_csv_load(self, tmp_path):
        console = booted_console()
        path = tmp_path / "items.csv"
        path.write_text("100,widget,1.5\n101,gadget,2.5\n")
        console.execute("peer add newco")
        console.execute(f"load newco item {path}")
        output = console.execute("sql SELECT COUNT(*) FROM item")
        assert "5" in output.splitlines()[1]

    def test_sql_with_engine_option(self):
        console = booted_console()
        output = console.execute("sql engine=mapreduce SELECT COUNT(*) FROM item")
        assert "mapreduce" in output

    def test_sql_output_truncated(self):
        console = booted_console()
        console.execute("peer add bulk")
        rows = ";".join(f"{1000 + i},x,1.0" for i in range(30))
        console.execute(f"load bulk item {rows}")
        output = console.execute("sql SELECT id FROM item")
        assert "more rows" in output

    def test_null_rendering(self):
        console = booted_console()
        console.execute("peer add nully")
        console.execute("load nully item 500,NULL,NULL")
        output = console.execute("sql SELECT label, price FROM item WHERE id = 500")
        assert "NULL | NULL" in output

    def test_load_unknown_table_rejected(self):
        console = booted_console()
        with pytest.raises(ConsoleError):
            console.execute("load acme widgets 1,2")


class TestRolesAndUsers:
    def test_full_role_and_user(self):
        console = booted_console()
        console.execute("role full analyst")
        console.execute("user create alice acme analyst")
        output = console.execute("sql user=alice SELECT label FROM item")
        assert "anvil" in output

    def test_range_restricted_role_masks_values(self):
        console = booted_console()
        console.run_script(
            [
                "role define sales item.id:r item.label:r item.price:rw:0..100",
                "user create bob acme sales",
            ]
        )
        output = console.execute(
            "sql user=bob SELECT label, price FROM item ORDER BY label"
        )
        assert "tnt | NULL" in output     # 250.0 is out of range
        assert "anvil | 99.5" in output

    def test_bad_rule_syntax(self):
        console = booted_console()
        with pytest.raises(ConsoleError):
            console.execute("role define broken item.price")
        with pytest.raises(ConsoleError):
            console.execute("role define broken item.price:x")
        with pytest.raises(ConsoleError):
            console.execute("role define broken item.price:r:5")

    def test_user_with_unknown_role(self):
        console = booted_console()
        with pytest.raises(ConsoleError):
            console.execute("user create eve acme ghost_role")


class TestOperationalCommands:
    def test_status(self):
        output = booted_console().execute("status")
        assert "peers: 2" in output
        assert "acme" in output

    def test_status_reports_fault_counters(self):
        console = booted_console()
        output = console.execute("status")
        assert "faults absorbed:" in output
        assert "retries=0" in output
        console.network.metrics.faults.retries = 3
        console.network.metrics.faults.failovers = 1
        output = console.execute("status")
        assert "retries=3" in output
        assert "failovers=1" in output

    def test_metrics_after_queries(self):
        console = booted_console()
        console.execute("sql SELECT COUNT(*) FROM item")
        output = console.execute("metrics")
        assert "queries: 1" in output

    def test_billing(self):
        output = booted_console().execute("billing 10")
        assert "total for 10h" in output
        assert "$" in output

    def test_billing_requires_number(self):
        with pytest.raises(ConsoleError):
            booted_console().execute("billing soon")

    def test_histogram(self):
        output = booted_console().execute("histogram item price")
        assert "buckets" in output

    def test_help(self):
        assert "schema CREATE TABLE" in booted_console().execute("help")

    def test_explain(self):
        console = booted_console()
        output = console.execute("explain SELECT label FROM item WHERE id = 1")
        assert "index eq id = 1" in output

    def test_explain_unknown_peer(self):
        with pytest.raises(ConsoleError):
            booted_console().execute("explain peer=ghost SELECT 1 FROM item")


def tpch_console():
    """The three-peer TPC-H deployment of ``examples/failover_demo.py``."""
    net = BestPeerNetwork(TPCH_SCHEMAS, SECONDARY_INDICES)
    for index in range(3):
        net.add_peer(f"corp-{index}")
        net.load_peer(f"corp-{index}", TpchGenerator(seed=9).generate_peer(index))
    return Console(net)


def demo_fault_plan(net):
    return FaultPlan(
        seed=11,
        drop_probability=0.2,
        outages=[Outage(net.peers["corp-2"].host, start=2, end=5)],
    )


class TestCountsReadAtSource:
    def test_status_names_the_wire_fault_behind_each_retry(self):
        console = tpch_console()
        net = console.network
        net.install_fault_plan(demo_fault_plan(net))
        net.execute(Q2(ship_date="1995-01-01"), engine="basic")

        output = console.execute("status")

        assert "retries=3" in output
        assert "transient_rejections=3" in output
        for kind in ("dropped_messages", "timeouts", "injected_crashes",
                     "partition_rejections"):
            assert f"{kind}=0" in output

    def test_reset_forgets_every_earlier_count(self):
        console = tpch_console()
        net = console.network
        net.install_fault_plan(demo_fault_plan(net))
        net.execute(Q2(ship_date="1995-01-01"), engine="basic")
        net.execute(Q2(ship_date="1995-01-01"), engine="basic")
        net.install_fault_plan(None)
        net.metrics.reset()

        net.execute(Q2(ship_date="1995-01-01"), engine="basic")

        assert net.metrics.total_queries == 1
        assert net.metrics.faults.total == 0
        header, *engines = console.execute("metrics").splitlines()
        assert header == "queries: 1"
        assert len(engines) == 1 and "n=1 " in engines[0]


class TestServingStatus:
    def test_reports_not_attached(self):
        console = booted_console()
        output = console.execute("serving status")
        assert "not attached" in output

    def test_reports_queues_and_slo_counters(self):
        console = booted_console()
        net = console.network
        door = net.attach_serving()
        from repro.serving import ServingRequest

        door.register_tenant("acme", 2.0)
        door.submit(ServingRequest(tenant="acme", sql="SELECT COUNT(*) FROM item"))
        door.drain()
        output = console.execute("serving status")
        assert "workers: 0 busy / 4 total" in output
        assert "per-tenant SLOs:" in output
        assert "acme/interactive: offered=1 admitted=1 completed=1" in output
        assert "wait p50=" in output

    def test_usage_error(self):
        console = booted_console()
        with pytest.raises(ConsoleError, match="usage: serving status"):
            console.execute("serving")

    def test_requires_network(self):
        with pytest.raises(ConsoleError):
            Console().execute("serving status")


class TestScriptRunner:
    def test_main_runs_script_file(self, tmp_path, capsys):
        from repro.console.__main__ import main

        script = tmp_path / "setup.bp"
        script.write_text(
            "schema CREATE TABLE t (a INTEGER)\n"
            "network create\n"
            "peer add p\n"
            "load p t 1;2;3\n"
            "sql SELECT COUNT(*) FROM t\n"
        )
        assert main([str(script)]) == 0
        out = capsys.readouterr().out
        assert "3" in out

    def test_main_reports_script_errors(self, tmp_path, capsys):
        from repro.console.__main__ import main

        script = tmp_path / "bad.bp"
        script.write_text("peer add ghost\n")
        assert main([str(script)]) == 1
        assert "error" in capsys.readouterr().err


class TestBootstrapStatus:
    def test_reports_leader_log_and_standby_lag(self):
        console = booted_console()
        output = console.execute("bootstrap status")
        assert "leader: bootstrap (epoch 1, online=True)" in output
        assert "entries" in output
        assert "0 promotion(s)" in output
        assert "standby bootstrap-standby: 0 entries behind" in output

    def test_reports_promotion_after_crash(self):
        console = booted_console()
        net = console.network
        net.cloud.crash_instance(net.bootstrap_cluster.leader.host)
        net.bootstrap_cluster.recover()
        output = console.execute("bootstrap status")
        assert "leader: bootstrap-standby (epoch 2" in output
        assert "1 promotion(s)" in output
        assert "recent events:" in output
        assert "promotion: bootstrap -> bootstrap-standby" in output

    def test_usage_error_on_other_args(self):
        console = booted_console()
        with pytest.raises(ConsoleError, match="usage: bootstrap status"):
            console.execute("bootstrap")
        with pytest.raises(ConsoleError):
            console.execute("bootstrap promote")

    def test_requires_network(self):
        with pytest.raises(ConsoleError):
            Console().execute("bootstrap status")


class TestBatonCommands:
    def test_status_reports_overlay_and_per_node_load(self):
        console = booted_console()
        console.execute("sql SELECT id, label FROM item")
        output = console.execute("baton status")
        assert "overlay:" in output
        assert "mean load=" in output
        assert "max/mean=" in output
        assert "balancing: rounds=0 migrations=0" in output
        assert "replica reads: fanout=" in output
        # One indented line per overlay node, sorted by id.
        node_lines = [
            line for line in output.splitlines() if line.startswith("  ")
        ]
        assert node_lines == sorted(node_lines)
        assert all("score=" in line for line in node_lines)

    def test_rebalance_reports_a_round(self):
        console = booted_console()
        output = console.execute("baton rebalance")
        assert output.startswith("rebalance: hot=")
        assert "max/mean" in output
        assert console.network.load_balancer.rounds == 1

    def test_rebalance_shows_up_in_status_counters(self):
        console = booted_console()
        console.execute("baton rebalance")
        console.execute("baton rebalance")
        assert "rounds=2" in console.execute("baton status")

    def test_usage_error(self):
        console = booted_console()
        with pytest.raises(ConsoleError, match="usage: baton status"):
            console.execute("baton")
        with pytest.raises(ConsoleError):
            console.execute("baton explode")

    def test_requires_network(self):
        with pytest.raises(ConsoleError):
            Console().execute("baton status")

    def test_help_mentions_baton(self):
        assert "baton" in booted_console().execute("help")
