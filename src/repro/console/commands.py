"""Console command processor.

Commands (one per line; ``#`` starts a comment):

    schema CREATE TABLE t (...)          collect a global table definition
    network create                        instantiate the network
    peer add <id> [type=m1.small] [tables=a,b]
    peer list | peer depart <id> | peer crash <id>
    load <peer> <table> <file.csv>        or inline: load p t 1,foo;2,bar
    role full <name>                      full access to every table
    role define <name> <table.col:rw[:low..high]> ...
    user create <name> <origin-peer> <role>
    sql [engine=basic] [user=<u>] [peer=<p>] SELECT ...
    explain [peer=<p>] SELECT ...         show a peer's local physical plan
    histogram <table> <col> [col...]      build + register a histogram
    maintenance                           run one Algorithm-1 epoch
    bootstrap status                      HA pair: leader, epoch, log, lag
    serving status                        front door: queues, SLO counters
    baton status                          overlay: per-node load, balancing
    baton rebalance                       one measured-load balancing round
    metrics | status | billing <hours> | help
"""

from __future__ import annotations

import csv
import io
import os
import shlex
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import BestPeerNetwork, READ, Role, WRITE, rule
from repro.core.config import DEFAULT_ENGINE, DEFAULT_INSTANCE_TYPE
from repro.errors import ReproError
from repro.sqlengine.parser import CreateTableStmt, parse
from repro.sqlengine.schema import TableSchema


class ConsoleError(ReproError):
    """A command could not be executed (bad syntax, wrong state)."""


class Console:
    """Stateful command processor over one BestPeer++ deployment."""

    def __init__(self, network: Optional[BestPeerNetwork] = None) -> None:
        self.network = network
        self._pending_schemas: Dict[str, TableSchema] = {}
        self._handlers: Dict[str, Callable[[str], str]] = {
            "schema": self._cmd_schema,
            "network": self._cmd_network,
            "peer": self._cmd_peer,
            "load": self._cmd_load,
            "role": self._cmd_role,
            "user": self._cmd_user,
            "sql": self._cmd_sql,
            "explain": self._cmd_explain,
            "histogram": self._cmd_histogram,
            "maintenance": self._cmd_maintenance,
            "bootstrap": self._cmd_bootstrap,
            "serving": self._cmd_serving,
            "baton": self._cmd_baton,
            "metrics": self._cmd_metrics,
            "status": self._cmd_status,
            "billing": self._cmd_billing,
            "help": self._cmd_help,
        }

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, line: str) -> str:
        """Run one command line; returns its output text."""
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return ""
        keyword, _, rest = stripped.partition(" ")
        handler = self._handlers.get(keyword.lower())
        if handler is None:
            raise ConsoleError(
                f"unknown command {keyword!r}; try 'help'"
            )
        return handler(rest.strip())

    def run_script(self, lines: Sequence[str]) -> List[str]:
        """Run many commands; returns the non-empty outputs."""
        outputs = []
        for line in lines:
            output = self.execute(line)
            if output:
                outputs.append(output)
        return outputs

    # ------------------------------------------------------------------
    # Schema / network lifecycle
    # ------------------------------------------------------------------
    def _cmd_schema(self, rest: str) -> str:
        statement = parse(rest)
        if not isinstance(statement, CreateTableStmt):
            raise ConsoleError("schema expects a CREATE TABLE statement")
        schema = TableSchema(
            statement.name, statement.columns, statement.primary_key
        )
        self._pending_schemas[schema.name] = schema
        return f"schema {schema.name} ({len(schema.columns)} columns) staged"

    def _cmd_network(self, rest: str) -> str:
        if rest != "create":
            raise ConsoleError("usage: network create")
        if self.network is not None:
            raise ConsoleError("network already created")
        if not self._pending_schemas:
            raise ConsoleError("define at least one schema first")
        self.network = BestPeerNetwork(self._pending_schemas)
        return (
            f"network created with global schema: "
            f"{', '.join(sorted(self._pending_schemas))}"
        )

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------
    def _cmd_peer(self, rest: str) -> str:
        net = self._require_network()
        parts = shlex.split(rest)
        if not parts:
            raise ConsoleError("usage: peer add|list|depart|crash ...")
        action, args = parts[0], parts[1:]
        if action == "list":
            if not net.peers:
                return "no peers"
            lines = []
            for peer_id in sorted(net.peers):
                peer = net.peers[peer_id]
                lines.append(
                    f"{peer_id}: instance={peer.host} "
                    f"type={peer.instance.instance_type.name} "
                    f"online={peer.online}"
                )
            return "\n".join(lines)
        if action == "add":
            if not args:
                raise ConsoleError("usage: peer add <id> [type=..] [tables=..]")
            peer_id = args[0]
            options = _parse_options(args[1:])
            tables = (
                options["tables"].split(",") if "tables" in options else None
            )
            peer = net.add_peer(
                peer_id,
                instance_type=options.get("type", DEFAULT_INSTANCE_TYPE),
                tables=tables,
            )
            return f"peer {peer_id} joined on instance {peer.host}"
        if action == "depart":
            net.depart_peer(self._one_arg(args, "peer depart <id>"))
            return f"peer {args[0]} departed"
        if action == "crash":
            net.crash_peer(self._one_arg(args, "peer crash <id>"))
            return f"peer {args[0]} crashed"
        raise ConsoleError(f"unknown peer action {action!r}")

    # ------------------------------------------------------------------
    # Data loading
    # ------------------------------------------------------------------
    def _cmd_load(self, rest: str) -> str:
        net = self._require_network()
        parts = shlex.split(rest)
        if len(parts) != 3:
            raise ConsoleError("usage: load <peer> <table> <file.csv|inline>")
        peer_id, table, source = parts
        schema = net.global_schemas.get(table.lower())
        if schema is None:
            raise ConsoleError(f"unknown table {table!r}")
        rows = _read_rows(source)
        net.load_peer(peer_id, {table: rows})
        return f"loaded {len(rows)} rows into {table} at {peer_id}"

    # ------------------------------------------------------------------
    # Roles and users
    # ------------------------------------------------------------------
    def _cmd_role(self, rest: str) -> str:
        net = self._require_network()
        parts = shlex.split(rest)
        if len(parts) < 2:
            raise ConsoleError("usage: role full <name> | role define <name> <rules>")
        action, name = parts[0], parts[1]
        if action == "full":
            net.create_full_access_role(name)
            return f"role {name} defined (full access)"
        if action == "define":
            rules = [_parse_rule(text) for text in parts[2:]]
            if not rules:
                raise ConsoleError("role define needs at least one rule")
            net.define_role(Role(name, rules))
            return f"role {name} defined ({len(rules)} rules)"
        raise ConsoleError(f"unknown role action {action!r}")

    def _cmd_user(self, rest: str) -> str:
        net = self._require_network()
        parts = shlex.split(rest)
        if len(parts) != 4 or parts[0] != "create":
            raise ConsoleError("usage: user create <name> <origin-peer> <role>")
        _, user, origin, role_name = parts
        role = net.bootstrap.roles.get(role_name)
        if role is None:
            raise ConsoleError(f"unknown role {role_name!r}")
        net.create_user(user, origin, role)
        return f"user {user} created at {origin} with role {role_name}"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _cmd_sql(self, rest: str) -> str:
        net = self._require_network()
        options, sql = _leading_options(rest)
        if not sql:
            raise ConsoleError("usage: sql [engine=..] [user=..] [peer=..] SELECT ...")
        execution = net.execute(
            sql,
            peer_id=options.get("peer"),
            engine=options.get("engine", DEFAULT_ENGINE),
            user=options.get("user"),
        )
        lines = [
            " | ".join(execution.columns),
        ]
        for row in execution.records[:20]:
            lines.append(" | ".join(_render(value) for value in row))
        if len(execution.records) > 20:
            lines.append(f"... ({len(execution.records) - 20} more rows)")
        lines.append(
            f"-- {len(execution.records)} rows, {execution.strategy}, "
            f"{execution.latency_s:.3f}s simulated, "
            f"{execution.bytes_transferred:,} bytes, "
            f"${execution.dollar_cost:.6f}"
        )
        return "\n".join(lines)

    def _cmd_explain(self, rest: str) -> str:
        """Explain a query against one peer's local engine."""
        net = self._require_network()
        options, sql = _leading_options(rest)
        if not sql:
            raise ConsoleError("usage: explain [peer=<p>] SELECT ...")
        peer_id = options.get("peer") or sorted(net.peers)[0]
        peer = net.peers.get(peer_id)
        if peer is None:
            raise ConsoleError(f"unknown peer {peer_id!r}")
        return peer.database.explain(sql)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _cmd_histogram(self, rest: str) -> str:
        net = self._require_network()
        parts = shlex.split(rest)
        if len(parts) < 2:
            raise ConsoleError("usage: histogram <table> <col> [col...]")
        histogram = net.build_histogram(parts[0], parts[1:])
        return (
            f"histogram on {parts[0]}({', '.join(parts[1:])}): "
            f"{len(histogram.buckets)} buckets, "
            f"{histogram.relation_size()} tuples"
        )

    def _cmd_maintenance(self, rest: str) -> str:
        net = self._require_network()
        report = net.run_maintenance()
        return (
            f"failovers={len(report.failovers)} "
            f"scalings={len(report.scalings)} "
            f"released={len(report.released_instances)} "
            f"notified={report.notified_peers}"
        )

    def _cmd_bootstrap(self, rest: str) -> str:
        """Report the bootstrap HA pair's health (leader, log, lag)."""
        if rest != "status":
            raise ConsoleError("usage: bootstrap status")
        net = self._require_network()
        cluster = net.bootstrap_cluster
        lines = [
            f"leader: {cluster.leader_id} (epoch {cluster.epoch}, "
            f"online={cluster.leader.online})",
            f"log: {len(cluster.leader.log)} entries, "
            f"{cluster.promotions} promotion(s)",
        ]
        lag = cluster.replication_lag()
        for node_id in sorted(lag):
            lines.append(f"  standby {node_id}: {lag[node_id]} entries behind")
        events = net.metrics.recent_events()
        if events:
            lines.append("recent events:")
            for when, description in events:
                lines.append(f"  t={when:.1f}s {description}")
        return "\n".join(lines)

    def _cmd_serving(self, rest: str) -> str:
        """Report the serving front door's queues and per-tenant SLOs."""
        if rest != "status":
            raise ConsoleError("usage: serving status")
        net = self._require_network()
        if net.serving is None and not net.metrics.serving:
            return "serving front door not attached (BestPeerNetwork.attach_serving)"
        lines = []
        if net.serving is not None:
            lines.append(net.serving.status())
        if net.metrics.serving:
            lines.append("per-tenant SLOs:")
            for tenant, lane in sorted(net.metrics.serving):
                stats = net.metrics.serving[(tenant, lane)]
                lines.append(
                    f"  {tenant}/{lane}: offered={stats.offered} "
                    f"admitted={stats.admitted} "
                    f"completed={stats.completed} failed={stats.failed} "
                    f"shed={stats.shed} "
                    f"(full={stats.shed_queue_full}, "
                    f"backpressure={stats.shed_backpressure}) "
                    f"deadline_missed={stats.deadline_missed}"
                )
                if stats.e2e_latency.count:
                    lines.append(
                        f"    wait p50={stats.queue_wait.percentile(0.5):.3f}s "
                        f"p99={stats.queue_wait.percentile(0.99):.3f}s | "
                        f"e2e p50={stats.e2e_latency.percentile(0.5):.3f}s "
                        f"p99={stats.e2e_latency.percentile(0.99):.3f}s"
                    )
        return "\n".join(lines)

    def _cmd_baton(self, rest: str) -> str:
        """Report or drive the BATON overlay's load balancing."""
        net = self._require_network()
        if rest == "rebalance":
            report = net.rebalance_overlay()
            return (
                f"rebalance: hot={len(report.hot_nodes)} "
                f"migrations={report.migrations} "
                f"entries_moved={report.entries_moved} "
                f"max/mean {report.ratio_before:.2f} -> "
                f"{report.ratio_after:.2f}"
            )
        if rest != "status":
            raise ConsoleError("usage: baton status | baton rebalance")
        balancer = net.load_balancer
        tree = balancer.tree
        nodes = tree.nodes()
        if not nodes:
            return "overlay is empty"
        mean = balancer.mean_score()
        hot_ids = {node.node_id for node in balancer.hot_nodes()}
        lines = [
            f"overlay: {len(nodes)} node(s), "
            f"mean load={mean:.2f}, "
            f"max/mean={balancer.max_mean_ratio():.2f}, "
            f"hot(>{net.load_balancer.config.hot_multiple:g}x mean)="
            f"{len(hot_ids)}",
            f"balancing: rounds={balancer.rounds} "
            f"migrations={balancer.total_migrations} "
            f"entries_moved={balancer.total_entries_moved} "
            f"census_checks={balancer.census_checks}",
            f"replica reads: fanout={net.overlay.fanout_reads} "
            f"failover={net.overlay.failover_reads}",
        ]
        for node in sorted(nodes, key=lambda n: n.node_id):
            load = node.load
            marker = " HOT" if node.node_id in hot_ids else ""
            lines.append(
                f"  {node.node_id}: score={load.score():.2f} "
                f"routing={load.routing_hits} reads={load.reads} "
                f"writes={load.writes} entries={len(node.items)}"
                f"{marker}"
            )
        return "\n".join(lines)

    def _cmd_metrics(self, rest: str) -> str:
        return self._require_network().metrics.summary()

    def _cmd_status(self, rest: str) -> str:
        net = self._require_network()
        databases = [peer.database for peer in net.peers.values()]
        lines = [
            f"peers: {len(net.peers)}",
            f"simulated time: {net.clock.now:.1f}s",
            f"bytes on the wire so far: {net.network.total.bytes:,}",
            "faults absorbed: " + _pairs(net.metrics.faults.as_dict()),
            "wire faults: " + _pairs(asdict(net.network.fault_stats)),
            f"plan cache: hits={sum(db.plan_cache_hits for db in databases)}, "
            f"misses={sum(db.plan_cache_misses for db in databases)}",
        ]
        for peer_id in sorted(net.peers):
            peer = net.peers[peer_id]
            lines.append(
                f"  {peer_id}: {peer.instance.instance_type.name}, "
                f"{peer.database.total_bytes:,} bytes in "
                f"{len(peer.database.table_names())} tables, "
                f"online={peer.online}"
            )
        return "\n".join(lines)

    def _cmd_billing(self, rest: str) -> str:
        net = self._require_network()
        try:
            hours = float(rest)
        except ValueError:
            raise ConsoleError("usage: billing <hours>") from None
        lines = []
        total = 0.0
        for peer_id in sorted(net.peers):
            charge = net.cloud.bill(net.peers[peer_id].host, hours)
            total += charge
            lines.append(f"  {peer_id}: ${charge:.4f}")
        lines.append(f"total for {hours:g}h: ${total:.4f}")
        return "\n".join(lines)

    def _cmd_help(self, rest: str) -> str:
        return __doc__.strip()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_network(self) -> BestPeerNetwork:
        if self.network is None:
            raise ConsoleError("no network yet; run 'network create' first")
        return self.network

    @staticmethod
    def _one_arg(args: Sequence[str], usage: str) -> str:
        if len(args) != 1:
            raise ConsoleError(f"usage: {usage}")
        return args[0]


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------
def _parse_options(parts: Sequence[str]) -> Dict[str, str]:
    options: Dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise ConsoleError(f"expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        options[key] = value
    return options


def _leading_options(rest: str) -> Tuple[Dict[str, str], str]:
    """Split ``engine=.. user=.. SELECT ...`` into options + SQL."""
    options: Dict[str, str] = {}
    tokens = rest.split()
    index = 0
    while index < len(tokens) and "=" in tokens[index] and not tokens[
        index
    ].upper().startswith("SELECT"):
        key, _, value = tokens[index].partition("=")
        options[key.lower()] = value
        index += 1
    return options, " ".join(tokens[index:])


def _read_rows(source: str) -> List[tuple]:
    """Rows from a CSV file path, or inline ``a,b;c,d`` text."""
    if os.path.exists(source):
        with open(source, newline="") as handle:
            return [tuple(_coerce(v) for v in row) for row in csv.reader(handle)]
    reader = csv.reader(io.StringIO(source.replace(";", "\n")))
    rows = [tuple(_coerce(value) for value in row) for row in reader]
    if not rows:
        raise ConsoleError(f"no rows in {source!r}")
    return rows


def _coerce(text: str) -> object:
    text = text.strip()
    if text == "" or text.upper() == "NULL":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_rule(text: str):
    """``table.col:rw`` or ``table.col:r:0..100`` -> an AccessRule."""
    pieces = text.split(":")
    if len(pieces) not in (2, 3):
        raise ConsoleError(
            f"rule format is table.col:privs[:low..high], got {text!r}"
        )
    column, privileges = pieces[0], pieces[1].lower()
    if not privileges or set(privileges) - {"r", "w"}:
        raise ConsoleError(f"privileges are 'r', 'w' or 'rw', got {pieces[1]!r}")
    privs = []
    if "r" in privileges:
        privs.append(READ)
    if "w" in privileges:
        privs.append(WRITE)
    value_range = None
    if len(pieces) == 3:
        low_text, separator, high_text = pieces[2].partition("..")
        if not separator:
            raise ConsoleError(f"range format is low..high, got {pieces[2]!r}")
        value_range = (_coerce(low_text), _coerce(high_text))
    return rule(column, privs, value_range)


def _pairs(counts: Dict[str, int]) -> str:
    return ", ".join(f"{name}={value}" for name, value in counts.items())


def _render(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
