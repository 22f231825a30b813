"""HadoopDB — the baseline system of the paper's performance benchmark.

HadoopDB (Abouzeid et al., VLDB'09) is "an architectural hybrid of MapReduce
and DBMS technologies": every worker node hosts a local single-node database
(PostgreSQL in the paper; :class:`repro.sqlengine.Database` here) and an SMS
planner compiles SQL into chains of MapReduce jobs that push selections and
projections into the local databases.  The planner and the job driver are
not HadoopDB's own: they are :mod:`repro.plan`, the plan layer BestPeer++'s
engines run too.  This package is the cluster facade only — a leaf.

Configuration follows §6.1.3/§6.1.5 of the BestPeer++ paper: 256 MB HDFS
blocks, replication 3, one map and one reduce slot per worker, reducers set
equal to the number of workers, and — crucially — *no co-partitioning* ("we
disabled this co-partition function for HadoopDB"), so every join shuffles.
"""

from repro.hadoopdb.system import HadoopDbCluster, HadoopDbResult

__all__ = ["HadoopDbCluster", "HadoopDbResult"]
