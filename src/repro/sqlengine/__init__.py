"""An embedded relational engine, built from scratch.

Every BestPeer++ normal peer hosts "a dedicated MySQL database" and every
HadoopDB worker hosts a PostgreSQL instance.  This package is the
reproduction's stand-in for both: a small but real relational engine with

* a typed catalogue (:mod:`~repro.sqlengine.schema`),
* row storage with primary and secondary indexes
  (:mod:`~repro.sqlengine.table`, :mod:`~repro.sqlengine.indexes`),
* an expression language (:mod:`~repro.sqlengine.expr`),
* a SQL parser for the dialect the paper's workloads need
  (:mod:`~repro.sqlengine.parser`),
* a rule-based planner with index selection (:mod:`~repro.sqlengine.planner`),
* one expression lowering, into batch kernels over column vectors
  (:mod:`~repro.sqlengine.vectorize`), and a vectorized executor running
  them over column-major storage (:mod:`~repro.sqlengine.vexecutor`) — the
  one production path; its three evaluation functions (values, filter,
  grouped aggregate) are what the distributed engines' reducers and root
  steps run too,
* a row-at-a-time interpreted executor kept as the semantic oracle the
  vectorized one is tested against, which also evaluates UPDATE/DELETE
  and the group-by fallback (:mod:`~repro.sqlengine.executor`),
* the immutable column batch results travel in between plan boundaries
  (:mod:`~repro.sqlengine.batch`), and
* per-table statistics feeding histograms and the cost model
  (:mod:`~repro.sqlengine.stats`).

The public entry point is :class:`~repro.sqlengine.database.Database`.
"""

from repro.sqlengine.types import ColumnType
from repro.sqlengine.schema import Column, TableSchema
from repro.sqlengine.batch import ColumnBatch
from repro.sqlengine.table import MemTable, Table
from repro.sqlengine.database import EXECUTION_MODES, Database, QueryResult
from repro.sqlengine.parser import parse
from repro.sqlengine.stats import ColumnStats, TableStats
from repro.sqlengine.vexecutor import VectorizedExecutor

__all__ = [
    "ColumnType",
    "Column",
    "TableSchema",
    "ColumnBatch",
    "Table",
    "MemTable",
    "Database",
    "EXECUTION_MODES",
    "QueryResult",
    "VectorizedExecutor",
    "parse",
    "ColumnStats",
    "TableStats",
]
