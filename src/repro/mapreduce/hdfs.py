"""Simulated HDFS: a replicated block store over the simulated network.

Matches the configuration the paper uses for HadoopDB (Section 6.1.3):
256 MB blocks, replication factor 3.  A file holds a
:class:`~repro.sqlengine.batch.ColumnBatch` and its blocks slice it.  Reads
prefer a local replica; writes pipeline each block to ``replication``
datanodes and pay the network cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import HdfsError
from repro.sim.network import SimNetwork
from repro.sqlengine.batch import ColumnBatch

DEFAULT_BLOCK_SIZE = 256 * 1024 * 1024
DEFAULT_REPLICATION = 3


@dataclass
class HdfsBlock:
    """One block of a file: a slice of its batch plus its replica placement."""

    size_bytes: int
    batch: ColumnBatch
    replica_hosts: Tuple[str, ...]


@dataclass
class HdfsFile:
    """A write-once file made of replicated blocks."""

    path: str
    blocks: List[HdfsBlock] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return sum(block.size_bytes for block in self.blocks)


class Hdfs:
    """The namenode + datanode ensemble, simulated in one object."""

    def __init__(
        self,
        network: SimNetwork,
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = DEFAULT_REPLICATION,
    ) -> None:
        if block_size <= 0:
            raise HdfsError(f"block size must be positive: {block_size}")
        if replication < 1:
            raise HdfsError(f"replication must be >= 1: {replication}")
        self.network = network
        self.block_size = block_size
        self.replication = replication
        self._datanodes: List[str] = []
        self._files: Dict[str, HdfsFile] = {}
        self._placement_cursor = itertools.count()

    # ------------------------------------------------------------------
    # Cluster membership
    # ------------------------------------------------------------------
    def register_datanode(self, host: str) -> None:
        if host in self._datanodes:
            raise HdfsError(f"datanode already registered: {host!r}")
        if not self.network.has_host(host):
            raise HdfsError(f"datanode is not a network host: {host!r}")
        self._datanodes.append(host)

    @property
    def datanodes(self) -> List[str]:
        return list(self._datanodes)

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise HdfsError(f"no such file: {path!r}")
        del self._files[path]

    def list_files(self) -> List[str]:
        return sorted(self._files)

    def file(self, path: str) -> HdfsFile:
        hdfs_file = self._files.get(path)
        if hdfs_file is None:
            raise HdfsError(f"no such file: {path!r}")
        return hdfs_file

    def write(
        self,
        path: str,
        batch: ColumnBatch,
        size_bytes: int,
        writer_host: str,
    ) -> float:
        """Write a file from ``writer_host``; returns the simulated duration.

        The batch is split into blocks by byte proportion, each a slice of
        it (the rows' known widths and typed sizes sliced with it); each
        block is pipelined to ``replication`` datanodes (the first replica
        prefers the writer itself, as real HDFS does).
        """
        if not self._datanodes:
            raise HdfsError("no datanodes registered")
        if path in self._files:
            raise HdfsError(f"file already exists (HDFS is write-once): {path!r}")
        if size_bytes < 0:
            raise HdfsError(f"negative file size: {size_bytes}")

        count = len(batch)
        block_count = max(1, -(-size_bytes // self.block_size))  # ceil div
        per_block = max(1, -(-count // block_count)) if count else 0
        blocks: List[HdfsBlock] = []
        duration = 0.0
        for block_index in range(block_count):
            start = min(block_index * per_block, count)
            chunk = range(start, min(start + per_block, count))
            chunk_bytes = (
                size_bytes // block_count
                if block_index < block_count - 1
                else size_bytes - (size_bytes // block_count) * (block_count - 1)
            )
            replicas = self._place_replicas(writer_host)
            # The write pipeline forwards the block replica-to-replica.
            source = writer_host
            for replica in replicas:
                duration += self.network.transfer(source, replica, chunk_bytes)
                source = replica
            blocks.append(HdfsBlock(chunk_bytes, batch.take(chunk), tuple(replicas)))
        self._files[path] = HdfsFile(path, blocks)
        return duration

    def read(self, path: str, reader_host: str) -> Tuple[ColumnBatch, float]:
        """Read a whole file at ``reader_host``; returns (batch, duration)."""
        hdfs_file = self.file(path)
        duration = 0.0
        for block in hdfs_file.blocks:
            if reader_host in block.replica_hosts:
                source = reader_host  # local read, loopback pricing
            else:
                source = block.replica_hosts[0]
            duration += self.network.transfer(source, reader_host, block.size_bytes)
        batch = ColumnBatch.concat([block.batch for block in hdfs_file.blocks])
        return batch, duration

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _place_replicas(self, writer_host: str) -> List[str]:
        """First replica on the writer when possible, rest round-robin."""
        count = min(self.replication, len(self._datanodes))
        replicas: List[str] = []
        if writer_host in self._datanodes:
            replicas.append(writer_host)
        while len(replicas) < count:
            candidate = self._datanodes[
                next(self._placement_cursor) % len(self._datanodes)
            ]
            if candidate not in replicas:
                replicas.append(candidate)
        return replicas
