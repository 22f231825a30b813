"""Simulated HDFS: a replicated block store over the simulated network.

Matches the configuration the paper uses for HadoopDB (Section 6.1.3):
256 MB blocks, replication factor 3.  Reads prefer a local replica; writes
pipeline each block to ``replication`` datanodes and pay the network cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import HdfsError
from repro.sim.network import SimNetwork

DEFAULT_BLOCK_SIZE = 256 * 1024 * 1024
DEFAULT_REPLICATION = 3


@dataclass
class HdfsBlock:
    """One block of a file: a slice of records plus its replica placement.

    ``widths`` keeps each record's ``len(str(record))`` and ``sizes`` its
    typed wire size next to it when the writer knew them, so a reader need
    not measure or price the rows again.
    """

    size_bytes: int
    records: List[object]
    replica_hosts: Tuple[str, ...]
    widths: Optional[List[int]] = None
    sizes: Optional[List[int]] = None


@dataclass
class HdfsFile:
    """A write-once file made of replicated blocks."""

    path: str
    blocks: List[HdfsBlock] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return sum(block.size_bytes for block in self.blocks)

    @property
    def records(self) -> List[object]:
        collected: List[object] = []
        for block in self.blocks:
            collected.extend(block.records)
        return collected

    # The file is write-once, so each whole-file list is built once, not
    # once per reader.  Read-only.
    @cached_property
    def widths(self) -> Optional[List[int]]:
        """Every record's width, in record order; None if any is unknown."""
        return _joined(block.widths for block in self.blocks)

    @cached_property
    def sizes(self) -> Optional[List[int]]:
        """Every record's typed size, in record order; None if any is unknown."""
        return _joined(block.sizes for block in self.blocks)


def _joined(parts) -> Optional[List[int]]:
    parts = list(parts)
    if None in parts:
        return None
    return list(itertools.chain.from_iterable(parts))


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
        records: Sequence[object],
        size_bytes: int,
        writer_host: str,
        widths: Optional[Sequence[int]] = None,
        sizes: Optional[Sequence[int]] = None,
    ) -> float:
        """Write a file from ``writer_host``; returns the simulated duration.

        The record list is split into blocks by byte proportion; each block
        is pipelined to ``replication`` datanodes (the first replica prefers
        the writer itself, as real HDFS does).  ``widths`` and ``sizes``,
        when given, are the records' text widths and typed sizes (summing
        to ``size_bytes``), stored beside them and never priced again.
        """
        if not self._datanodes:
            raise HdfsError("no datanodes registered")
        if path in self._files:
            raise HdfsError(f"file already exists (HDFS is write-once): {path!r}")
        if size_bytes < 0:
            raise HdfsError(f"negative file size: {size_bytes}")

        records = list(records)
        for name, per_record in (("widths", widths), ("sizes", sizes)):
            if per_record is not None and len(per_record) != len(records):
                raise HdfsError(
                    f"{len(per_record)} {name} for {len(records)} records: {path!r}"
                )
        if sizes is not None and sum(sizes) != size_bytes:
            raise HdfsError(
                f"record sizes sum to {sum(sizes)}, not {size_bytes}: {path!r}"
            )
        block_count = max(1, -(-size_bytes // self.block_size))  # ceil div
        per_block = max(1, -(-len(records) // block_count)) if records else 0
        blocks: List[HdfsBlock] = []
        duration = 0.0
        for block_index in range(block_count):
            chunk = slice(block_index * per_block, (block_index + 1) * per_block)
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
            blocks.append(
                HdfsBlock(
                    chunk_bytes,
                    records[chunk],
                    tuple(replicas),
                    None if widths is None else list(widths[chunk]),
                    None if sizes is None else list(sizes[chunk]),
                )
            )
        self._files[path] = HdfsFile(path, blocks)
        return duration

    def read(self, path: str, reader_host: str) -> Tuple[List[object], float]:
        """Read a whole file at ``reader_host``; returns (records, duration)."""
        hdfs_file = self.file(path)
        records: List[object] = []
        duration = 0.0
        for block in hdfs_file.blocks:
            if reader_host in block.replica_hosts:
                source = reader_host  # local read, loopback pricing
            else:
                source = block.replica_hosts[0]
            duration += self.network.transfer(source, reader_host, block.size_bytes)
            records.extend(block.records)
        return records, duration

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
