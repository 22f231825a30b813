"""A miniature MapReduce framework with a simulated HDFS.

BestPeer++ "implement[s] a MapReduce-style engine" and mounts "a Hadoop
distributed file system (HDFS) ... at system start time to serve as the
temporal storage media for MapReduce jobs" (Section 5.4); HadoopDB runs on
the real Hadoop.  This package is the reproduction's Hadoop: a deterministic
in-process engine that models the two costs the paper's evaluation hinges on —

* **job startup**: "Hadoop requires approximately 10-15 sec to launch all map
  tasks" (Section 6.1.6), and
* **pull-based shuffle delay**: "there is a noticeable delay between the time
  point of map completion and the time point of those completion events being
  retrieved by the reduce task" (Section 6.1.7).

Everything runs for real (map functions, partitioning, sort, reduce); only
time is simulated.
"""

from repro.mapreduce.hdfs import Hdfs, HdfsFile
from repro.mapreduce.job import (
    InputSplit,
    JobResult,
    MapOutput,
    MapReduceJob,
    SplitData,
)
from repro.mapreduce.engine import MapReduceConfig, MapReduceEngine

__all__ = [
    "Hdfs",
    "HdfsFile",
    "InputSplit",
    "MapOutput",
    "SplitData",
    "MapReduceJob",
    "JobResult",
    "MapReduceConfig",
    "MapReduceEngine",
]
