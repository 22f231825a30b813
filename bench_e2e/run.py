"""bench_e2e: the whole-query benchmark, one command.

    python bench_e2e/run.py --seed 42                      # all four workloads, end-to-end metrics
    python bench_e2e/run.py --seed 42 --trace              # all four, per-layer metrics from a traced run
    python bench_e2e/run.py --workload join_fetch --seed 7 --seconds 26 --trace 0
    python bench_e2e/run.py --seed 42 --repeat 2 --check-agreement

Every workload runs in fresh child processes (``worker.py``), one at a
time.  Every metric is printed by name with its unit; results are checked
(see README.md); the exit code is non-zero if any op failed.  With
``--workload`` the last line of standard output is the driver's JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench_e2e import compare  # noqa: E402
from bench_e2e.stats import DRIVER_END_TO_END, END_TO_END, PER_LAYER, SIM_REL_TOL  # noqa: E402

WORKLOAD_NAMES = ["join_fetch", "scan_pushdown", "shuffle_engines", "supply_chain_mixed"]
GOLDEN_PATH = HERE / "golden.json"
#: Set-ups per untraced run (the measuring child's plus set-up-only
#: children); ``setup_s`` is their median.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def default_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def run_child(arguments: List[str]) -> Dict[str, object]:
    """Run ``worker.py`` to completion; its last stdout line is the report."""
    command = [sys.executable, str(HERE / "worker.py")] + arguments
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise SystemExit(f"bench_e2e: child failed ({process.returncode}): {' '.join(command)}")
    return json.loads(stdout.strip().splitlines()[-1])


def check_golden(report: Dict[str, object]) -> List[str]:
    """Seed-42 digests, simulated latency and bytes against golden.json."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    expected = golden["workloads"].get(report["workload"])
    if expected is None or report["seed"] != golden["seed"] or report["peers"] != expected["peers"]:
        return []
    problems = []
    got = report["round_digests"]
    for index, (a, b) in enumerate(zip(got, expected["round_digests"])):
        if a != b:
            problems.append(f"golden: round {index} digest {a} != {b}")
    if len(got) >= len(expected["round_digests"]):
        for name in ("sim_latency_s", "bytes_shipped"):
            a, b = report["metrics"][name], expected[name]
            if abs(a - b) > SIM_REL_TOL * abs(b):
                problems.append(f"golden: {name} {a!r} != {b!r}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 rounds: Optional[int] = None, peers: Optional[int] = None,
                 spans_out: Optional[str] = None, golden: bool = True) -> Dict[str, object]:
    """One run of one workload: its metrics, op counts and golden verdict."""
    common = ["--workload", name, "--seed", str(seed)]
    if peers is not None:
        common += ["--peers", str(peers)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_child(common + ["--mode", "setup"])["setup_s"])
    timing = ["--seconds", str(seconds)]
    if rounds is not None:
        timing = ["--rounds", str(rounds)]
    extra = ["--spans-out", spans_out] if trace and spans_out else []
    report = run_child(
        common + ["--mode", "trace" if trace else "measure"] + timing + extra
    )
    setups.append(report["setup_s"])
    metrics = report["metrics"]
    problems = check_golden(report) if golden else []
    failed = report["failed"] + len(problems)
    if trace:
        metrics = report["traced_metrics"]
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["failed_frac"] = failed / report["attempted"]
    return {
        "metrics": metrics,
        "rounds": report["rounds"],
        "traced_rounds": report.get("traced_rounds"),
        "samples_beyond_p90": report["samples_beyond_p90"],
        "attempted": report["attempted"],
        "failed": failed,
        "failures": report["failures"] + problems,
        "peers": report["peers"],
        "host_speed": report["host_speed"],
        "raw_round_ms_p50": report["raw_round_ms_p50"],
        "samples": report["samples"],
        "round_digests": report["round_digests"],
    }


def print_table(name: str, run: Dict[str, object], trace: bool) -> None:
    table = PER_LAYER if trace else END_TO_END
    rounds = run["traced_rounds"] if trace else run["rounds"]
    print(f"\n== {name}  ({run['peers']} peers, {rounds} "
          f"{'traced' if trace else 'timed'} rounds, "
          f"{run['samples_beyond_p90']} samples beyond p90, "
          f"{run['attempted']} ops attempted, {run['failed']} failed;\n"
          f"   host ran at {run['host_speed']:.2f}x reference speed, "
          f"raw untraced round p50 {run['raw_round_ms_p50']:.1f} ms)")
    for metric in table:
        value = run["metrics"].get(metric.name)
        shown = "null" if value is None else f"{value:.6g}"
        bound = "" if metric.bound is None else f"  (bound {metric.bound:.0%}, {metric.better} is better)"
        print(f"  {metric.name:<34} {shown:>14} {metric.unit}{bound}")
    for failure in run["failures"]:
        print(f"  FAILED: {failure}")


def driver_line(run: Dict[str, object], trace: bool) -> str:
    table = PER_LAYER if trace else DRIVER_END_TO_END
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m.name: {"value": run["metrics"].get(m.name), "unit": m.unit} for m in table
        },
    })


def update_golden(seed: int, runs: Dict[str, Dict[str, object]]) -> None:
    golden = {"seed": seed, "workloads": {}}
    for name, run in runs.items():
        golden["workloads"][name] = {
            "peers": run["peers"],
            "round_digests": run["round_digests"],
            "sim_latency_s": run["metrics"]["sim_latency_s"],
            "bytes_shipped": run["metrics"]["bytes_shipped"],
        }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds each run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics; 0: untraced, end-to-end metrics")
    parser.add_argument("--out", default=None, help="write all runs here as JSON")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check-agreement", action="store_true",
                        help="with --repeat 2: compare the two runs under the metric bounds")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json from this run (all workloads, untraced)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="exactly this many timed rounds instead of --seconds")
    parser.add_argument("--peers", type=int, default=None, help="override peer counts (self-tests)")
    parser.add_argument("--spans-out", default=None,
                        help="with --trace and --workload: write raw spans here (JSON lines)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench_e2e: no src/repro next to bench_e2e/: nothing to measure", file=sys.stderr)
        return 2
    if args.update_golden and (args.workload or args.trace or args.peers or args.rounds):
        parser.error("--update-golden takes a full untraced run of all workloads")
    if args.check_agreement and args.repeat < 2:
        parser.error("--check-agreement needs --repeat 2")
    seconds = args.seconds if args.seconds is not None else default_seconds()
    trace = bool(args.trace)
    names = [args.workload] if args.workload else WORKLOAD_NAMES

    document = {"seed": args.seed, "seconds": seconds, "trace": trace,
                "workloads": {name: {"runs": []} for name in names}}
    failed = 0
    last: Dict[str, Dict[str, object]] = {}
    for _ in range(args.repeat):
        for name in names:
            run = run_workload(name, args.seed, seconds, trace, args.rounds,
                               args.peers, args.spans_out,
                               golden=not args.update_golden)
            print_table(name, run, trace)
            document["workloads"][name]["runs"].append(run)
            failed += run["failed"]
            last[name] = run

    if args.update_golden and not failed:
        update_golden(args.seed, last)
        print(f"\nwrote {GOLDEN_PATH}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    disagreements = 0
    if args.check_agreement:
        def only_run(i: int) -> Dict[str, object]:
            return {"workloads": {name: {"runs": [entry["runs"][i]]}
                                  for name, entry in document["workloads"].items()}}

        disagreements = compare.report(only_run(0), only_run(1))
    sys.stdout.flush()
    if args.workload:
        print(driver_line(last[args.workload], trace))
    else:
        print(json.dumps({"correct": failed == 0, "failed": failed,
                          "disagreements": disagreements}))
    return 1 if failed or disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
