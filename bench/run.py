"""The lightsout benchmark: one command, four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload scan-8-42 --seed 1 --seconds 30 --trace 0

Every measurement runs in a fresh child process (bench/child.py) that
imports ``lightsout`` from ``src/`` of the same checkout.  With ``--trace 0``
the run repeats the workload's timed section at one worker and at two until
``--seconds`` is used, checks every answer and reports the end-to-end
metrics named in BENCHMARK.json as medians over the repetitions.  With
``--trace 1`` it alternates untraced and traced repetitions at one worker
and reports the per-layer metrics, including the tracing overhead.

The last line of stdout is the result object; the line before it records
the host (CPU count, Python version, load average at start) and the raw
samples.  The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

# How each workload's two-worker time is taken: the program's own process
# pool (`maxsize --jobs 2`), or the operations split over two processes for
# entry points that take no worker count.
TWO_WORKERS = {
    "scan-8-42": "pool",
    "canon-9-30": "pool",
    "verify-all": "split",
    "solve-grid": "split",
}
MIN_REPS = 2
SETUP_SAMPLES = 11
# Every child must end this long after the run starts, inside the 180 s
# limit on a whole run.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Child:
    """Start and reap measurement processes, each in its own session."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.deadline = started + RUN_DEADLINE_S
        self.live: List[subprocess.Popen] = []
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("LIGHTSOUT_JOBS", None)

    def start(self, mode: str, jobs: int = 1, part: int = 0, parts: int = 1):
        t0 = time.monotonic()
        argv = [sys.executable, str(CHILD), self.workload, str(self.seed), mode,
                str(jobs), str(part), str(parts), repr(t0)]
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        self.live.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen) -> dict:
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill(proc)
            raise BenchError(f"{self.workload}: a measurement overran the run deadline")
        self.live.remove(proc)
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: child exited {proc.returncode}: {err[-2000:]}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{self.workload}: child printed nothing: {err[-2000:]}")
        return json.loads(lines[-1])

    def run(self, mode: str, jobs: int = 1, part: int = 0, parts: int = 1) -> dict:
        return self.finish(self.start(mode, jobs, part, parts))

    def kill(self, proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if proc in self.live:
            self.live.remove(proc)

    def kill_all(self) -> None:
        for proc in list(self.live):
            self.kill(proc)


class Tally:
    """Answers attempted and wrong, with the first few messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add(self, record: dict) -> None:
        attempted = len(record["ops"])
        self.attempted += attempted
        self.failed += min(len(record["errors"]), attempted)
        self.messages += record["errors"][:5]

    def same_report(self, one: dict, two: dict) -> None:
        """--jobs must not change a report by one byte."""
        self.attempted += 1
        if one["stdout_sha256"] != two["stdout_sha256"]:
            self.failed += 1
            self.messages.append("stdout differs between one and two workers")


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def two_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def run_two_workers(child: Child, tally: Tally) -> tuple:
    """The timed section with two workers: (wall seconds, records)."""
    jobs = two_workers()
    if TWO_WORKERS[child.workload] == "pool":
        record = child.run("run", jobs=jobs)
        tally.add(record)
        return record["wall_s"], [record]
    procs = [child.start("run", part=p, parts=jobs) for p in range(jobs)]
    records = [child.finish(proc) for proc in procs]
    for record in records:
        tally.add(record)
    wall = max(r["end"] for r in records) - min(r["start"] for r in records)
    return wall, records


def end_to_end(child: Child, seconds: float, tally: Tally, samples: dict) -> Dict[str, float]:
    child.run("setup")  # compiles bytecode once, so later set-ups compare
    setups, walls, walls_j2, rss, ops = [], [], [], [], []
    started = time.monotonic()
    reps = 0
    while True:
        one = child.run("run")
        tally.add(one)
        setups.append(one["setup_s"])
        walls.append(one["wall_s"])
        rss.append(one["rss_mb"])
        ops += one["ops"]
        wall_j2, records = run_two_workers(child, tally)
        walls_j2.append(wall_j2)
        if TWO_WORKERS[child.workload] == "pool":
            tally.same_report(one, records[0])
        reps += 1
        elapsed = time.monotonic() - started
        if tally.failed or (reps >= MIN_REPS and elapsed * (reps + 1) / reps > seconds):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(child.run("setup")["setup_s"])
    samples.update(reps=reps, ops=len(ops), setup_s=setups, wall_s=walls,
                   wall_j2_s=walls_j2, peak_rss_mb=rss)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "wall_j2_s": statistics.median(walls_j2),
        "peak_rss_mb": statistics.median(rss),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p95_ms": percentile(ops, 95) * 1e3,
    }


def per_layer(child: Child, seconds: float, tally: Tally, samples: dict) -> Dict[str, float]:
    child.run("setup")
    untraced, traced, walls_j2, layers = [], [], [], []
    absent: set = set()
    pool = TWO_WORKERS[child.workload] == "pool"
    started = time.monotonic()
    pairs = 0
    while True:
        one = child.run("run")
        tally.add(one)
        untraced.append(one["wall_s"])
        if pool:
            wall_j2, records = run_two_workers(child, tally)
            walls_j2.append(wall_j2)
            tally.same_report(one, records[0])
        record = child.run("trace")
        tally.add(record)
        traced.append(record["wall_s"])
        layers.append(record["layers"])
        absent.update(record["absent_layers"])
        pairs += 1
        elapsed = time.monotonic() - started
        if tally.failed or elapsed * (pairs + 1) / pairs > seconds:
            break
    samples.update(pairs=pairs, untraced_wall_s=untraced, traced_wall_s=traced,
                   wall_j2_s=walls_j2, absent_layers=sorted(absent))
    metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    metrics["search.pool.speedup_j2"] = (
        statistics.median(untraced) / statistics.median(walls_j2) if pool else 0.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["error_rate"] = tally.failed / tally.attempted
    return metrics


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lightsout" / "__init__.py").is_file():
        print(f"error: no lightsout sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    host = host_facts()
    started = time.monotonic()
    child = Child(args.workload, args.seed, started)
    tally = Tally()
    samples: dict = {}
    try:
        if args.trace:
            values = per_layer(child, args.seconds, tally, samples)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(child, args.seconds, tally, samples)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        child.kill_all()

    names = {m["name"] for m in wanted}
    unlisted = sorted(set(values) - names)
    missing = [
        n for n in sorted(names - set(values))
        if not any(n.startswith(layer + ".") for layer in samples.get("absent_layers", ()))
    ]
    if unlisted or missing:
        print(f"error: metrics {unlisted} not in BENCHMARK.json, {missing} not measured",
              file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    for message in tally.messages[:20]:
        print(f"wrong answer: {message}", file=sys.stderr)
    correct = tally.failed == 0
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "elapsed_s": time.monotonic() - started,
            "host": host, "samples": samples}
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
