"""One measurement in a fresh process; started by run.py, never by hand.

    python3 bench/child.py WORKLOAD SEED MODE JOBS PART PARTS T0

MODE is ``setup`` (import and generate the inputs, then stop), ``run`` (the
timed section) or ``trace`` (the timed section under the tracer).  T0 is the
parent's ``time.monotonic()`` just before it started this process, so set-up
time covers interpreter start-up too.  The last line of stdout is one JSON
object describing the measurement.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    workload_name, seed, mode, jobs, part, parts, t0 = argv
    seed, jobs, part, parts, t0 = int(seed), int(jobs), int(part), int(parts), float(t0)
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import lightsout

    if Path(lightsout.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported lightsout from {lightsout.__file__}, not {src}")
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[workload_name]()
    workload.generate(seed)
    setup_s = time.monotonic() - t0
    record = {"setup_s": setup_s}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
        started = time.monotonic()
        outcome = workload.run(jobs, part, parts)
        ended = time.monotonic()
        if tracer is not None:
            tracer.active = False
        workload.check(outcome)
        record.update(
            start=started,
            end=ended,
            wall_s=ended - started,
            ops=outcome.ops,
            errors=outcome.errors,
            stdout_sha256=outcome.stdout_sha256,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            record["layers"] = tracer.layer_metrics(tuple(workloads.SUITE_CHECKS))
            record["absent_layers"] = [k for k, v in tracer.present.items() if not v]
            record["errors"] += [
                f"traced layer {layer} recorded no call"
                for layer in tracer.silent(workloads.EXPECTED_LAYERS[workload_name])
            ]
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
