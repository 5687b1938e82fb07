"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD INPUTS_JSON MODE SPAWN_TIME SPAWN_SPEED OUT_JSON [SPANS]

MODE is 0 for a pass, 1 for a traced pass, and setup for a process that
only sets up (imports, and the warm-up where the workload has one).

SPAWN_TIME is the runner's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by all processes), so set-up time runs
from interpreter start to the first timed operation; SPAWN_SPEED is the
machine's speed the runner measured then.  INPUTS_JSON holds the operations
of the pass, made by the runner from the seed.

Times are given at undisturbed speed: each is the wall time, less the time
spent measuring the speed, multiplied by the mean speed measured during it
(``calibrate.Sampler``).  The pass writes its times, answers, peak memory
and, when traced, per-layer totals to OUT_JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _scaled_layers(tracer, speed: float) -> dict:
    """Per-layer totals, times scaled by the mean speed of the pass."""
    return {name: value * speed if name.endswith("_s") else value
            for name, value in tracer.metrics().items()}


def main(argv: list[str]) -> int:
    workload, inputs_path, mode, spawn, spawn_speed, out_path = argv[:6]
    spans_path = argv[6] if len(argv) > 6 else None
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)

    import calibrate
    sampler = calibrate.Sampler()
    sampler.start()

    import deltanls
    if not os.path.abspath(deltanls.__file__).startswith(src + os.sep):
        raise SystemExit(f"deltanls imported from {deltanls.__file__}, not from {src}")
    import ops

    tracer = None
    if mode == "1":
        from deltanls import verification
        from tracer import Tracer
        tracer = Tracer(lambda: time.perf_counter() - sampler.spent)
        tracer.install(verification.FULL_CHECKS)

    with open(inputs_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    warmup, run_one = ops.runner(workload, spec)
    if warmup is not None:
        warmup()

    clock = time.perf_counter
    setup_end = clock()
    setup_s = setup_end - float(spawn) - sampler.spent
    spans = []   # (start, end, time spent sampling) of each operation
    answers = []
    for k, op in enumerate(spec["ops"] if mode != "setup" else []):
        if tracer is not None:
            tracer.op = k
        spent, start = sampler.spent, clock()
        try:
            answer = run_one(op)
        except Exception as exc:  # an operation that raises counts as failed
            answer = {"error": f"{type(exc).__name__}: {exc}"[:300]}
        spans.append((start, clock(), sampler.spent - spent))
        answers.append(answer)
    time.sleep(2.0 * calibrate.INTERVAL_S)   # a sample after the last operation
    sampler.stop()
    times = [end - start - spent for start, end, spent in spans]
    scaled = [t * sampler.speed(start, end) for t, (start, end, _) in zip(times, spans)]
    # no sample covers the interpreter's own start: the runner measured the
    # speed just before it
    setup_speed = 0.5 * (float(spawn_speed) + sampler.speed(sampler.times[0], setup_end + 0.05))

    result = {
        "setup_s": setup_s * setup_speed,
        "times": scaled,
        "raw_times": times,
        "answers": answers,
        "battery": ops.battery_names(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": _scaled_layers(tracer, sum(scaled) / max(sum(times), 1e-300))
        if tracer is not None else None,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    if tracer is not None and spans_path:
        tracer.write_spans(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
