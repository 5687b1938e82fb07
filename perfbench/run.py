"""Benchmark of deltanls: three workloads, timed over passes in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree of the repository.  The run makes
passes over the workload's fixed list of operations, each pass in a fresh
interpreter (one process, one thread, BLAS pinned to one thread), while
the next pass would end within S seconds, and at least MIN_PASSES of them.
Each operation's time is scaled to undisturbed machine speed in the pass
(``calibrate.py``); its time in the run is the median over the passes.
The answers of every pass are checked against computations made apart from
the program (``checks.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

With --trace 1 the passes alternate between untraced and traced, and the
metrics are the per-layer totals of the traced passes plus the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

MIN_PASSES = 2
MIN_TRACED_PASSES = 1                # each of untraced and traced, with --trace 1
SETUP_RUNS = 3                       # processes that only set up, after the passes
RUN_LIMIT_S = 170.0                  # every run ends well within 180 s
ADDRESS_SPACE_CAP = 1536 * 2 ** 20   # a runaway operation ends in MemoryError
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}

#: Per-layer metrics of the traced run, with their units.
PER_LAYER = {
    "algebra.I_of_t.calls": "count", "algebra.I_of_t.total_s": "s",
    "algebra.quad.evals": "count", "algebra.h_of_t.calls": "count",
    "massmap.mass_of_t.calls": "count", "massmap.mass_of_t.total_s": "s",
    "massmap.normalized_solutions.calls": "count",
    "massmap.normalized_solutions.self_s": "s",
    "massmap.profile_mass_quadrature.calls": "count",
    "massmap.profile_mass_quadrature.total_s": "s",
    "massmap.quad.evals": "count", "stationary.profile.calls": "count",
    "massmap.mass_threshold.total_s": "s", "energy.zero_level_mass.total_s": "s",
    "energy.groundstate_energy.calls": "count", "energy.branch_energy.calls": "count",
    "energy.convexity_scan.total_s": "s",
    "stationary.solve_for_lambda.calls": "count", "stationary.solve_for_lambda.total_s": "s",
    "oracle.constrained_minimize.total_s": "s",
    "oracle.constrained_minimize.iterations": "count",
    "oracle.shoot.total_s": "s", "oracle.shoot.rhs_evals": "count",
    "oracle.sample_profile.total_s": "s", "oracle.functional_eval.total_s": "s",
    **{f"verification.{name}.total_s": "s" for name in workloads.CHECK_NAMES},
    "trace.overhead_s": "s",
}


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def run_pass(workload: str, inputs: str, mode: str, out: str, spans: str,
             deadline: float) -> dict:
    """Run one worker process; mode is "0", "1" (traced) or "setup"."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    speed = sum(calibrate.speed() for _ in range(5)) / 5.0
    spawn = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, inputs,
           mode, repr(spawn), repr(speed), out, spans]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"a {workload} pass ran past the run's time limit") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"a {workload} pass exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def op_times(passes: list[dict]) -> list[float]:
    """Each operation's median time over the passes."""
    return [statistics.median(col) for col in zip(*(r["times"] for r in passes))]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    times = op_times(passes)
    values = {
        "pass_s": sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        # linear interpolation between order statistics, as numpy's default
        "op_p90_ms": 1e3 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    problems = []
    layers = [r["layers"] for r in traced]
    values = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            values[name] = sum(op_times(traced)) - sum(op_times(plain))
            continue
        seen = [layer.get(name, 0) for layer in layers]
        if unit == "count":
            if len(set(seen)) != 1:
                problems.append(f"{name} differs between traced passes: {seen}")
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}, \
        problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "deltanls", "__init__.py")):
        return fail(f"no deltanls sources under {os.path.join(ROOT, 'src')}")
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = os.path.join(RESULTS, f"{tag}.inputs.json")
    spec = workloads.spec(args.workload, args.seed)
    with open(inputs, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    plain, traced, longest = [], [], 0.0
    try:
        while True:
            done = len(plain) + len(traced)
            elapsed = time.perf_counter() - start
            if args.trace:
                enough = min(len(plain), len(traced)) >= MIN_TRACED_PASSES
            else:
                enough = len(plain) >= MIN_PASSES
            if enough and elapsed + longest > args.seconds:
                break
            use_trace = bool(args.trace) and done % 2 == 1
            t0 = time.perf_counter()
            result = run_pass(args.workload, inputs, "1" if use_trace else "0",
                              os.path.join(RESULTS, f"{tag}.pass.json"),
                              os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.tsv"),
                              deadline)
            longest = max(longest, time.perf_counter() - t0)
            (traced if use_trace else plain).append(result)
        setups = [r["setup_s"] for r in plain]
        if not args.trace:
            for _ in range(SETUP_RUNS):
                setups.append(run_pass(args.workload, inputs, "setup",
                                       os.path.join(RESULTS, f"{tag}.setup.json"), "",
                                       deadline)["setup_s"])
    except RuntimeError as exc:
        return fail(str(exc))

    passes = plain + traced
    answers = passes[0]["answers"]
    series = []
    if any(json.dumps(r["answers"]) != json.dumps(answers) for r in passes[1:]):
        series.append("answers differ between passes")
    per_op, found = checks.check(args.workload, spec, answers, passes[0]["battery"])
    series += found
    failed_ops = [k for k, problems in enumerate(per_op) if problems]
    unexpected = [k for k in failed_ops
                  if not checks.expected_failure(args.workload, spec["ops"][k], per_op[k])]
    if args.trace:
        metrics, found = per_layer(plain, traced)
        series += found
    else:
        metrics = end_to_end(plain, setups)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain), "traced_passes": len(traced),
        "ops_per_pass": len(spec["ops"]),
        "failed_ops": {str(spec["ops"][k]): per_op[k] for k in failed_ops},
        "unexpected": [str(spec["ops"][k]) for k in unexpected],
        "series_problems": series,
        "pass_s_each": [sum(r["times"]) for r in plain],
        "raw_pass_s_each": [sum(r["raw_times"]) for r in plain],
        "setups": setups if not args.trace else None,
        "metrics": metrics,
    }
    with open(os.path.join(RESULTS, f"{tag}.result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    for k in unexpected:
        sys.stderr.write(f"unexpected failure of {spec['ops'][k]}: {per_op[k]}\n")
    for problem in series:
        sys.stderr.write(f"check failed: {problem}\n")

    print(f"{args.workload} seed {args.seed}: {len(plain)} passes + {len(traced)} traced, "
          f"{len(spec['ops'])} operations per pass, {len(failed_ops)} failed per pass, "
          f"{len(unexpected)} of them unexpected")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    n_passes = len(passes)
    print(json.dumps({
        "correct": not unexpected and not series,
        "attempted": len(spec["ops"]) * n_passes,
        "failed": len(failed_ops) * n_passes,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
