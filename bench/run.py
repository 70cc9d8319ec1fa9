"""Rare-event benchmark: accuracy per CPU second, one workload per process.

    python3 bench/run.py --workload ibps-abakaliki --seed 1 --seconds 30 --trace 0

A run replays replications 0..n-1 of one workload (see ``workloads.py``) in
a single-client closed loop: each replication starts when the previous one
returns.  n is ``round(seconds * nominal rate)``, so at a given seed a run
replays the same replications whatever the speed of the code under test.
The mean estimate is checked against the workload's reference; a failed
check prints ``correct: false`` with no metrics and exits with status 1.

``--trace 0`` reports the end-to-end metrics, with times at reference
machine speed (see ``CALIBRATION_REF_S``); the record also keeps them as
measured.  ``--trace 1`` runs half as many replications twice, first through
the benchmark's own loop and then through ``epirare.harness.run`` with every
layer's entry points wrapped (``layertrace.py``), requires both to return the
same estimates bit for bit, and reports per-layer metrics per replication
plus the tracing overhead.  Its spans are written to ``.bench_out/``.

The second-to-last line of standard output is a JSON record of the run
(machine, workload, replication count, reference check, fail_frac); the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402  (first: puts the checkout's src on sys.path)
import layertrace  # noqa: E402
from epirare import harness  # noqa: E402

SETUP_REPEATS = 3
# A mean this many standard errors from the reference fails the run.
CHECK_Z = 4.0
# A run stops early once its loop has taken this many times --seconds.
DEADLINE_FACTOR = 2.5
OUT_DIR = workloads.ROOT / ".bench_out"
# On a shared 2-core host the speed of every process can swing by 20-30% over
# seconds to minutes, far more than a regression worth catching.  Times are therefore
# reported at reference speed: as measured, times the ratio of this constant
# to the time of ``calibration_kernel`` measured next to them.  The constant
# is about the kernel's time on a 2-core Intel Xeon at 2.1 GHz.
CALIBRATION_REF_S = 0.005

END_TO_END_UNITS = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "rep_ms_p50": "ms",
    "rep_ms_p90": "ms",
    "wnrv": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
PER_LAYER_UNITS = {
    "splitting.self_ms": "ms",
    "splitting.us_per_refilled_slot": "us",
    "splitting.refilled_slots": "count",
    "splitting.stages": "count",
    "splitting.share": "fraction",
    "lockstep.calls": "count",
    "lockstep.paths": "count",
    "lockstep.path_events": "count",
    "lockstep.busy_ms": "ms",
    "lockstep.ns_per_path_event": "ns",
    "lockstep.share": "fraction",
    "final_size.exact_s": "s",
    "estimators.self_ms": "ms",
    "core.seed_streams": "count",
    "core.seed_us": "us",
    "events.busy_ms": "ms",
    "harness.overhead_ms": "ms",
    "trace.overhead": "fraction",
}


def calibration_kernel() -> None:
    """Fixed work with the instruction mix of the jump engines: gathers,
    arithmetic and Philox draws on 1000-element arrays.  It never calls
    epirare, so its time tracks the machine's speed and nothing else."""
    rng = np.random.Generator(np.random.Philox(12345))
    s = np.full(1000, 100, dtype=np.int64)
    i = np.ones(1000, dtype=np.int64)
    t = np.zeros(1000)
    for _ in range(50):
        idx = np.flatnonzero(i > 0)
        rate = 0.001 * s[idx] * i[idx] + 0.1 * i[idx]
        t[idx] += -np.log1p(-rng.random(idx.size)) / rate
        infect = rng.random(idx.size) < 0.5
        s[idx[infect]] -= 1
        i[idx[infect]] += 1
        i[idx[~infect]] -= 1
        i[i <= 0] = 1


def calibration_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


@dataclass
class LoopResult:
    """Outcome of a closed loop over replications 0..attempted-1.

    Per attempted replication it holds the wall and CPU seconds and the
    machine speed, ``CALIBRATION_REF_S`` over the calibration kernel's time
    measured next to it (a rolling median of five, so one interrupted kernel
    does not count).  Times multiplied by the speed are reference-speed times.
    """

    values: np.ndarray  # estimates of the replications that succeeded
    rep_seconds: np.ndarray
    rep_cpu_seconds: np.ndarray
    speed: np.ndarray
    attempted: int
    failed: int

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def closed_loop(
    replicate: Callable[[int], float], replications: int, deadline_s: float = math.inf
) -> LoopResult:
    """Run replications back to back, each after one calibration kernel; a
    replication fails if it raises or returns a non-finite or negative value,
    and is then left out of ``values``."""
    values, rep_seconds, rep_cpu, calibration, failed = [], [], [], [], 0
    t0 = time.perf_counter()
    for rep in range(replications):
        calibration.append(calibration_seconds())
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            value = float(replicate(rep))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            value = math.nan
        end = time.perf_counter()
        rep_cpu.append(time.process_time() - cpu)
        rep_seconds.append(end - start)
        if math.isfinite(value) and value >= 0.0:
            values.append(value)
        else:
            failed += 1
        if end - t0 > deadline_s:
            print(f"deadline reached after {rep + 1} replications", file=sys.stderr)
            break
    padded = np.pad(np.array(calibration), 2, mode="edge")
    smoothed = np.median(np.lib.stride_tricks.sliding_window_view(padded, 5), axis=1)
    return LoopResult(
        np.array(values), np.array(rep_seconds), np.array(rep_cpu),
        CALIBRATION_REF_S / smoothed, len(rep_seconds), failed,
    )


def reference_check(values: np.ndarray, ref: workloads.Reference) -> dict:
    """Distance of the mean from the reference, in standard errors of the
    difference (the mean's and the reference's, combined)."""
    n = len(values)
    mean = float(values.mean()) if n else math.nan
    sem = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    scale = math.hypot(sem, ref.std_error)
    z = abs(mean - ref.value) / scale if scale > 0 else math.inf
    return {
        "mean": mean,
        "stderr": sem,
        "reference": ref.value,
        "reference_stderr": ref.std_error,
        "reference_source": ref.source,
        "z": z,
        "max_z": CHECK_Z,
        "passed": bool(z <= CHECK_Z),
    }


def end_to_end_metrics(
    loop: LoopResult, setup_s: float, speed: bool = True
) -> dict[str, float]:
    """Times at reference machine speed, or as measured with ``speed=False``.

    ``reps_per_s`` counts successful replications per second spent in
    replications.  ``wnrv`` is the relative variance of the estimates times
    the CPU seconds per replication: ``wnrv / 0.01`` is the single-core time
    to reach a 10% relative standard error.  ``ok_frac`` is 1 - fail_frac.
    """
    factor = loop.speed if speed else 1.0
    rep_s = loop.rep_seconds * factor
    ok = loop.values
    relative_variance = float(ok.var(ddof=1) / ok.mean() ** 2)
    return {
        "setup_s": setup_s,
        "reps_per_s": len(ok) / float(rep_s.sum()),
        "rep_ms_p50": float(np.percentile(rep_s, 50)) * 1e3,
        "rep_ms_p90": float(np.percentile(rep_s, 90)) * 1e3,
        "wnrv": relative_variance * float(np.mean(loop.rep_cpu_seconds * factor)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(ok) / loop.attempted,
    }


def setup_probe(workload: workloads.Workload, seed: int) -> dict:
    """Build the inputs and the reference; timed from interpreter start-up
    of this file, so the imports count."""
    workload.config(seed, 1)
    ref = workload.reference()
    setup_s = time.perf_counter() - _STARTED
    calibration_kernel()  # its first call pays for lazy loading
    speed = CALIBRATION_REF_S / statistics.median(calibration_seconds() for _ in range(5))
    return {"setup_s": setup_s, "speed": speed,
            "reference": [ref.value, ref.std_error, ref.source]}


def measure_setup(
    workload: workloads.Workload, seed: int, repeats: int
) -> tuple[float, workloads.Reference, list[float]]:
    """Median reference-speed set-up time over fresh processes, and the
    reference they found."""
    times, raw, refs = [], [], set()
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=workloads.ROOT, capture_output=True, text=True, check=True, timeout=150,
        )
        probe = json.loads(done.stdout.splitlines()[-1])
        times.append(probe["setup_s"] * probe["speed"])
        raw.append(probe["setup_s"])
        refs.add(tuple(probe["reference"]))
    if len(refs) != 1:
        raise RuntimeError(f"set-up probes disagree on the reference: {refs}")
    return statistics.median(times), workloads.Reference(*refs.pop()), raw


def machine_context() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_untraced(workload: workloads.Workload, seed: int, seconds: float, setup_repeats: int):
    setup_s, ref, setup_raw = measure_setup(workload, seed, setup_repeats)
    replicate = partial(workload.replicate, seed)
    replicate(0)  # warm-up: lazy imports and first-call costs stay out of the loop
    loop = closed_loop(replicate, workload.replications(seconds), DEADLINE_FACTOR * seconds)
    check = reference_check(loop.values, ref)
    extra = {"median_speed": float(np.median(loop.speed))}
    metrics = {}
    if check["passed"]:
        metrics = end_to_end_metrics(loop, setup_s)
        extra["as_measured"] = end_to_end_metrics(loop, statistics.median(setup_raw), speed=False)
    return loop, check, metrics, extra


def run_traced(workload: workloads.Workload, seed: int, seconds: float):
    tracer = layertrace.Tracer()
    with tracer.patched():
        ref = workload.reference()
    replications = workload.replications(seconds / 2)
    replicate = partial(workload.replicate, seed)
    replicate(0)
    loop = closed_loop(replicate, replications, DEADLINE_FACTOR * seconds / 2)
    check = reference_check(loop.values, ref)
    identical = False
    if loop.failed == 0:
        with tracer.patched():
            row = harness.run(workload.config(seed, loop.attempted))
        identical = [v.hex() for v in row.estimates] == [float(v).hex() for v in loop.values]
    check["harness_bit_identical"] = identical
    check["passed"] = check["passed"] and identical
    metrics = {}
    if check["passed"]:
        totals = tracer.totals()
        metrics = layertrace.layer_metrics(totals, loop.attempted)
        untraced_s = float(loop.rep_seconds.sum())
        metrics["trace.overhead"] = totals["harness"]["busy_s"] / untraced_s - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    return loop, check, metrics, {"spans": str(spans_path.relative_to(workloads.ROOT))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps(setup_probe(workload, args.seed)))
        return 0

    if args.trace:
        loop, check, metrics, extra = run_traced(workload, args.seed, args.seconds)
        units = PER_LAYER_UNITS
    else:
        loop, check, metrics, extra = run_untraced(
            workload, args.seed, args.seconds, SETUP_REPEATS
        )
        units = END_TO_END_UNITS
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "particles": workloads.PARTICLES,
        "replications": loop.attempted,
        "fail_frac": loop.fail_frac,
        "check": check,
        "machine": machine_context(),
        **extra,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": check["passed"],
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    if not check["passed"]:
        print(f"REFERENCE CHECK FAILED for {workload.name} at seed {args.seed}: {check}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
