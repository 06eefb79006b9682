"""enclaveflow benchmark: one workload against a real enclave subprocess
over loopback TCP, with attestation and client signatures on.

    python3 bench/run.py --workload login-cold --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 makes an untraced pass
and then a traced one, and prints the per-layer metrics.  The last line of
stdout is the result as one JSON object; the line before it is the full
record (provenance, sample counts, wall-clock figures, machine speed,
failures), which compare.py reads.  Timings are given at nominal machine
speed (speed.py).
Exits 2 without a result when the run cannot be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import ROOT, SRC, BenchError, Enclave
from layers import PER_LAYER, per_layer
from speed import REFERENCE_MS, SpeedMeter
from stats import SpeedScale, TooFewSamples, highest_percentile, percentile, quartile_spread
from workloads import WORKLOADS

SETUP_SPAWNS = 15  # setup_s is the median of this many enclave starts

# name, unit, better.  BENCHMARK.json lists the same set with the bounds.
# Every timing is scaled to nominal machine speed (speed.py); the record
# keeps the same figures in wall-clock time under samples.wall_clock.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("call_p50_ms", "ms", "lower"),
    ("calls_per_s", "1/s", "higher"),
    ("success_ratio", "ratio", "higher"),
    ("enclave_peak_rss_mb", "MB", "lower"),
]
# Reported in every record but bounded by nothing: its spread reached 0.29
# over five runs of login-cold, above the largest bound allowed.
UNBOUNDED = [("call_p99_ms", "ms", "lower")]


def provenance(seed: int, traced: bool) -> dict:
    import cryptography

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "enclaveflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "network": "loopback",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "traced": traced,
        "started_unix": time.time(),
    }


def _summary(xs: list[float]) -> dict:
    q1, q2, q3 = quartile_spread(xs)
    return {"q1": q1, "median": q2, "q3": q3, "samples": len(xs)}


def cpu_shares(p, scale: SpeedScale) -> dict:
    """How the pass's wall time on the one CPU was spent."""
    steal = scale.stolen(p.start_s, p.start_s + p.wall_s) / p.wall_s
    return {
        "enclave_busy": p.cpu_busy,
        "client_busy": p.client_cpu_busy,
        "steal": steal,
        "idle": max(0.0, 1 - p.cpu_busy - p.client_cpu_busy - steal),
    }


def end_to_end(p, setups: list, peak_rss_mb: float, scale: SpeedScale, meter_samples: list) -> tuple[dict, dict]:
    """Whole-run figures at nominal machine speed: each call's time and
    each enclave start is scaled at its midpoint, and the time the host ran
    the pass piece by piece.  ``setups`` holds (start, seconds) of each
    start."""
    calls = p.calls
    lat = scale.call_ms(calls.done_s, calls.samples_ms)
    ok = sum(map(math.isfinite, lat))
    values = {
        "setup_s": statistics.median(s * scale.at(t + s / 2) for t, s in setups),
        "call_p50_ms": percentile(lat, 50),
        "call_p99_ms": percentile(lat, 99),
        "calls_per_s": ok / scale.duration(p.start_s, p.start_s + p.wall_s),
        "success_ratio": (p.attempted - p.failed) / p.attempted,
        "enclave_peak_rss_mb": peak_rss_mb,
    }
    if not all(map(math.isfinite, values.values())):
        raise BenchError(f"too many failed calls to report latency: {values}")
    tail_p, tail_ms = highest_percentile(lat)
    samples = {
        "setup_s": len(setups),
        "calls": len(lat),
        "attempted": p.attempted,
        f"call_p{tail_p:g}_ms": tail_ms,
        "wall_clock": {
            "setup_s": statistics.median(s for _, s in setups),
            "call_p50_ms": percentile(calls.samples_ms, 50),
            "call_p99_ms": percentile(calls.samples_ms, 99),
            "calls_per_s": p.calls_per_s,
        },
        "reference_ms": {"nominal": REFERENCE_MS, **_summary([r for _, r, _ in meter_samples])},
        "cpu": cpu_shares(p, scale),
    }
    return values, samples


def run_pass(workload, config: Path, workdir: Path, keys, inputs, seconds: float, spans_out=None):
    """Start an enclave, run the workload, stop it.
    Returns (pass, stopped, (the enclave's start, its setup seconds))."""
    enclave = Enclave(config, workdir, spans_out)
    try:
        p = workload.run(enclave, keys, inputs, seconds)
    finally:
        stopped = enclave.stop()
    if stopped.exit_code != 0:
        # the enclave died under the workload: one more failure, never hidden
        p.other.attempted += 1
        p.other.fail(f"enclave exited with status {stopped.exit_code}")
    return p, stopped, (enclave.started_s, enclave.setup_s)


def measure(args, workdir: Path) -> dict:
    import spans  # binds enclaveflow names: only once the source is on the path

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    keys, config = harness.provision(
        workdir / "keys", args.seed, workload.roles, workload.consumer, workload.config(inputs)
    )
    record = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, bool(args.trace)),
    }

    with SpeedMeter(min(os.sched_getaffinity(0))) as meter:
        if not args.trace:
            setups = []
            for _ in range(SETUP_SPAWNS - 1):
                e = Enclave(config, workdir)
                setups.append((e.started_s, e.setup_s))
                e.stop()
            # the workload's own enclave is the last of the starts
            p, stopped, setup = run_pass(workload, config, workdir, keys, inputs, args.seconds)
            passes = [p]
        else:
            plain, _, _ = run_pass(workload, config, workdir, keys, inputs, args.seconds)
            tracer = spans.Tracer("client")
            uninstall = spans.install(tracer)
            spans_out = workdir / "enclave-spans.json"
            try:
                traced, _, _ = run_pass(workload, config, workdir, keys, inputs, args.seconds, spans_out)
            finally:
                uninstall()
            passes = [plain, traced]
    scale = meter.scale()

    def calls_per_s(p) -> float:
        return sum(map(math.isfinite, p.calls.samples_ms)) / scale.duration(p.start_s, p.start_s + p.wall_s)

    if not args.trace:
        values, samples = end_to_end(p, setups + [setup], stopped.peak_rss_mb, scale, meter.samples)
        units = {n: u for n, u, _ in END_TO_END}
        record["unbounded"] = {n: {"value": values.pop(n), "unit": u} for n, u, _ in UNBOUNDED}
    else:
        values, samples = per_layer(
            tracer.snapshot(),
            json.loads(spans_out.read_text()),
            uploads=traced.extra.get("rows", 0),
            cpu=cpu_shares(plain, scale),
            untraced_calls_per_s=calls_per_s(plain),
            traced_calls_per_s=calls_per_s(traced),
        )
        units = {n: u for n, u, _ in PER_LAYER}

    record.update(
        correct=all(p.mismatches == 0 for p in passes),
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        error_rate=sum(p.failed for p in passes) / sum(p.attempted for p in passes),
        errors=[e for p in passes for e in p.calls.errors + p.other.errors],
        samples=samples,
        metrics={n: {"value": values[n], "unit": units[n]} for n in units},
    )
    first = passes[0]
    if "ingest_s" in first.extra:
        queries = first.other
        record["cleanroom"] = {
            "ingest_rows_per_s": calls_per_s(first),
            "query_p50_ms": percentile(scale.call_ms(queries.done_s, queries.samples_ms), 50),
            "query_samples": len(queries.samples_ms),
            "wall_clock": {
                "ingest_rows_per_s": first.calls_per_s,
                "ingest_s": first.extra["ingest_s"],
                "query_p50_ms": percentile(queries.samples_ms, 50),
            },
        }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Client and enclave share one CPU (the enclave inherits this affinity).
    # Between CPUs, each request/reply hop waits for a wakeup on the other
    # virtual CPU, and on a shared VM that wait swings 2-5x from minute to
    # minute; on one CPU the hop is a local context switch.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = ROOT / ".bench_tmp" / f"run-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in {**record["metrics"], **record.get("unbounded", {})}.items():
        print(f"{record['workload']:>17} {name:<38} {m['value']:>14.6g} {m['unit']}")
    if record["failed"]:
        print(f"{record['failed']} of {record['attempted']} calls failed", file=sys.stderr)
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        harness.use_checkout_source()
        sys.exit(main())
    except (BenchError, TooFewSamples) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
