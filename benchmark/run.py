"""blockqkd benchmark: end-to-end metrics per workload, or per-layer metrics
from a separate traced run.

    python3 benchmark/run.py --workload block4_intercept --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ./src. One run
sets up its workload five times (import, inputs, one warm-up session) and
reports the median set-up time, then repeats the workload's fixed session
list for --seconds (a round starts only if it should end in time). Timed
rounds carry no instrumentation beyond perf_counter and process_time; a
fixed reference kernel runs between sessions, outside their timing, and
every time is reported in reference-speed seconds (see hostclock.py). With
--trace 1, untraced and traced rounds alternate and only per-layer metrics
are reported; trace.overhead compares the two.
--workload all runs every workload in this one process and prefixes each
metric with its workload's name.

Every session is checked outside the timed region (see checks.py); the last
line of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from hostclock import HostClock
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "raw_qubits_per_s": "qubits/s",
    "sifted_bits_per_s": "bits/s",
    "final_key_bits_per_s": "bits/s",
    "session_s_p50": "s",
    "session_s_tail": "s",
    "peak_rss_mb": "MB",
    "key_bits_per_raw_qubit": "bits/qubit",
    "random_bits_per_raw_qubit": "bits/qubit",
}

# blockqkd.randomness.STAGES, fixed here because the per-layer metric names
# are part of BENCHMARK.json.
STAGES = ("alice_basis", "alice_bits", "bob_basis", "bob_measurement",
          "sampling", "ec_permutation", "pa_seed", "attack")

PER_LAYER_UNITS = {
    "randomness.s": "s",
    "randomness.calls": "count",
    "randomness.randbelow_accept_ratio": "ratio",
    **{f"randomness.bits.{stage}": "bits" for stage in STAGES},
    "quantum.measure_rows.s": "s",
    "quantum.measure_rows.calls": "count",
    "quantum.qubits_per_measure_rows_call": "qubits",
    "quantum.measure.s": "s",
    "quantum.measure.calls": "count",
    "quantum.apply_unitary.s": "s",
    "quantum.apply_unitary.calls": "count",
    "quantum.project.s": "s",
    "protocol.run_session.s": "s",
    "protocol.prepare.s": "s",
    "protocol.transmit.s": "s",
    "protocol.bob_measure.s": "s",
    "protocol.sift.s": "s",
    "protocol.estimate_qber.s": "s",
    "protocol.blocks": "count",
    "protocol.kept_ratio": "ratio",
    "protocol.sifted_bits": "bits",
    "attacks.intercept_resend.s": "s",
    "attacks.intercept_resend.calls": "count",
    "attacks.qubits_attacked": "qubits",
    "attacks.unitary_block_attack.s": "s",
    "attacks.delayed_measurement.s": "s",
    "attacks.verify_reduction.s": "s",
    "infotheory.empirical_rates.s": "s",
    "postprocess.pipeline.s": "s",
    "postprocess.cascade.s": "s",
    "postprocess.disclosed_parities": "bits",
    "postprocess.cascade_efficiency": "ratio",
    "postprocess.toeplitz_pa.s": "s",
    "postprocess.toeplitz_in_bits": "bits",
    "postprocess.toeplitz_out_bits": "bits",
    "postprocess.toeplitz_bit_ops": "count",
    "cli.load_experiment.s": "s",
    "cli.unitary_loads": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead": "ratio",
}


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == "blockqkd" or n.startswith("blockqkd.")]:
        del sys.modules[name]


def set_up(cls, seed: int, workdir: Path):
    """Import blockqkd afresh, build the workload's inputs, run one warm-up
    session. Returns (seconds, package, workload, warm-up fingerprint)."""
    _purge_package()
    start = time.perf_counter()
    bq = importlib.import_module("blockqkd")
    importlib.import_module("blockqkd.cli")
    workload = cls(bq, seed, workdir)
    fp = workload.warm_up()
    return time.perf_counter() - start, bq, workload, fp


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct).
    With ten samples or fewer there is none; the maximum is reported as p100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def binary_entropy(p: float) -> float:
    """h(p) in bits, computed here so the metric does not depend on the
    program under test."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def round_counts(round_) -> dict[str, float]:
    """Per-layer quantities read from one round's session outputs."""
    sessions = round_.sessions
    out = {f"randomness.bits.{stage}": sum(s.stages.get(stage, 0) for s in sessions) for stage in STAGES}
    blocks = sum(s.num_blocks for s in sessions)
    out["protocol.blocks"] = blocks
    out["protocol.kept_ratio"] = sum(s.kept_blocks for s in sessions) / blocks
    out["protocol.sifted_bits"] = sum(s.sifted_bits for s in sessions)
    reconciled = [s for s in sessions if s.reconciliation]
    disclosed = sum(s.reconciliation["disclosed_parities"] for s in reconciled)
    shannon = sum(
        (s.sifted_bits - s.estimation_disclosed) * binary_entropy(s.qber_true) for s in reconciled
    )
    out["postprocess.disclosed_parities"] = disclosed
    out["postprocess.cascade_efficiency"] = disclosed / shannon if shannon else 0.0
    amplified = [s.amplification for s in sessions if s.amplification]
    out["postprocess.toeplitz_in_bits"] = sum(a["input_length"] for a in amplified)
    out["postprocess.toeplitz_out_bits"] = sum(a["output_length"] for a in amplified)
    out["postprocess.toeplitz_bit_ops"] = sum(a["input_length"] * a["output_length"] for a in amplified)
    out["cli.bytes_written"] = round_.bytes_written
    return out


def segment_sum(rounds, attr: str) -> float:
    """Sum over a round's segments of each segment's median over rounds."""
    columns: dict[int, list[float]] = {}
    for r in rounds:
        for j, seg in enumerate(r.segments):
            columns.setdefault(j, []).append(getattr(seg, attr))
    return sum(statistics.median(c) for c in columns.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    cls = WORKLOADS[name]
    clock = HostClock()
    setup_times, setup_measured, warm_fps = [], [], []
    for _ in range(SETUP_REPEATS):
        before = clock.probe()
        elapsed, bq, workload, fp = set_up(cls, seed, workdir)
        setup_times.append(elapsed * clock.scale(before, clock.probe()))
        setup_measured.append(elapsed)
        warm_fps.append(fp)

    plain, traced, layer_rounds, absent, patched = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    reference = None
    last_round = 0.0
    # A traced run needs an untraced and a traced round to compare.
    min_rounds = 2 if trace else 1
    try:
        # Start a round only if it should end by the deadline.
        while len(plain) + len(traced) < min_rounds or time.perf_counter() + last_round < deadline:
            tracer = Tracer() if trace and len(traced) < len(plain) else None
            if tracer is not None:
                tracer.install()
            started = time.perf_counter()
            try:
                round_, outputs = workload.run_round(clock, traced=tracer is not None)
            finally:
                if tracer is not None:
                    tracer.remove()
            last_round = time.perf_counter() - started
            if reference is None:
                reference = workload.reference_check(outputs, seed)
            if tracer is None:
                plain.append(round_)
                continue
            traced.append(round_)
            layer_rounds.append({**tracer.summary(), **round_counts(round_)})
            absent, patched = tracer.absent, tracer.patched
            if len(traced) == 1:
                out_dir = ROOT / ".bench_out"
                out_dir.mkdir(exist_ok=True)
                tracer.write_jsonl(out_dir / f"trace-{name}-seed{seed}.jsonl")
    finally:
        workload.close()

    rounds = plain + traced
    problems = []
    first_fps = [s.fingerprint for s in rounds[0].sessions]
    if any(fp != first_fps[0] for fp in warm_fps):
        problems.append("warm-up re-run of the first session differs from the timed one")
    for r in rounds[1:]:
        for s, fp in zip(r.sessions, first_fps):
            if s.fingerprint != fp:
                s.errors.append("output differs from the first round")
    ref_index, ref_problems = reference
    rounds[0].sessions[ref_index].errors.extend(ref_problems)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + len(problems)
    errors = problems + [e for r in rounds for e in r.failed_extra]
    errors += [f"session {i}: {e}" for r in rounds for i, s in enumerate(r.sessions) for e in s.errors]

    first = rounds[0].sessions
    raw = sum(s.raw_qubits for s in first)
    info = {
        "workload": name,
        "seed": seed,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "sessions_per_round": len(first),
        "setup_samples_s": setup_times,
        "setup_measured_s": setup_measured,
        "round_walls_measured_s": [r.wall_s for r in plain],
        "round_walls_s": [r.scaled_wall_s for r in plain],
        **clock.summary(),
        "first_session_sha256": first_fps[0],
        "workload_sha256": hashlib.sha256("\n".join(first_fps).encode()).hexdigest(),
        "output_sha256": rounds[0].output_sha256 or None,
        "failed_fraction": failed / attempted,
        "errors": sorted(set(errors))[:20],
    }
    if trace:
        metrics = {}
        for key in PER_LAYER_UNITS:
            if key == "trace.overhead":
                value = (statistics.median(r.scaled_wall_s for r in traced)
                         / statistics.median(r.scaled_wall_s for r in plain))
            else:
                value = statistics.median(r.get(key, 0) for r in layer_rounds)
            metrics[key] = value
        info["absent_hooks"] = absent
        info["patched"] = patched
        info["trace_file"] = f".bench_out/trace-{name}-seed{seed}.jsonl"
        units = PER_LAYER_UNITS
    else:
        # Times are in reference-speed seconds (hostclock.py); each segment
        # of a round (a session, a sweep point, CLI overhead) contributes its
        # median over rounds.
        wall = segment_sum(plain, "scaled_wall_s")
        session_walls = [seg.scaled_wall_s for r in plain for seg in r.segments if seg.session]
        tail_value, tail_pct = tail(session_walls)
        info["session_samples"] = len(session_walls)
        info["session_s_tail_percentile"] = tail_pct
        info["wall_s_measured"] = segment_sum(plain, "wall_s")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "cpu_s": segment_sum(plain, "scaled_cpu_s"),
            "raw_qubits_per_s": raw / wall,
            "sifted_bits_per_s": sum(s.sifted_bits for s in first) / wall,
            "final_key_bits_per_s": sum(s.final_key_len for s in first) / wall,
            "session_s_p50": statistics.median(session_walls),
            "session_s_tail": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "key_bits_per_raw_qubit": sum(s.final_key_len for s in first) / raw,
            "random_bits_per_raw_qubit": sum(s.total_random_bits for s in first) / raw,
        }
        units = END_TO_END_UNITS
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "info": info,
    }


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            cpu = models[0]
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def print_report(name: str, result: dict) -> None:
    info = result["info"]
    print(f"{name}: {info['rounds']} untraced and {info['traced_rounds']} traced rounds "
          f"of {info['sessions_per_round']} sessions, seed {info['seed']}")
    for key, metric in result["metrics"].items():
        note = ""
        if key == "session_s_tail":
            note = f"  (p{info['session_s_tail_percentile']:.1f} of {info['session_samples']} sessions)"
        print(f"  {key:<40} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  {'failed_fraction':<40} {info['failed_fraction']:.6g} "
          f"({result['failed']} of {result['attempted']} attempted)")
    for error in info["errors"]:
        print(f"  error: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "blockqkd" / "__init__.py").is_file():
        print(f"error: no blockqkd package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = ROOT / ".bench_work" / str(os.getpid())
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    env = environment()
    for name, result in results.items():
        print_report(name, result)
        print("info " + json.dumps({**result["info"], **env}))
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
