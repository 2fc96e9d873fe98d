#!/usr/bin/env python3
"""Time Cascade's leak rank and the post-processing peak memory by key length.

For each target sifted length, runs one fixed-seed session with n = 4,
per_block bases, a per_qubit intercept-resend attack on a fraction of the
qubits and channel flips, then post-processes it twice: once timed, with
the seconds spent in `postprocess._leak_rank` read off a wrapper, and once
on a rerun of the same session under tracemalloc for the peak memory of
`pipeline`. Lengths default to about 50k, 100k, 200k and 400k sifted bits.
"""

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blockqkd import postprocess
from blockqkd.attacks import BlockAttackSpec
from blockqkd.protocol import ProtocolConfig, empirical_rates, run_session

BLOCK_SIZE = 4
SEED = 5
FLIP = 0.02  # channel flip probability
FRACTION = 0.3  # intercepted fraction


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sifted",
        default="50000,100000,200000,400000",
        help="comma-separated target sifted lengths (default 50000,100000,200000,400000)",
    )
    args = parser.parse_args()
    targets = [int(part) for part in args.sifted.split(",") if part.strip()]
    attack = BlockAttackSpec.intercept(FRACTION, "per_qubit")

    rank_seconds = []
    leak_rank = postprocess._leak_rank

    def timed(orders, cuts):
        started = time.perf_counter()
        rank = leak_rank(orders, cuts)
        rank_seconds.append(time.perf_counter() - started)
        return rank

    postprocess._leak_rank = timed
    header = (
        f"{'sifted':>8} {'key':>8} {'session_s':>10} {'pipeline_s':>11} "
        f"{'leak_rank_s':>12} {'peak_mb':>8} {'reason':>16}"
    )
    print(header)
    print("-" * len(header))
    for target in targets:
        # a kept n = 4 block adds 4 sifted bits, and half the blocks are kept
        config = ProtocolConfig(BLOCK_SIZE, max(1, target // 2), "per_block", FLIP, seed=SEED)
        started = time.perf_counter()
        report = run_session(config, attack)
        session_s = time.perf_counter() - started
        rates = empirical_rates(report)
        rank_seconds.clear()
        started = time.perf_counter()
        result = postprocess.pipeline(report, rates)
        pipeline_s = time.perf_counter() - started
        rank_s = sum(rank_seconds)
        report = run_session(config, attack)
        tracemalloc.start()
        postprocess.pipeline(report, empirical_rates(report))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        key = len(report.alice_key) - len(report.disclosed_indices)
        print(
            f"{report.sifted_bits:>8} {key:>8} {session_s:>10.3f} {pipeline_s:>11.3f} "
            f"{rank_s:>12.3f} {peak / 2**20:>8.1f} {result.reason:>16}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
