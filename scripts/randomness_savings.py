#!/usr/bin/env python3
"""Measure how block-wise basis choice cuts random-bit consumption.

For each block size n, runs one session with a single shared basis per
block and one per-qubit baseline at the same seed and raw-qubit count,
then prints Alice's exact quantum-phase bit counts and the block/baseline
ratios. Alice's quantum-phase ratio is (n+1)/(2n) and Bob's is 1/n, both
exact rationals, and both are asserted; the table shows them converging
to 1/2 and 0 as n grows. The last column is the block session's whole
ledger per raw qubit, its QBER sample and Bob's measurements included.
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blockqkd.protocol import ProtocolConfig, run_session
from blockqkd.randomness import consumption_ratio


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="2,4,10,100,1000",
        help="comma-separated block sizes (default 2,4,10,100,1000)",
    )
    parser.add_argument("--blocks", type=int, default=100, help="blocks per session")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", type=Path, help="optional output CSV path")
    args = parser.parse_args()
    sizes = [int(part) for part in args.sizes.split(",") if part.strip()]

    header = (
        f"{'n':>6} {'raw qubits':>11} {'alice block':>12} {'alice/qubit':>12} "
        f"{'ratio':>12} {'exact':>12} {'bob ratio':>10} {'ledger/qubit':>13}"
    )
    print(header)
    print("-" * len(header))
    rows = []
    for n in sizes:
        block = run_session(
            ProtocolConfig(
                block_size=n, num_blocks=args.blocks, mode="per_block", seed=args.seed
            )
        )
        baseline = run_session(
            ProtocolConfig(
                block_size=n, num_blocks=args.blocks, mode="per_qubit", seed=args.seed
            )
        )
        ratios = consumption_ratio(block.consumption, baseline.consumption)
        whole = block.ledger.total() / block.raw_qubits
        alice_ratio = ratios.quantum_phase_alice
        assert alice_ratio == Fraction(n + 1, 2 * n)
        assert ratios.quantum_phase_bob == Fraction(1, n)
        print(
            f"{n:>6} {block.raw_qubits:>11} "
            f"{block.consumption.quantum_phase_alice:>12} "
            f"{baseline.consumption.quantum_phase_alice:>12} "
            f"{float(alice_ratio):>12.6f} "
            f"{f'{alice_ratio.numerator}/{alice_ratio.denominator}':>12} "
            f"{float(ratios.quantum_phase_bob):>10.6f} "
            f"{whole:>13.4f}"
        )
        rows.append(
            (
                n,
                block.raw_qubits,
                block.consumption.quantum_phase_alice,
                baseline.consumption.quantum_phase_alice,
                float(alice_ratio),
                float(ratios.quantum_phase_bob),
                whole,
            )
        )
    print(
        "\nalice ratio -> 1/2 as n grows: the per-block basis bit is shared "
        "by n data bits"
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("n,raw_qubits,alice_block_bits,alice_baseline_bits,alice_ratio,bob_ratio,ledger_bits_per_qubit\n")
            for row in rows:
                fh.write(",".join(repr(v) for v in row) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
