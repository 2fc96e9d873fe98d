"""Correctness checks on session outputs, run outside the timed region.

Every session of every round is reduced to a `SessionSummary`, from the
library's report objects or from the JSON report the CLI wrote, and checked
against invariants that follow from its configuration alone. A session that
raised or broke an invariant counts toward failed_fraction.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Binomial bound on qber_true: |q - model| <= Z * sigma + 1/N. Z = 6 leaves a
# false alarm rate near 1e-9 per session.
QBER_Z = 6.0
TOEPLITZ_SAMPLES = 64


@dataclass
class SessionSummary:
    mode: str
    block_size: int
    num_blocks: int
    raw_qubits: int
    kept_blocks: int
    sifted_bits: int
    estimation_disclosed: int
    qber_true: float
    qber_model: float | None
    stages: dict[str, int]
    total_random_bits: int
    pa_seed_delta: int
    reason: str
    final_key_len: int
    margin: int
    eve_info_bits: float
    reconciliation: dict | None
    amplification: dict | None
    fingerprint: str
    errors: list[str] = field(default_factory=list)


def fingerprint(keys, ledger_entries: dict, reason: str) -> str:
    """sha256 over bit arrays (keys), the ledger entries and the reason."""
    h = hashlib.sha256()
    for key in keys:
        bits = np.asarray(key, dtype=np.uint8)
        h.update(len(bits).to_bytes(8, "big"))
        h.update(np.packbits(bits).tobytes())
    h.update(json.dumps(sorted(ledger_entries.items())).encode())
    h.update(reason.encode())
    return h.hexdigest()


def summarize_report(report, result, ledger_before: dict, margin: int, qber_model):
    """SessionSummary from run_session's report and pipeline's result."""
    ledger = report.ledger
    rec, amp = result.reconciliation, result.amplification
    entries = {f"{party}.{stage}": bits for (party, stage), bits in ledger.counts.items()}
    return SessionSummary(
        mode=report.config.mode,
        block_size=report.config.block_size,
        num_blocks=report.config.num_blocks,
        raw_qubits=report.raw_qubits,
        kept_blocks=report.kept_blocks,
        sifted_bits=report.sifted_bits,
        estimation_disclosed=len(report.disclosed_indices),
        qber_true=report.qber_true,
        qber_model=qber_model,
        stages=ledger.as_dict(),
        total_random_bits=ledger.total(),
        pa_seed_delta=ledger.counts.get(("shared", "pa_seed"), 0)
        - ledger_before.get(("shared", "pa_seed"), 0),
        reason=result.reason,
        final_key_len=len(result.final_key),
        margin=margin,
        eve_info_bits=result.eve_info_bits,
        reconciliation=None if rec is None else {
            "disclosed_parities": rec.disclosed_parities,
            "residual_mismatches": rec.residual_mismatches,
        },
        amplification=None if amp is None else {
            "input_length": amp.input_length,
            "output_length": amp.output_length,
            "seed_bits_consumed": amp.seed_bits_consumed,
        },
        fingerprint=fingerprint(
            (report.alice_key, report.bob_key, result.final_key), entries, result.reason
        ),
    )


def summarize_cli_json(payload: dict, qber_model) -> SessionSummary:
    """SessionSummary from one session JSON report written by `blockqkd run`.

    A CLI session starts from a fresh ledger and run_session draws no hash
    seed, so the pa_seed stage total is the pipeline's pa_seed delta.
    """
    config, results, ledger = payload["config"], payload["results"], payload["ledger"]
    final_hex = results.get("final_key_hex", "")
    final_len = results.get("final_key_len", 0)
    final_bits = np.unpackbits(np.frombuffer(bytes.fromhex(final_hex), dtype=np.uint8))[:final_len]
    reason = results["reason"]
    return SessionSummary(
        mode=config["mode"],
        block_size=config["block_size"],
        num_blocks=config["num_blocks"],
        raw_qubits=results["raw_qubits"],
        kept_blocks=results.get("kept_blocks", 0),
        sifted_bits=results["sifted_bits"],
        estimation_disclosed=results.get("disclosed_for_estimation", 0),
        qber_true=results.get("qber_true", 0.0),
        qber_model=qber_model,
        stages=dict(ledger["stages"]),
        total_random_bits=ledger["total"],
        pa_seed_delta=ledger["stages"]["pa_seed"],
        reason=reason,
        final_key_len=final_len,
        margin=config["safety_margin"],
        eve_info_bits=results.get("eve_info_bits", 0.0),
        reconciliation=results.get("reconciliation"),
        amplification=results.get("amplification"),
        fingerprint=fingerprint((final_bits,), ledger["entries"], reason),
    )


def intercept_qber_model(fraction: float, flip_prob: float) -> float:
    """Expected QBER under per-qubit intercept-resend at `fraction` plus
    channel flips: Eve picks the wrong basis half the time and then leaves
    a coin-flip bit, so a = fraction / 4 errors before the channel."""
    a = fraction / 4.0
    return a * (1.0 - flip_prob) + (1.0 - a) * flip_prob


def check_session(s: SessionSummary) -> list[str]:
    """Invariants every session must satisfy; returns the violations."""
    problems = []
    basis_bits = s.num_blocks if s.mode == "per_block" else s.raw_qubits
    for stage, expected in (
        ("alice_basis", basis_bits),
        ("alice_bits", s.raw_qubits),
        ("bob_basis", basis_bits),
    ):
        if s.stages.get(stage) != expected:
            problems.append(f"ledger {stage} = {s.stages.get(stage)}, expected {expected}")
    if s.mode == "per_block" and s.sifted_bits != s.block_size * s.kept_blocks:
        problems.append(f"sifted_bits {s.sifted_bits} != n * kept_blocks {s.block_size * s.kept_blocks}")
    if s.reason == "ok":
        rec, amp = s.reconciliation, s.amplification
        if rec is None or amp is None:
            problems.append("reason ok without reconciliation and amplification results")
        else:
            if rec["residual_mismatches"] != 0:
                problems.append(f"residual_mismatches = {rec['residual_mismatches']}")
            expected_out = (
                amp["input_length"] - rec["disclosed_parities"] - math.ceil(s.eve_info_bits) - s.margin
            )
            if amp["output_length"] != expected_out:
                problems.append(f"output_length {amp['output_length']} != {expected_out}")
            seed_bits = amp["input_length"] + amp["output_length"] - 1
            if not amp["seed_bits_consumed"] == seed_bits == s.pa_seed_delta:
                problems.append(
                    f"seed bits {amp['seed_bits_consumed']}, expected {seed_bits}, "
                    f"pa_seed ledger delta {s.pa_seed_delta}"
                )
            if s.final_key_len != amp["output_length"]:
                problems.append(f"final key {s.final_key_len} bits, output_length {amp['output_length']}")
    if s.qber_model is not None and s.sifted_bits:
        m, n = s.qber_model, s.sifted_bits
        allowed = QBER_Z * math.sqrt(m * (1.0 - m) / n) + 1.0 / n
        if abs(s.qber_true - m) > allowed:
            problems.append(f"qber_true {s.qber_true:.5f} outside {m:.5f} +- {allowed:.5f}")
    return problems


def check_twin_ratios(bq, per_block_report, per_qubit_report) -> list[str]:
    """The paper's exact consumption ratios between a per_block session and
    its per_qubit twin: (n+1)/(2n) for Alice, 1/n for Bob."""
    n = per_block_report.config.block_size
    ratios = bq.consumption_ratio(per_block_report.consumption, per_qubit_report.consumption)
    problems = []
    if ratios.quantum_phase_alice != Fraction(n + 1, 2 * n):
        problems.append(f"alice ratio {ratios.quantum_phase_alice} != {Fraction(n + 1, 2 * n)}")
    if ratios.quantum_phase_bob != Fraction(1, n):
        problems.append(f"bob ratio {ratios.quantum_phase_bob} != {Fraction(1, n)}")
    return problems


def check_toeplitz(bq, key, leaked_bits: int, eve_info_bits: float, margin: int,
                   seed: int) -> list[str]:
    """Re-run toeplitz_pa on a reconciled key with a fresh BitSource(seed) and
    compare sampled output bits with parity(key AND seed[j : j + L]),
    computed here from a twin source that draws the same seed bits."""
    key = np.asarray(key, dtype=np.uint8)
    amp = bq.toeplitz_pa(key, leaked_bits, eve_info_bits, margin, bq.BitSource(seed))
    out, length = amp.output_length, len(key)
    if out == 0:
        return ["toeplitz reference check needs a nonempty output"]
    seed_bits = bq.BitSource(seed).draw_bits("shared", "pa_seed", length + out - 1)
    key_int = int.from_bytes(np.packbits(key).tobytes(), "big") >> (-length % 8)
    seed_str = "".join(map(str, seed_bits.tolist()))
    picks = {0, out - 1} | set(random.Random(seed).sample(range(out), min(TOEPLITZ_SAMPLES, out)))
    for j in sorted(picks):
        window = int(seed_str[j : j + length], 2)
        parity = (key_int & window).bit_count() & 1
        if parity != int(amp.final_key[j]):
            return [f"toeplitz output bit {j} = {amp.final_key[j]}, reference parity {parity}"]
    return []
