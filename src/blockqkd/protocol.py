"""BB84 sessions with block-wise or per-qubit basis choices.

per_block mode is the protocol variant under study: Alice draws one basis
bit for a whole n-qubit block (plus n data bits) and Bob draws one basis
bit to measure it, so a block costs n+1 random bits on Alice's side instead
of the per_qubit baseline's 2n. Sifting is all-or-nothing per block: a
basis mismatch discards the entire block.

A session is deterministic given (config, attack): protocol randomness
comes from one ledgered BitSource seeded with config.seed, channel noise
from a separate plain stream seeded with "{seed}/channel" (noise is the
environment's randomness, not a bit any party paid for). That stream is
read as n uniforms per block, in block order, whatever the attack, so the
whole session's flip mask is drawn from it up front.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import attacks as attacks_mod
from .attacks import BlockAttackSpec, entangle_block
from .infotheory import JointDistribution, RateReport, ck_rate, mutual_information
from .quantum import (
    PAULI_X,
    PAULI_Z,
    Basis,
    UnitarySpec,
    apply_unitary,
    bb84_rows,
    collapse,
    flip_rows,
    measure_rows,
    outcome_probability,
)
from .randomness import BitSource, ConsumptionReport, RandomnessLedger

MODES = ("per_block", "per_qubit")

_FLIP_GATES = {
    0: UnitarySpec(2, PAULI_X),  # swaps the Z-basis eigenstates
    1: UnitarySpec(2, PAULI_Z),  # swaps the X-basis eigenstates
}

# At about 100 bytes a node, a session's register memo stays under 7 MB
# however few of its blocks repeat; past this size it stops growing.
_MEMO_NODES = 1 << 16


@dataclass(frozen=True)
class ProtocolConfig:
    block_size: int
    num_blocks: int
    mode: str = "per_block"
    channel_flip_prob: float = 0.0
    sample_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0.0 <= self.channel_flip_prob <= 1.0:
            raise ValueError("channel_flip_prob must lie in [0, 1]")
        if not 0.0 < self.sample_fraction < 1.0:
            raise ValueError("sample_fraction must lie in (0, 1)")

    @property
    def raw_qubits(self) -> int:
        return self.block_size * self.num_blocks


@dataclass
class SessionReport:
    """Outcome of one session; everything downstream processing needs.

    alice_key/bob_key are the full sifted keys (disclosed estimation
    positions included, so qber_true is computed over all sifted bits);
    downstream consumers must drop disclosed_indices. eve_symbols aligns
    with the sifted keys, one opaque symbol per position, None when no
    attack was configured. `source` keeps the session's randomness source
    alive so post-processing continues the same ledger.
    """

    config: ProtocolConfig
    attack: BlockAttackSpec
    raw_qubits: int
    kept_blocks: int
    sifted_bits: int
    qber_true: float
    qber_estimated: float
    disclosed_indices: tuple[int, ...]
    alice_key: np.ndarray
    bob_key: np.ndarray
    eve_symbols: tuple | None
    ledger: RandomnessLedger
    source: BitSource = field(repr=False, default=None)

    @property
    def consumption(self) -> ConsumptionReport:
        return ConsumptionReport.from_ledger(self.ledger, self.raw_qubits)


def alice_prepare_block(
    config: ProtocolConfig,
    source: BitSource,
    forced_value: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw basis and data bits for one block and encode the qubits.

    Returns (bases, bits, amplitude rows). per_block charges 1 basis bit +
    n data bits; per_qubit charges n + n. forced_value (test hook) replaces
    the drawn basis values after the draw, before encoding.
    """
    bases = _draw_bases(config, source, "alice", "alice_basis", forced_value)
    bits = source.draw_bits("alice", "alice_bits", config.block_size)
    return bases, bits, bb84_rows(bits, bases)


def bob_measure_block(
    rows: np.ndarray,
    config: ProtocolConfig,
    source: BitSource,
    forced_value: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw Bob's basis (1 bit per block, or n) and measure a product block.

    Basis bits are charged to bob_basis; Born-rule sampling to
    bob_measurement. forced_value (test hook) replaces the drawn basis
    values after the draw, before measuring.
    """
    bases = _draw_bases(config, source, "bob", "bob_basis", forced_value)
    outcomes, _ = measure_rows(rows, bases, source.for_stage("bob", "bob_measurement"))
    return bases, outcomes


def _draw_bases(
    config: ProtocolConfig,
    source: BitSource,
    party: str,
    stage: str,
    forced_value: int | None,
) -> np.ndarray:
    """One party's basis values for a block: one drawn bit repeated n times
    (per_block) or n bits, each replaced by forced_value when given."""
    n = config.block_size
    if config.mode == "per_block":
        bases = np.full(n, source.draw_bits(party, stage, 1)[0])
    else:
        bases = source.draw_bits(party, stage, n)
    bases = bases.astype(np.int64)
    if forced_value is not None:
        bases[:] = forced_value
    return bases


class _RegisterPaths:
    """Exact register path of a session's unitary_block blocks, memoized.

    `probs` maps a block's path so far (Alice's basis value and bits, then
    each flip and each measurement's qubit, basis and outcome) and its next
    measured (qubit, basis) to the snapped probability of outcome 1 that
    `measure` would hand the coin. Only keys and floats outlive a block; on
    a miss its register is rebuilt by replaying its path.
    """

    def __init__(self, config, attack, source, forced):
        self.config, self.attack, self.source, self.forced = config, attack, source, forced
        self.eve_coin = source.for_stage("eve", "attack")
        self.bob_coin = source.for_stage("bob", "bob_measurement")
        self.probs: dict[bytes, float] = {}

    def run_block(self, alice_bases, alice_bits, rows, flip_mask):
        """Eve's attack, the channel, Bob's measurement and Eve's delayed
        measurement on one block: (Bob's bases, his outcomes, Eve's symbol)."""
        attack, eve_coin = self.attack, self.eve_coin
        n = attack.num_block_qubits
        ancillas = range(n, n + attack.num_ancillas)
        announced = int(alice_bases[0])
        self.path = bytes((announced,)) + alice_bits.tobytes()
        self.steps, self.rows, self.state, self.moved = [], rows, None, None
        if not attack.delayed:
            guess = eve_coin.bit()
            eve_bits = tuple(self._measure(q, guess, eve_coin) for q in ancillas)
            symbol = (guess == announced, eve_bits)
        flipped = [] if flip_mask is None else np.flatnonzero(flip_mask).tolist()
        self.path += bytes(128 + i for i in flipped)
        self.steps += [(i,) for i in flipped]
        bob_bases = _draw_bases(self.config, self.source, "bob", "bob_basis", self.forced)
        outcomes = [self._measure(i, int(bob_bases[i]), self.bob_coin) for i in range(n)]
        if attack.delayed:
            symbol = (announced, tuple(self._measure(q, announced, eve_coin) for q in ancillas))
        self.rows = self.state = self.moved = None
        return bob_bases, np.array(outcomes, dtype=np.uint8), symbol

    def _measure(self, qubit: int, basis: int, coin) -> int:
        key = self.path + bytes((2 * qubit + basis,))
        p1 = self.probs.get(key)
        if p1 is None:
            if self.state is None:
                self.state = entangle_block(self.rows, self.attack.u, self.attack.num_ancillas)
                self.applied = 0
            for step in self.steps[self.applied:]:
                if len(step) == 1:  # a flip in Alice's basis
                    self.state = apply_unitary(self.state, _FLIP_GATES[self.path[0]], step)
                else:
                    q, b, outcome, prob = step
                    if self.moved is None:  # the state was not rotated for this step
                        _, self.moved = outcome_probability(self.state, q, Basis(b))
                    self.state = collapse(self.moved, q, Basis(b), outcome, prob)
                self.moved = None
            self.applied = len(self.steps)
            p1, self.moved = outcome_probability(self.state, qubit, Basis(basis))
            if len(self.probs) < _MEMO_NODES:
                self.probs[key] = p1
        outcome = coin.bernoulli(p1) if 0.0 < p1 < 1.0 else int(p1)
        self.path += bytes((4 * qubit + 2 * basis + outcome,))
        self.steps.append((qubit, basis, outcome, p1 if outcome else 1.0 - p1))
        return outcome


def estimate_qber(
    alice_key: np.ndarray,
    bob_key: np.ndarray,
    sample_fraction: float,
    source: BitSource,
) -> tuple[float, tuple[int, ...]]:
    """Disclose a uniform random sample of positions and compare them.

    Sample size is round(sample_fraction * length), at least 1; selection
    randomness is charged to (shared, sampling). The disclosed indices must
    be excluded from any key material used afterwards.
    """
    length = len(alice_key)
    if length != len(bob_key):
        raise ValueError("keys must have equal length")
    if length < math.ceil(1.0 / sample_fraction):
        raise ValueError(
            f"key of {length} bits is too short to sample at fraction {sample_fraction}"
        )
    k = max(1, round(sample_fraction * length))
    indices = np.arange(length)
    offsets = source.randbelow_each("shared", "sampling", range(length, length - k, -1))
    for i, offset in enumerate(offsets):
        j = i + offset
        indices[i], indices[j] = indices[j], indices[i]
    disclosed = np.sort(indices[:k])
    mismatches = int(np.count_nonzero(alice_key[disclosed] != bob_key[disclosed]))
    return mismatches / k, tuple(int(i) for i in disclosed)


def run_session(
    config: ProtocolConfig,
    attack: BlockAttackSpec | None = None,
    force_shared_basis: Basis | None = None,
) -> SessionReport:
    """Execute prepare -> attack -> channel -> measure -> sift -> estimate.

    One pass per block: Alice prepares it, Eve attacks it, the channel
    flips it, Bob measures it, and the announcement follows at once. Both
    bases become public, Eve finishes any delayed measurement in the
    announced basis (kept block or not), and the positions where the bases
    agree join the keys. In per_block mode both bases are constant over a
    block, so that mask keeps or drops the block whole. The channel's flip
    mask is drawn up front, n uniforms per block in block order. The loop
    over blocks stays: every other draw comes from one ledgered stream in
    the order Alice, Eve, Bob, Eve's delayed measurement, and how many bits
    each takes depends on the outcomes before it, so drawing them in bulk
    would change the outputs.

    A per_block n-qubit block is prepared in only 2 * 2^n ways, so on small
    blocks a unitary_block attack repeats the same evolution: such blocks
    walk a per-session memo of outcome probabilities keyed by the block's
    path so far (_RegisterPaths), with the register's own draws.
    force_shared_basis is a test hook that overrides every drawn basis
    value after the draw (ledger counts are unchanged), forcing all blocks
    to be kept.
    """
    attack = attack or BlockAttackSpec.none()
    if attack.variant == "unitary_block":
        if config.mode != "per_block":
            raise ValueError("unitary_block attacks need per_block mode")
        if attack.num_block_qubits != config.block_size:
            raise ValueError(
                f"attack is sized for {attack.num_block_qubits}-qubit blocks, "
                f"config uses {config.block_size}"
            )
    source = BitSource(config.seed)
    eve_coin = source.for_stage("eve", "attack")
    forced = None if force_shared_basis is None else force_shared_basis.value
    flips = _channel_flips(config)
    register = None
    if attack.variant == "unitary_block":
        register = _RegisterPaths(config, attack, source, forced)

    alice_parts: list[np.ndarray] = []
    bob_parts: list[np.ndarray] = []
    symbols: list = []
    kept_blocks = 0
    for index in range(config.num_blocks):
        alice_bases, alice_bits, rows = alice_prepare_block(
            config, source, forced_value=forced
        )
        flip_mask = None if flips is None else flips[index]
        if register is not None:
            bob_bases, outcomes, symbol = register.run_block(
                alice_bases, alice_bits, rows, flip_mask
            )
        else:
            prep_bases = alice_bases
            if attack.variant == "intercept_resend":
                rows, prep_bases, record = attacks_mod.intercept_resend(
                    rows, alice_bases, attack, eve_coin
                )
            if flip_mask is not None:
                rows = flip_rows(rows, flip_mask, prep_bases)
            bob_bases, outcomes = bob_measure_block(
                rows, config, source, forced_value=forced
            )
        kept = alice_bases == bob_bases
        if not kept.any():
            continue
        kept_blocks += 1
        alice_parts.append(alice_bits[kept])
        bob_parts.append(outcomes[kept])
        if attack.variant == "intercept_resend":
            # '?' where Eve stayed out, else (her bit, whether her basis
            # matched the announced one).
            symbols.extend(
                (int(record.bits[i]), bool(record.bases[i] == alice_bases[i]))
                if record.attacked[i]
                else "?"
                for i in np.flatnonzero(kept)
            )
        elif attack.variant == "unitary_block":
            # One symbol per block, the same for each of its kept bits:
            # the announced basis (or guess-match flag) and her ancilla bits.
            symbols.extend([symbol] * config.block_size)

    if alice_parts:
        alice_key = np.concatenate(alice_parts)
        bob_key = np.concatenate(bob_parts)
    else:
        alice_key = np.zeros(0, dtype=np.uint8)
        bob_key = alice_key.copy()
    sifted_bits = len(alice_key)
    if sifted_bits:
        qber_true = int(np.count_nonzero(alice_key != bob_key)) / sifted_bits
    else:
        qber_true = 0.0
    min_len = math.ceil(1.0 / config.sample_fraction)
    if sifted_bits >= min_len:
        qber_estimated, disclosed = estimate_qber(
            alice_key, bob_key, config.sample_fraction, source
        )
    else:
        # Too short to sample; report no estimate rather than fabricate one.
        qber_estimated, disclosed = 0.0, ()
    return SessionReport(
        config=config,
        attack=attack,
        raw_qubits=config.raw_qubits,
        kept_blocks=kept_blocks,
        sifted_bits=sifted_bits,
        qber_true=qber_true,
        qber_estimated=qber_estimated,
        disclosed_indices=disclosed,
        alice_key=alice_key,
        bob_key=bob_key,
        eve_symbols=None if attack.variant == "none" else tuple(symbols),
        ledger=source.ledger,
        source=source,
    )


def _channel_flips(config: ProtocolConfig) -> np.ndarray | None:
    """(num_blocks, n) mask of channel bit flips; None when noiseless.

    A flip swaps the two eigenstates of the basis the qubit was last
    prepared in: Alice's, or Eve's after a resend (X gate for Z-prepared,
    Z gate for X-prepared qubits); an entangled block flips in Alice's
    encoding basis.
    """
    if config.channel_flip_prob <= 0.0:
        return None
    rng = random.Random(f"{config.seed}/channel")
    draws = np.array([rng.random() for _ in range(config.raw_qubits)])
    return (draws < config.channel_flip_prob).reshape(config.num_blocks, -1)


def empirical_rates(report: SessionReport) -> RateReport:
    """Plug-in information rates from the sifted (Alice, Bob, Eve) stream.

    With no attack Eve's channels carry nothing, so i_ea = i_eb = 0 and the
    rate is i_ab alone. An empty sifted key yields a zero, non-distillable
    report.
    """
    if report.sifted_bits == 0:
        return RateReport(0.0, 0.0, 0.0, 0.0, False)
    keys = [report.alice_key, report.bob_key]
    if report.eve_symbols is None:
        joint = _joint_counts(keys, ("alice", "bob"))
        return ck_rate(mutual_information(joint, "alice", "bob"), 0.0, 0.0)
    joint = _joint_counts(keys + [report.eve_symbols], ("alice", "bob", "eve"))
    return ck_rate(
        mutual_information(joint, "alice", "bob"),
        mutual_information(joint, "eve", "alice"),
        mutual_information(joint, "eve", "bob"),
    )


def _joint_counts(columns: list, variables: tuple[str, ...]) -> JointDistribution:
    """empirical_joint over the rows of `columns` (0/1 key arrays, then
    Eve's symbols if any), counted with numpy: the same outcome tuples, in
    order of first occurrence, with the same frequencies."""
    length = len(columns[0])
    code = np.zeros(length, dtype=np.int32)
    for column in columns:
        if not isinstance(column, np.ndarray):
            index: dict = {}
            column = np.fromiter(
                (index.setdefault(s, len(index)) for s in column), np.int32, length
            )
        code = code * (int(column.max()) + 1) + column
    _, first, counts = np.unique(code, return_index=True, return_counts=True)
    table = {}
    for k in np.argsort(first):
        i = first[k]
        outcome = tuple(int(c[i]) if isinstance(c, np.ndarray) else c[i] for c in columns)
        table[outcome] = int(counts[k]) / length
    return JointDistribution(variables, table)
