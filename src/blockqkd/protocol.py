"""BB84 sessions with block-wise or per-qubit basis choices.

per_block mode is the protocol variant under study: Alice draws one basis
bit for a whole n-qubit block (plus n data bits) and Bob draws one basis
bit to measure it, so a block costs n+1 random bits on Alice's side instead
of the per_qubit baseline's 2n. Sifting is all-or-nothing per block: a
basis mismatch discards the entire block.

A session is deterministic given (config, attack). Each kind of draw
reads its own stream, keyed by "{seed}/{kind}" (randomness.stream_words),
at an address fixed by its block or raw-qubit index, so no draw depends on
an earlier outcome and each is one array operation over all blocks:

- a bit (randomness.stream_bits) per block in per_block mode, or per raw
  qubit in per_qubit mode: "alice_basis" and "bob_basis";
- a bit per raw qubit: "alice_bits", and "bob_outcome" and "eve_outcome",
  read only where that party's measurement is fair;
- a bit per block or per raw qubit, as Eve's granularity: "eve_basis"; a
  bit per block: "eve_guess";
- a word per Knuth-Yao trial (randomness.knuth_yao), a trial that reads on
  taking the same word of the next plane: "eve_trial" per raw qubit
  (planes 0 and 1), "unitary" per block and level of the outcome tables
  (planes 2 * level and 2 * level + 1);
- a word per raw qubit, "channel": the qubit flips when the word's 53-bit
  uniform (word >> 11) * 2^-53 is below the flip probability. Noise is the
  environment's randomness, not a bit any party paid for.

Post-processing continues on a ledgered BitSource seeded with config.seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .attacks import BlockAttackSpec, entangle_patterns
from .infotheory import JointDistribution, RateReport, ck_rate, mutual_information
from .quantum import HADAMARD, Basis
from .randomness import (
    DETERMINISTIC_EPS,
    BitSource,
    ConsumptionReport,
    RandomnessLedger,
    knuth_yao,
    stream_bits,
    stream_words,
)

MODES = ("per_block", "per_qubit")

_ALICE_BASIS, _ALICE_BITS = ("alice", "alice_basis"), ("alice", "alice_bits")
_BOB_BASIS, _BOB_MEASUREMENT = ("bob", "bob_basis"), ("bob", "bob_measurement")
_EVE = ("eve", "attack")


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
        if self.seed < 0:  # random.Random(-s) would replay seed s
            raise ValueError("seed must be >= 0")

    @property
    def raw_qubits(self) -> int:
        return self.block_size * self.num_blocks


@dataclass
class SessionReport:
    """Outcome of one session; everything downstream processing needs.

    alice_key/bob_key are the full sifted keys (disclosed estimation
    positions included, so qber_true is computed over all sifted bits);
    downstream consumers must drop disclosed_indices. eve_symbols is Eve's
    view as one uint16 code per sifted position, None when no attack was
    configured. Under intercept_resend it is 0 where Eve stayed out, else
    1 + 2 * her bit + whether her basis matched the announced one. Under
    unitary_block it is her block's code, the same at each of its n
    positions: ``first << m | outcomes``, where `first` is the announced
    basis value (delayed) or whether her guessed basis matched it
    (immediate) and `outcomes` are her m ancilla outcomes, the first at the
    top bit. `source` keeps the session's randomness source alive so
    post-processing continues the same ledger.
    """

    config: ProtocolConfig
    attack: BlockAttackSpec
    raw_qubits: int
    kept_blocks: int
    sifted_bits: int
    qber_true: float
    qber_estimated: float
    disclosed_indices: np.ndarray
    alice_key: np.ndarray
    bob_key: np.ndarray
    eve_symbols: np.ndarray | None
    source: BitSource = field(repr=False)

    @property
    def ledger(self) -> RandomnessLedger:
        return self.source.ledger

    @property
    def consumption(self) -> ConsumptionReport:
        return ConsumptionReport.from_ledger(self.ledger, self.raw_qubits)


def _outcome_tables(attack: BlockAttackSpec) -> np.ndarray:
    """A unitary_block attack's outcome law, built once per session:
    ``p1[alice, eve, bob, pattern]`` is the row for those basis values and
    Alice's n-bit pattern, a heap of measurement nodes in draw order: Bob's
    n qubits, then Eve's m ancillas in Alice's basis (delayed; the eve axis
    then has that one entry), or her ancillas first. Node 1 is the root,
    node k's children are 2k and 2k + 1 for outcomes 0 and 1 (node 0 is
    unused), and its p1, the probability of outcome 1 given its path, is a
    ratio of level sums of the leaves' |amplitude|^2 (entangle_patterns
    after one Hadamard layer per basis in X), snapped to 0, 1/2 or 1 within
    1e-12."""
    n, m, delayed = attack.num_block_qubits, attack.num_ancillas, attack.delayed
    block_x = reduce(np.kron, [HADAMARD] * n)  # the Hadamard layers
    ancillas_x = reduce(np.kron, [HADAMARD] * m, np.ones((1, 1)))
    in_z = entangle_patterns(attack.u, n, m, Basis.Z)
    amplitudes = []
    for alice, states in enumerate((in_z, in_z @ block_x)):
        for eve in (alice,) if delayed else (0, 1):
            for bob in (0, 1):
                in_bob = block_x @ states.reshape(2**n, -1) if bob else states
                in_bob = in_bob.reshape(2**n, 2**m, -1)
                amplitudes.append(ancillas_x @ in_bob if eve else in_bob)
    rows = len(amplitudes)
    leaves = np.abs(np.stack(amplitudes)) ** 2  # (row, block, ancillas, pattern)
    if not delayed:  # ancillas first
        leaves = leaves.transpose(0, 2, 1, 3)
    level = leaves.reshape(rows, 2 ** (n + m), -1).transpose(0, 2, 1)
    heap = np.zeros_like(level)
    while level.shape[2] > 1:
        pairs = level.reshape(rows, 2**n, -1, 2)
        level = pairs[..., 0] + pairs[..., 1]
        width = level.shape[2]
        np.divide(pairs[..., 1], level, out=heap[..., width : 2 * width], where=level > 0)
    eps = DETERMINISTIC_EPS
    heap = np.where(np.abs(heap - 0.5) < eps, 0.5, heap)
    p1 = np.where(heap < eps, 0.0, np.where(heap > 1.0 - eps, 1.0, heap))
    return p1.reshape(2, rows // 4, 2, 2**n, -1)


def estimate_qber(
    alice_key: np.ndarray,
    bob_key: np.ndarray,
    sample_fraction: float,
    source: BitSource,
) -> tuple[float, np.ndarray]:
    """Disclose a uniform random sample of positions and compare them.

    Sample size is round(sample_fraction * length), at least 1; selection
    randomness is charged to (shared, sampling). Returns the error rate on
    the sample and its positions, sorted, as int32. The disclosed indices
    must be excluded from any key material used afterwards.
    """
    length = len(alice_key)
    if length != len(bob_key):
        raise ValueError("keys must have equal length")
    if length < math.ceil(1.0 / sample_fraction):
        raise ValueError(
            f"key of {length} bits is too short to sample at fraction {sample_fraction}"
        )
    k = max(1, round(sample_fraction * length))
    sample = source.sampled("shared", "sampling", length, k)
    disclosed = np.sort(np.array(sample, dtype=np.int32))
    mismatches = int(np.count_nonzero(alice_key[disclosed] != bob_key[disclosed]))
    return mismatches / k, disclosed


def run_session(
    config: ProtocolConfig,
    attack: BlockAttackSpec | None = None,
    force_shared_basis: Basis | None = None,
) -> SessionReport:
    """Execute prepare -> attack -> channel -> measure -> sift -> estimate.

    All blocks at once, as (num_blocks, n) arrays: Alice prepares, Eve
    attacks, the channel flips, Bob measures, both bases become public, Eve
    finishes any delayed measurement in the announced basis, and the
    positions where the bases agree form the keys. In per_block mode both
    bases are constant over a block, so that mask keeps or drops the block
    whole. No draw depends on an earlier outcome: each is read from its
    stream at its own address (module docstring).

    Each stage is charged once, in a block's draw order: Alice's basis,
    her bits, Eve, Bob's basis, his measurement, with Eve last when she
    measures delayed.
    force_shared_basis is a test hook that overrides every drawn basis
    value after the draw (ledger counts are unchanged), forcing all blocks
    to be kept.
    """
    attack = attack or BlockAttackSpec.none()
    attack.check_fits(config)
    n, blocks, seed = config.block_size, config.num_blocks, config.seed
    width = 1 if config.mode == "per_block" else n  # basis bits per block
    alice_basis, bob_basis = (
        stream_bits(seed, kind, blocks * width).reshape(blocks, width)
        for kind in ("alice_basis", "bob_basis")
    )
    if force_shared_basis is not None:
        alice_basis[:] = bob_basis[:] = force_shared_basis.value
    alice_basis, bob_basis = (np.broadcast_to(b, (blocks, n)) for b in (alice_basis, bob_basis))
    alice_bits = stream_bits(seed, "alice_bits", blocks * n).reshape(blocks, n)
    blocks_of = _entangled_blocks if attack.variant == "unitary_block" else _product_blocks
    outcomes, eve_codes, eve_bits, measured = blocks_of(
        config, attack, alice_basis, alice_bits, bob_basis, _channel_flips(config)
    )
    charges = {_ALICE_BASIS: blocks * width, _ALICE_BITS: blocks * n, _EVE: eve_bits,
               _BOB_BASIS: blocks * width, _BOB_MEASUREMENT: measured}
    if attack.delayed:  # Eve measures after Bob
        charges[_EVE] = charges.pop(_EVE)
    source = BitSource(seed)
    for (party, stage), bits in charges.items():
        if bits:
            source.ledger.record(party, stage, int(bits))

    kept = alice_basis == bob_basis
    alice_key, bob_key = alice_bits[kept], outcomes[kept]
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
        # Too short to sample: no estimate, so pipeline distils no key.
        qber_estimated, disclosed = 0.0, np.zeros(0, dtype=np.int32)
    return SessionReport(
        config=config,
        attack=attack,
        raw_qubits=config.raw_qubits,
        kept_blocks=int(np.count_nonzero(kept.any(axis=1))),
        sifted_bits=sifted_bits,
        qber_true=qber_true,
        qber_estimated=qber_estimated,
        disclosed_indices=disclosed,
        alice_key=alice_key,
        bob_key=bob_key,
        eve_symbols=None if eve_codes is None else eve_codes[kept].astype(np.uint16),
        source=source,
    )


def _trials(p, seed: int, kind: str, count: int, level: int = 0):
    """knuth_yao trials against p, trial i reading word i of plane
    2 * level of the `kind` stream, and word i of the next plane if needed."""
    words = stream_words(seed, kind, count, 2 * level)
    return knuth_yao(p, words, lambda more: stream_words(seed, kind, count, 2 * level + 1)[more])


def _product_blocks(config, attack, alice_basis, alice_bits, bob_basis, flips):
    """Unentangled blocks (no attack, or intercept_resend): Bob's outcomes,
    Eve's codes (None with no attack; SessionReport defines them), and the
    bits Eve and Bob's measurement drew. A qubit is a (preparation basis,
    value) pair: a flip XORs the value, a measurement in that basis reads
    it, and one in the other basis reads the qubit's fair bit. Eve attacks
    a qubit on a Knuth-Yao trial against her fraction, in one basis per
    attacked block or one per attacked qubit, and resends what she read."""
    seed, shape, count = config.seed, alice_bits.shape, alice_bits.size
    prep, value, codes, eve_bits = alice_basis, alice_bits, None, 0
    if attack.variant == "intercept_resend":
        attacked, eve_bits = _trials(attack.fraction, seed, "eve_trial", count)
        attacked = attacked.reshape(shape).astype(bool)
        if attack.granularity == "per_block":
            eve_basis = stream_bits(seed, "eve_basis", shape[0])[:, None]
            eve_bits = eve_bits.sum() + np.count_nonzero(attacked.any(axis=1))
        else:
            eve_basis = stream_bits(seed, "eve_basis", count).reshape(shape)
            eve_bits = eve_bits.sum() + np.count_nonzero(attacked)
        guessed = attacked & (eve_basis != prep)  # her fair outcomes
        read = np.where(guessed, stream_bits(seed, "eve_outcome", count).reshape(shape), value)
        eve_bits += np.count_nonzero(guessed)
        codes = attacked * (1 + 2 * read + (eve_basis == alice_basis))
        prep, value = np.where(attacked, eve_basis, prep), np.where(attacked, read, value)
    if flips is not None:
        value = value ^ flips
    guessed = prep != bob_basis  # Bob's fair outcomes
    outcomes = np.where(guessed, stream_bits(seed, "bob_outcome", count).reshape(shape), value)
    return outcomes, codes, eve_bits, np.count_nonzero(guessed)


def _entangled_blocks(config, attack, alice_basis, alice_bits, bob_basis, flips):
    """unitary_block blocks, as _product_blocks returns them: each walks
    its row of the outcome tables (_outcome_tables) level by level, one
    Knuth-Yao trial per (block, level), on the row of Bob's drawn basis
    from the start, since Eve's immediate odds do not depend on it. A
    channel flip reaches Bob's outcome only where his basis equals Alice's
    and there XORs it after his draw; elsewhere it changes no outcome's
    odds."""
    seed, (blocks, n), m = config.seed, alice_bits.shape, attack.num_ancillas
    announced, bob = alice_basis[:, 0], bob_basis[:, 0]
    eve, first, eve_bits = 0, announced.astype(np.int64), 0  # the eve axis, her code's top bit
    if not attack.delayed:
        eve = stream_bits(seed, "eve_guess", blocks)
        first, eve_bits = (eve == announced).astype(np.int64), blocks
    tables = _outcome_tables(attack)
    pattern = alice_bits @ (1 << np.arange(n - 1, -1, -1))
    rows = np.ravel_multi_index((announced, eve, bob, pattern), tables.shape[:4])
    heap = tables.reshape(-1, tables.shape[4])
    nodes, measured = np.ones(blocks, dtype=np.int64), 0
    for level in range(n + m):
        outcomes, drawn = _trials(heap[rows, nodes], seed, "unitary", blocks, level)
        nodes = 2 * nodes + outcomes
        if (level < n) if attack.delayed else (level >= m):  # Bob's qubits
            measured += drawn.sum()
        else:
            eve_bits += drawn.sum()
    path = nodes - heap.shape[1]
    bob_low = m if attack.delayed else 0
    outcomes = (path[:, None] >> bob_low + np.arange(n - 1, -1, -1) & 1).astype(np.uint8)
    if flips is not None:
        outcomes ^= flips & (announced == bob)[:, None]
    eve_outcomes = path & (1 << m) - 1 if attack.delayed else path >> n
    codes = np.broadcast_to((first << m | eve_outcomes)[:, None], (blocks, n))
    return outcomes, codes, eve_bits, measured


def _channel_flips(config: ProtocolConfig) -> np.ndarray | None:
    """(num_blocks, n) mask of channel bit flips; None when noiseless.

    Raw qubit i flips when the 53-bit uniform (word >> 11) * 2^-53 of word
    i of the "channel" stream is below the flip probability. A flip swaps
    the two eigenstates of the basis the qubit was last prepared in:
    Alice's, or Eve's after a resend (X gate for Z-prepared, Z gate for
    X-prepared qubits); an entangled block flips in Alice's encoding basis.
    """
    if config.channel_flip_prob <= 0.0:
        return None
    words = stream_words(config.seed, "channel", config.raw_qubits)
    uniforms = (words >> np.uint64(11)) * 2.0**-53
    return (uniforms < config.channel_flip_prob).reshape(config.num_blocks, -1)


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


def _joint_counts(columns: list[np.ndarray], variables: tuple[str, ...]) -> JointDistribution:
    """Plug-in frequency table of the rows of integer `columns` (the 0/1
    keys, then Eve's codes if any), counted with numpy: each outcome tuple,
    in order of first occurrence, with its frequency."""
    length = len(columns[0])
    code = np.zeros(length, dtype=np.int32)
    for column in columns:
        code = code * (int(column.max()) + 1) + column
    _, first, counts = np.unique(code, return_index=True, return_counts=True)
    table = {}
    for k in np.argsort(first):
        i = first[k]
        table[tuple(int(c[i]) for c in columns)] = int(counts[k]) / length
    return JointDistribution(variables, table)
