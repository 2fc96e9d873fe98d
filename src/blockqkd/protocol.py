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

Blocks run in Python-int bit masks (run_session); a block that a
unitary_block attack entangles walks its exact register path instead
(_RegisterPaths), memoized on the attack and so shared by every session
that attack runs. The block loop counts each stage's bits in locals and
charges the ledger once per session, after the last block.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

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
    outcome_probability,
)
from .randomness import (
    BitSource,
    ConsumptionReport,
    RandomnessLedger,
    bernoulli_digits,
    unpack_bits,
)

MODES = ("per_block", "per_qubit")

_FLIP_GATES = {
    0: UnitarySpec(2, PAULI_X),  # swaps the Z-basis eigenstates
    1: UnitarySpec(2, PAULI_Z),  # swaps the X-basis eigenstates
}

_ALICE_BASIS, _ALICE_BITS = ("alice", "alice_basis"), ("alice", "alice_bits")
_BOB_BASIS, _BOB_MEASUREMENT = ("bob", "bob_basis"), ("bob", "bob_measurement")
_EVE = ("eve", "attack")

# At about 250 bytes a node (an int key, a dict slot and a tuple of a
# float, its digit string of about 53 bytes and an int: 16.1 MB at the cap
# by tracemalloc for n=4, m=3), an attack's register memo stays under
# 17 MB over all the sessions it runs, however few blocks repeat; past
# this size it stops growing.
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


class _RegisterPaths:
    """Exact register path of unitary_block blocks, memoized on the attack.

    A node's key is one int, and it is also the block's replay log: a
    leading 1, Alice's basis value and her n bits, in immediate mode with
    ancillas Eve's guess and their outcomes, then the n-bit flip mask,
    Bob's basis value (after `forced`) and one bit per outcome so far. The
    key's length and fields fix which (qubit, basis) its node measures
    (_key_steps), so `probs` maps a key to the node's snapped probability
    p1 of outcome 1 (`outcome_probability`) beside its binary digits
    (`bernoulli_digits`), worked out once, on the miss. It is the attack's
    own memo, kept across every session the attack runs: a value depends
    only on the attack's unitary, sizes and the key, since a miss rebuilds
    the register by replaying the key's steps with the same float
    operations. Only keys, floats and digit strings outlive a block. The
    walk draws from the generator directly, against each node's digits,
    and returns each block's bit counts for run_session to charge once per
    session.
    """

    def __init__(self, attack, source, forced):
        self.attack, self.forced, self.probs = attack, forced, attack._register_memo
        self.getrandbits = source.unledgered()

    def run_block(self, announced: int, bits: int, flips: int):
        """Eve's attack, the channel, Bob's measurement and Eve's delayed
        measurement on one block, given Alice's basis value and bit and flip
        masks (position i at bit n-1-i): (Bob's basis value, his outcome
        mask, Eve's code, the bits Eve drew, the bits Bob's measurement
        drew). Bob's basis bit is the caller's to charge."""
        attack, getrandbits = self.attack, self.getrandbits
        n, m = attack.num_block_qubits, attack.num_ancillas
        key = (2 | announced) << n | bits
        self.state, self.replayed, self.pending = None, 0, None
        if not attack.delayed:
            guess = getrandbits(1)
            key, eve_drawn = self._walk((key << 1 | guess) if m else key, m)
            eve_drawn += 1
            symbol = (guess == announced) << m | key & (1 << m) - 1
        bob_basis = getrandbits(1)
        if self.forced is not None:
            bob_basis = self.forced
        key, bob_drawn = self._walk((key << n | flips) << 1 | bob_basis, n)
        outcomes = key & (1 << n) - 1
        if attack.delayed:
            key, eve_drawn = self._walk(key, m)
            symbol = announced << m | key & (1 << m) - 1
        self.state = self.pending = None
        return bob_basis, outcomes, symbol, eve_drawn, bob_drawn

    def _walk(self, key: int, count: int) -> tuple[int, int]:
        """Measure the next `count` nodes from `key`: the key with their
        outcomes appended, and the digits drawn."""
        probs, getrandbits = self.probs, self.getrandbits
        drawn = 0
        for _ in range(count):
            node = probs.get(key)
            if node is None:
                node = self._miss(key)
            _, digits, outcome = node
            for digit in digits:  # bernoulli_draw, inlined
                drawn += 1
                if getrandbits(1) != digit:
                    outcome = digit
                    break
            key = key << 1 | outcome
        return key, drawn

    def _miss(self, key: int) -> tuple[float, bytes, int]:
        """Replay `key`'s steps from where the block's register stopped and
        memoize its node: p1 and ``bernoulli_digits(p1)``. Its (p1, moved)
        serves the next step."""
        attack = self.attack
        basis, bits, steps, (qubit, node_basis) = _key_steps(attack, key)
        if self.state is None:  # the block's first miss builds its register
            rows = bb84_rows(bits, Basis(basis))
            self.state = entangle_block(rows, attack.u, attack.num_ancillas)
        for q, b, outcome in steps[self.replayed :]:
            if outcome is None:  # a flip in Alice's basis
                self.state = apply_unitary(self.state, _FLIP_GATES[b], (q,))
            else:
                p, moved = self.pending or outcome_probability(self.state, q, Basis(b))
                self.state = collapse(moved, q, Basis(b), outcome, p if outcome else 1.0 - p)
            self.pending = None
        self.replayed = len(steps)
        self.pending = outcome_probability(self.state, qubit, Basis(node_basis))
        p1 = self.pending[0]
        node = (p1, *bernoulli_digits(p1))
        if len(self.probs) < _MEMO_NODES:
            self.probs[key] = node
        return node


def _key_steps(attack: BlockAttackSpec, key: int):
    """A register-walk key decoded: Alice's basis value, her n bits, the
    steps taken so far in order, each (qubit, basis, outcome), a flip in
    Alice's basis being (qubit, basis, None), and the (qubit, basis) the
    key's node measures."""
    n, m = attack.num_block_qubits, attack.num_ancillas
    digits = [int(d) for d in bin(key)[3:]]  # after the leading 1
    basis, bits, rest = digits[0], digits[1 : n + 1], digits[n + 1 :]
    nodes = []
    if not attack.delayed and m:
        guess, rest = rest[0], rest[1:]
        nodes = [(q, guess) for q in range(n, n + m)]
    steps = [(q, b, outcome) for (q, b), outcome in zip(nodes, rest)]
    done = len(nodes)  # Eve's immediate measurements come before the flips
    if len(rest) < done:
        return basis, bits, steps, nodes[len(rest)]
    flips, bob_basis, rest = rest[done : done + n], rest[done + n], rest[done + n + 1 :]
    steps += [(q, basis, None) for q in range(n) if flips[q]]
    nodes = [(q, bob_basis) for q in range(n)]
    if attack.delayed:
        nodes += [(q, basis) for q in range(n, n + m)]
    steps += [(q, b, outcome) for (q, b), outcome in zip(nodes, rest)]
    return basis, bits, steps, nodes[len(rest)]


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

    One pass per block: Alice prepares it, Eve attacks it, the channel
    flips it, Bob measures it, and the announcement follows at once. Both
    bases become public, Eve finishes any delayed measurement in the
    announced basis (kept block or not), and the positions where the bases
    agree join the keys. In per_block mode both bases are constant over a
    block, so that mask keeps or drops the block whole. The channel's flip
    mask is drawn up front, n uniforms per block in block order.

    A block lives in Python-int bit masks, position i at bit n-1-i (the
    order draw_bits unpacks a getrandbits(n) value in). An unentangled
    qubit is a (preparation basis, value) pair: a flip XORs the value, a
    measurement in that basis reads it, and the fair outcomes of the other
    basis are one getrandbits(count) placed in index order, its first
    drawn bit at the first such position. The loop over blocks stays: all
    other draws share one ledgered stream in the order Alice, Eve, Bob,
    Eve's delayed measurement, and how many bits each takes depends on the
    outcomes before it, so drawing them in bulk would change the outputs.
    Each stage is charged once per session, after the loop, with the
    ledger's keys in first-charge order: by the first block that drew from
    the stage, then by the order a block draws in.

    A per_block n-qubit block is prepared in only 2 * 2^n ways, so on small
    blocks a unitary_block attack repeats the same evolution, in a session
    and across sessions: such blocks walk the attack's memo of outcome
    probabilities (_RegisterPaths), shared by every session the attack
    runs and keyed by one int that is also the block's replay log so far,
    and draw from the generator directly as the mask loop does.
    force_shared_basis is a test hook that overrides every drawn basis
    value after the draw (ledger counts are unchanged), forcing all blocks
    to be kept.
    """
    attack = attack or BlockAttackSpec.none()
    attack.check_fits(config)
    n = config.block_size
    full = (1 << n) - 1
    width = 1 if config.mode == "per_block" else n  # basis bits per block
    forced = None if force_shared_basis is None else force_shared_basis.value
    # A drawn basis value times `spread`, or'd with `fixed`, is the block's
    # basis mask: the value at every position (per_block), one bit per
    # position (per_qubit), or the forced value at every position.
    spread = 0 if forced is not None else full if width == 1 else 1
    fixed = 0 if forced is None else -forced & full
    source = BitSource(config.seed)
    getrandbits = source.unledgered()
    register = None
    if attack.variant == "unitary_block":
        register = _RegisterPaths(attack, source, forced)
    intercept = attack.variant == "intercept_resend"
    if intercept:
        digits, last = bernoulli_digits(attack.fraction)
    flips = _channel_flips(config)
    flip_masks = [0] * config.num_blocks if flips is None else _pack(flips)

    # One entry per kept block: Alice's bits, Bob's outcomes, the kept mask, Eve's
    # attacked, bit and basis-differs masks, and her code under unitary_block.
    alice_col, bob_col, kept_col, attacked_col, eve_col, differs_col = [], [], [], [], [], []
    symbols: list = []
    attacked = eve_basis = eve_bits = eve_spent = 0
    eve_total = eve_first = measured = measured_first = 0  # bits and first block charged
    for index, flip in enumerate(flip_masks):
        alice_basis = getrandbits(width) * spread | fixed
        alice_bits = getrandbits(n)
        if register is not None:
            bob_basis, outcomes, symbol, eve_spent, count = register.run_block(
                alice_basis & 1, alice_bits, flip
            )
            bob_basis *= full
        else:
            prep, value = alice_basis, alice_bits
            if intercept:
                attacked, eve_basis, eve_bits, eve_spent = 0, 0, 0, 0
                for _ in range(n):  # bernoulli_draw, inlined
                    for digit in digits:
                        eve_spent += 1
                        if getrandbits(1) != digit:
                            break
                    else:
                        digit = last
                    attacked = attacked << 1 | digit
                if attacked:
                    count = 1 if attack.granularity == "per_block" else attacked.bit_count()
                    eve_basis = getrandbits(count)  # one basis per block, or per attacked qubit
                    eve_basis = _deposit(eve_basis, attacked) if count > 1 else -eve_basis & attacked
                    eve_spent += count
                    guessed = (eve_basis ^ alice_basis) & attacked  # her fair outcomes
                    eve_bits = alice_bits & attacked & ~guessed
                    count = guessed.bit_count()
                    if count:
                        eve_bits |= _deposit(getrandbits(count), guessed)
                        eve_spent += count
                    prep = prep & ~attacked | eve_basis
                    value = value & ~attacked | eve_bits
            value ^= flip
            bob_basis = getrandbits(width) * spread | fixed
            guessed = prep ^ bob_basis  # Bob's fair outcomes
            outcomes = value & ~guessed
            count = guessed.bit_count()
            if count:
                outcomes |= _deposit(getrandbits(count), guessed)
        if eve_spent:
            if not eve_total:
                eve_first = index
            eve_total += eve_spent
        if count:
            if not measured:
                measured_first = index
            measured += count
        kept = full & ~(alice_basis ^ bob_basis)
        if not kept:
            continue
        alice_col.append(alice_bits)
        bob_col.append(outcomes)
        kept_col.append(kept)
        attacked_col.append(attacked)
        eve_col.append(eve_bits)
        differs_col.append(eve_basis ^ alice_basis)
        if register is not None:
            symbols.append(symbol)

    # The ledger's keys in first-charge order: by the first block that drew
    # from a stage, then by the order a block draws in.
    bases = width * config.num_blocks
    charges = [  # (first block charged, stage, bits) in a block's draw order
        (0, _ALICE_BASIS, bases), (0, _ALICE_BITS, config.raw_qubits), (eve_first, _EVE, eve_total),
        (0, _BOB_BASIS, bases), (measured_first, _BOB_MEASUREMENT, measured),
    ]
    if register is not None and attack.delayed:  # Eve measures after Bob
        charges.append(charges.pop(2))
    for _, key, bits in sorted(charges, key=lambda charge: charge[0]):
        if bits:
            source.ledger.counts[key] = bits

    if kept_col:
        keep = unpack_bits(kept_col, n).astype(bool)
        alice_key, bob_key = (unpack_bits(column, n)[keep] for column in (alice_col, bob_col))
        if intercept:
            attacked, eve_bits, differs = (
                unpack_bits(column, n)[keep] for column in (attacked_col, eve_col, differs_col)
            )
            symbols = 2 * eve_bits + attacked * (2 - differs)
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
        # Too short to sample: no estimate, so pipeline distils no key.
        qber_estimated, disclosed = 0.0, np.zeros(0, dtype=np.int32)
    eve_symbols = None
    if attack.variant != "none":  # a unitary_block code is its block's, n times
        eve_symbols = np.repeat(np.array(symbols, dtype=np.uint16), 1 if intercept else n)
    return SessionReport(
        config=config,
        attack=attack,
        raw_qubits=config.raw_qubits,
        kept_blocks=len(kept_col),
        sifted_bits=sifted_bits,
        qber_true=qber_true,
        qber_estimated=qber_estimated,
        disclosed_indices=disclosed,
        alice_key=alice_key,
        bob_key=bob_key,
        eve_symbols=eve_symbols,
        source=source,
    )


def _deposit(value: int, mask: int) -> int:
    """The bits of `value`, below 2**mask.bit_count(), at the set bits of
    `mask`, lowest first, so a drawn value's first (top) bit lands at the
    first position in index order. A mask under 256 is one lookup in
    _DEPOSIT8, a low run of ones keeps the bits in place, and any other mask
    is read a byte at a time."""
    if mask < 256:
        return _DEPOSIT8[mask][value]
    if mask & (mask + 1) == 0:
        return value & mask
    out = shift = 0
    while mask:
        table = _DEPOSIT8[mask & 255]
        size = len(table)
        out |= table[value % size] << shift
        value //= size
        mask >>= 8
        shift += 8
    return out


def _deposit_table() -> list[list[int]]:
    """_deposit for every mask under 256: entry [mask][value] for each value
    below 2**mask.bit_count(), 6,561 in all. A mask's row is the row of the
    mask without its top set bit, then that row again with the top bit set,
    where the value's top bit lands."""
    table = [[0]]
    for mask in range(1, 256):
        top = 1 << mask.bit_length() - 1
        rest = table[mask ^ top]
        table.append(rest + [bits | top for bits in rest])
    return table


_DEPOSIT8 = _deposit_table()


def _pack(rows: np.ndarray) -> list[int]:
    """Each row of an (m, n) 0/1 array as an int, position i at bit n-1-i."""
    packed = np.packbits(rows, axis=1)
    raw, step, pad = packed.tobytes(), packed.shape[1], -rows.shape[1] % 8
    return [int.from_bytes(raw[k : k + step], "big") >> pad for k in range(0, len(raw), step)]


def _channel_flips(config: ProtocolConfig) -> np.ndarray | None:
    """(num_blocks, n) mask of channel bit flips; None when noiseless.

    A flip swaps the two eigenstates of the basis the qubit was last
    prepared in: Alice's, or Eve's after a resend (X gate for Z-prepared,
    Z gate for X-prepared qubits); an entangled block flips in Alice's
    encoding basis. The uniforms are rng.random()'s, built in bulk: that is
    ((a >> 5) * 2^26 + (b >> 6)) * 2^-53 for two consecutive 32-bit words
    a, b, which getrandbits(64 * count) returns least significant first.
    That layout is CPython's Mersenne Twister, undocumented; the values and
    the final state match a random() loop on CPython 3.10.13, 3.11.7,
    3.12.1 and 3.13.0. It is the only draw that relies on it, and pays:
    a random() loop takes about 3x as long per 100k-qubit session.
    """
    if config.channel_flip_prob <= 0.0:
        return None
    rng = random.Random(f"{config.seed}/channel")
    count = config.raw_qubits
    raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    words = np.frombuffer(raw, dtype="<u4")
    draws = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * 2.0**-53
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
