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
unitary_block attack entangles walks the attack's outcome tables instead
(_outcome_tables), built once per session. The block loop counts each
stage's bits in locals and charges the ledger once per session, after the
last block.
"""

from __future__ import annotations

import math
import random
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
    bernoulli_digits,
    unpack_bits,
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


def _outcome_tables(attack: BlockAttackSpec) -> dict:
    """A unitary_block attack's outcome law, built once per session:
    ``tables[alice, eve][bob][pattern]`` is the row for those basis values
    and Alice's n-bit pattern, a heap of measurement nodes in draw order:
    Bob's n qubits, then Eve's m ancillas in Alice's basis (delayed; only
    those rows are built), or her ancillas first. Node 1 is the root, node
    k's children are 2k and 2k + 1 for outcomes 0 and 1, and its p1 (the
    probability of outcome 1 given its path) is a ratio of level sums of
    the leaves' |amplitude|^2 (entangle_patterns after one Hadamard layer
    per basis in X), snapped to 0, 1/2 or 1 within 1e-12. A row is (each
    node's bernoulli_digits(p1), its flipped digits, the p1 array): a
    channel flip in Bob's basis swaps his two outcomes, so on Bob's nodes
    in the rows where his basis equals Alice's the flipped digits are
    bernoulli_digits(1 - p1). No flip lands anywhere else, and there the
    flipped digits are the straight ones."""
    n, m = attack.num_block_qubits, attack.num_ancillas
    block_x = reduce(np.kron, [HADAMARD] * n)  # the Hadamard layers
    ancillas_x = reduce(np.kron, [HADAMARD] * m, np.ones((1, 1)))
    in_z = entangle_patterns(attack.u, n, m, Basis.Z)
    keys, amplitudes = [], []
    for alice, states in enumerate((in_z, in_z @ block_x)):
        for bob in (0, 1):
            in_bob = block_x @ states.reshape(2**n, -1) if bob else states
            in_bob = in_bob.reshape(2**n, 2**m, -1)
            for eve in (alice,) if attack.delayed else (0, 1):
                keys.append((alice, eve, bob))
                amplitudes.append(ancillas_x @ in_bob if eve else in_bob)
    leaves = np.abs(np.stack(amplitudes)) ** 2  # (row key, block, ancillas, pattern)
    if not attack.delayed:  # ancillas first
        leaves = leaves.transpose(0, 2, 1, 3)
    level = leaves.reshape(len(keys), 2 ** (n + m), -1).transpose(0, 2, 1)
    heap = np.zeros_like(level)  # node 0 unused
    while level.shape[2] > 1:
        pairs = level.reshape(len(keys), 2**n, -1, 2)
        level = pairs[..., 0] + pairs[..., 1]
        width = level.shape[2]
        np.divide(pairs[..., 1], level, out=heap[..., width : 2 * width], where=level > 0)
    eps = DETERMINISTIC_EPS
    heap = np.where(np.abs(heap - 0.5) < eps, 0.5, heap)
    p1 = np.where(heap < eps, 0.0, np.where(heap > 1.0 - eps, 1.0, heap))
    lo, hi = (1, 2**n) if attack.delayed else (2**m, 2 ** (n + m))  # Bob's nodes
    turned = 1.0 - p1[[alice == bob for alice, _, bob in keys], :, lo:hi]
    values = {*p1.ravel().tolist(), *turned.ravel().tolist()}
    digits = {value: bernoulli_digits(value) for value in values}
    straight = [[[digits[value] for value in row] for row in rows] for rows in p1.tolist()]
    turned_rows = iter(turned.tolist())
    tables: dict = {}
    for t, (alice, eve, bob) in enumerate(keys):
        flipped = straight[t]
        if alice == bob:  # the only rows where a flip lands, on Bob's nodes
            flipped = [
                row[:lo] + [digits[value] for value in nodes] + row[hi:]
                for row, nodes in zip(flipped, next(turned_rows))
            ]
        tables.setdefault((alice, eve), {})[bob] = list(zip(straight[t], flipped, p1[t]))
    return tables


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

    A per_block n-qubit block is prepared in only 2 * 2^n ways, so a
    unitary_block block draws each outcome against its node's p1 in the
    session's outcome tables (_outcome_tables), from the generator
    directly as the mask loop does. Eve's immediate outcomes are drawn on
    the row of Bob's basis Z, before his basis: her odds do not depend on
    it.
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
    tables = _outcome_tables(attack) if attack.variant == "unitary_block" else None
    m, delayed = attack.num_ancillas, attack.delayed
    # A block's path through its row: Bob's n outcomes from bit bob_low up,
    # Eve's m below them (delayed) or above them; the first party to draw
    # stops at bit first_end.
    bob_low, first_end = (m, m) if delayed else (0, n)
    bob_top, shifts = bob_low + n - 1, range(n + m - 1, -1, -1)
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
        if tables is not None:
            announced = eve_guess = alice_basis & 1
            if not delayed:
                eve_guess = getrandbits(1)
            rows = tables[announced, eve_guess]  # by Bob's basis value
            row, node, flipped, drawn, first = rows[0][alice_bits], 1, 0, 0, 0
            for shift in shifts:  # the path bit this node's outcome sets
                if shift == bob_top:  # Bob's basis, after Eve's immediate draws
                    bob_basis = getrandbits(width) * spread | fixed
                    row = rows[bob_basis & 1][alice_bits]
                    if bob_basis == alice_basis:  # the flips swap his outcomes
                        flipped = flip << bob_low
                flip_bit = flipped >> shift & 1
                node_digits, node_last = row[flip_bit][node]
                for digit in node_digits:  # bernoulli_draw, inlined
                    drawn += 1
                    if getrandbits(1) != digit:
                        break
                else:
                    digit = node_last
                node = 2 * node + (digit ^ flip_bit)
                if shift == first_end:
                    first = drawn
            path = node ^ (1 << n + m)
            outcomes = (path ^ flipped) >> bob_low & full
            if delayed:
                count, eve_spent = first, drawn - first
                symbol = announced << m | path & (1 << m) - 1
            else:
                count, eve_spent = drawn - first, first + 1
                symbol = (eve_guess == announced) << m | path >> n
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
        if tables is not None:
            symbols.append(symbol)

    # The ledger's keys in first-charge order: by the first block that drew
    # from a stage, then by the order a block draws in.
    bases = width * config.num_blocks
    charges = [  # (first block charged, stage, bits) in a block's draw order
        (0, _ALICE_BASIS, bases), (0, _ALICE_BITS, config.raw_qubits), (eve_first, _EVE, eve_total),
        (0, _BOB_BASIS, bases), (measured_first, _BOB_MEASUREMENT, measured),
    ]
    if tables is not None and delayed:  # Eve measures after Bob
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


# The channel's word generator, built once (its SeedSequence set-up costs
# more than a short session's draws); each call overwrites its whole state.
_CHANNEL_WORDS = np.random.MT19937(0)


def _channel_flips(config: ProtocolConfig) -> np.ndarray | None:
    """(num_blocks, n) mask of channel bit flips; None when noiseless.

    A flip swaps the two eigenstates of the basis the qubit was last
    prepared in: Alice's, or Eve's after a resend (X gate for Z-prepared,
    Z gate for X-prepared qubits); an entangled block flips in Alice's
    encoding basis. The uniforms are rng.random()'s, built in bulk: that is
    ((a >> 5) * 2^26 + (b >> 6)) * 2^-53 for two consecutive 32-bit words
    a, b of the Mersenne Twister (Matsumoto & Nishimura, 1998). numpy's
    MT19937 is the same generator: set to the key words and position of
    random.Random("{seed}/channel").getstate(), its random_raw returns the
    words a random() loop reads. That numpy reproduces CPython's word
    stream from a copied state is undocumented; a test checks the values
    against a random() loop, and CI runs it on CPython 3.10-3.13 and on
    numpy 1.24. It is the only draw that relies on it, and pays: a random()
    loop takes about 6x as long per 100k-qubit session.
    """
    if config.channel_flip_prob <= 0.0:
        return None
    _, state, _ = random.Random(f"{config.seed}/channel").getstate()
    _CHANNEL_WORDS.state = {
        "bit_generator": "MT19937",
        "state": {"key": state[:-1], "pos": state[-1]},
    }
    words = _CHANNEL_WORDS.random_raw(2 * config.raw_qubits)
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
