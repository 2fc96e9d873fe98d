"""The block-by-block draws that run_session's columnar pass is checked
against, draw for draw, and the amplitude-row loop that its unentangled
blocks are checked against.

`AddressedDraws` reads a session's streams one draw at a time, at the
address the module docstring of `blockqkd.protocol` gives it: a bit from
its word's bits, lowest first, and a Bernoulli trial by the scalar
`bernoulli_draw` on its words' bits, top bit first. Each draw's bits are
added to its (party, stage) charge as it is made.

A block no attack has entangled is an (n, 2) array of BB84 amplitude
rows, one per qubit (`bb84_rows`). Measuring it, flipping it in the
channel and intercept-resend act row by row.
"""

from __future__ import annotations

import numpy as np

from bernoulli_reference import bernoulli_digits, bernoulli_draw
from blockqkd.quantum import _BB84_AMPS, HADAMARD, Basis
from blockqkd.randomness import DETERMINISTIC_EPS, BitSource, stream_words

EVE = ("eve", "attack")


class AddressedDraws:
    """A session's draws by address; `charges` holds each (party, stage)'s
    bits so far, its keys in the order given."""

    def __init__(self, config, order):
        self.seed, self.size = config.seed, config.raw_qubits
        self.charges = dict.fromkeys(order, 0)
        self._planes: dict = {}

    def word(self, kind: str, index: int, plane: int = 0) -> int:
        if (kind, plane) not in self._planes:
            words = stream_words(self.seed, kind, self.size, plane)
            self._planes[kind, plane] = [int(w) for w in words]
        return self._planes[kind, plane][index]

    def bit(self, kind: str, index: int, charge=None) -> int:
        if charge is not None:
            self.charges[charge] += 1
        index = int(index)
        return self.word(kind, index // 64) >> index % 64 & 1

    def trial(self, kind: str, index: int, level: int, p: float, charge) -> int:
        """A Bernoulli(p) trial on word `index` of planes 2 * level and
        2 * level + 1."""
        words = [self.word(kind, index, plane) for plane in (2 * level, 2 * level + 1)]
        digits = iter([w >> 63 - j & 1 for w in words for j in range(64)])
        outcome, drawn = bernoulli_draw(lambda _: next(digits), *bernoulli_digits(p))
        self.charges[charge] += drawn
        return outcome

    def flips(self, config) -> np.ndarray | None:
        """The channel's flip mask: qubit i's 53-bit uniform of word i."""
        if config.channel_flip_prob <= 0.0:
            return None
        uniforms = [(self.word("channel", i) >> 11) * 2.0**-53 for i in range(self.size)]
        flips = np.array(uniforms) < config.channel_flip_prob
        return flips.reshape(config.num_blocks, config.block_size)

    def source(self) -> BitSource:
        """The post-processing source, its ledger charged with every
        nonzero charge, in order."""
        source = BitSource(self.seed)
        for (party, stage), bits in self.charges.items():
            if bits:
                source.ledger.record(party, stage, bits)
        return source


def _basis_values(bases, n: int) -> np.ndarray:
    """One Basis for every row, or one basis value per row."""
    return np.broadcast_to(bases.value if isinstance(bases, Basis) else np.asarray(bases), n)


def measure_rows(rows, bases, source, party, stage, qubits=None) -> tuple[np.ndarray, np.ndarray]:
    """Measure each row-qubit in its basis: (outcomes, post rows).

    Rows are BB84 states, so every outcome is certain or fair. Certain rows
    draw nothing; the fair ones take one source.draw_bits(count), in index
    order, or, given the rows' raw qubit indices, each its qubit's bit of
    the "{party}_outcome" stream of AddressedDraws `source`.
    """
    values = _basis_values(bases, len(rows))
    work = rows.copy()
    work[values == 1] = work[values == 1] @ HADAMARD
    p1 = np.abs(work[:, 1]) ** 2
    outcomes = (p1 > 0.5).astype(np.uint8)
    fair = np.abs(p1 - 0.5) < DETERMINISTIC_EPS
    count = int(np.count_nonzero(fair))
    if count and qubits is None:
        outcomes[fair] = source.draw_bits(party, stage, count)
    elif count:
        outcomes[fair] = [source.bit(f"{party}_outcome", q, (party, stage)) for q in qubits[fair]]
    return outcomes, _BB84_AMPS[values, outcomes].copy()


def flip_rows(rows, mask, bases) -> np.ndarray:
    """Bit-flip each masked row in its own preparation basis: Pauli X on a
    Z row swaps its amplitudes, Pauli Z on an X row negates the second."""
    values = _basis_values(bases, len(rows))
    out = rows.copy()
    z_flip = mask & (values == 0)
    x_flip = mask & (values == 1)
    out[z_flip] = out[z_flip][:, ::-1]
    out[x_flip] = out[x_flip] * np.array([1.0, -1.0])
    return out


def intercept_resend(rows, prep_bases, spec, draws, block):
    """Eve's measure-and-resend on block `block`, charged to (eve, attack).

    Qubit i of the block (raw qubit block * n + i) is attacked on a trial
    against spec.fraction; Eve's basis is its qubit's bit, or the block's at
    per_block granularity, and her fair outcomes are their qubits' bits.
    Attacked rows leave re-prepared in her basis with her outcome. Returns
    (rows, preparation bases, attacked mask, Eve's bits).
    """
    qubits = block * len(rows) + np.arange(len(rows))
    attacked = np.array([bool(draws.trial("eve_trial", q, 0, spec.fraction, EVE)) for q in qubits])
    eve_bits = np.zeros(len(rows), dtype=np.uint8)
    if not attacked.any():
        return rows, prep_bases, attacked, eve_bits
    hit = qubits[attacked]
    if spec.granularity == "per_block":
        eve_bases = np.full(len(hit), draws.bit("eve_basis", block, EVE))
    else:
        eve_bases = np.array([draws.bit("eve_basis", q, EVE) for q in hit])
    outcomes, resent = measure_rows(rows[attacked], eve_bases, draws, *EVE, qubits=hit)
    eve_bits[attacked] = outcomes
    rows, prep_bases = rows.copy(), prep_bases.copy()
    rows[attacked] = resent
    prep_bases[attacked] = eve_bases
    return rows, prep_bases, attacked, eve_bits
