"""Eavesdropping models on qubit blocks.

Three attack families:

- intercept_resend: Eve measures chosen qubits in a random basis (fresh per
  qubit, or one basis per block) and forwards the collapsed state.
- unitary_block: Eve entangles the whole n-qubit block with m ancillas
  through an arbitrary unitary, forwards the block, and measures her
  ancillas either immediately in a guessed basis or after the basis
  announcement.
- singlet simulation: instead of touching n real qubits, Eve attacks a
  register built from one real qubit plus n-1 singlet halves, keeps the
  partner halves, and measures them in the announced basis afterwards.
  verify_reduction builds that register as an amplitude array
  (_singlet_register) and checks numerically that it reproduces, branch by
  branch, the exact ensemble a real-block attack would produce.

protocol.run_session runs the first two; this module describes them
(BlockAttackSpec) and builds the registers they entangle (entangle_patterns).

Eve's kept quantum state is anti-correlated with the simulated qubits
(singlet in every basis), so her recorded bit for a simulated slot is the
complement of her kept-half outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from .quantum import (
    BRANCH_CUTOFF,
    CNOT,
    HADAMARD,
    MAX_REGISTER_QUBITS,
    SINGLET,
    Basis,
    UnitarySpec,
    _apply_matrix,
    bb84_rows,
    embed,
    random_unitary,
)

ATTACK_VARIANTS = ("none", "intercept_resend", "unitary_block")
GRANULARITIES = ("per_qubit", "per_block")

REDUCTION_TOL = 1e-9
MAX_ATTACK_QUBITS = 10


@dataclass(frozen=True)
class BlockAttackSpec:
    """Immutable description of Eve's per-block strategy.

    fraction/granularity apply to intercept_resend; u, num_block_qubits,
    num_ancillas to unitary_block. delayed=True keeps Eve's ancillas
    unmeasured until the basis announcement.
    """

    variant: str = "none"
    fraction: float = 0.0
    granularity: str = "per_qubit"
    u: UnitarySpec | None = None
    num_block_qubits: int = 0
    num_ancillas: int = 0
    delayed: bool = False

    def __post_init__(self):
        if self.variant not in ATTACK_VARIANTS:
            raise ValueError(f"unknown attack variant {self.variant!r}")
        if self.variant == "intercept_resend":
            if not 0.0 <= self.fraction <= 1.0:
                raise ValueError("fraction must lie in [0, 1]")
            if self.granularity not in GRANULARITIES:
                raise ValueError(f"unknown granularity {self.granularity!r}")
            if self.delayed:
                raise ValueError(
                    "intercept_resend measures before forwarding; it cannot be delayed"
                )
        if self.variant == "unitary_block":
            if self.u is None:
                raise ValueError("unitary_block needs a unitary")
            n, m = self.num_block_qubits, self.num_ancillas
            if n < 1 or m < 0:
                raise ValueError("need num_block_qubits >= 1 and num_ancillas >= 0")
            if n + m > MAX_ATTACK_QUBITS:
                raise ValueError(
                    f"block plus ancillas capped at {MAX_ATTACK_QUBITS} qubits"
                )
            if self.u.dimension != 2 ** (n + m):
                raise ValueError(
                    f"unitary dimension {self.u.dimension} does not match "
                    f"{n} block qubits + {m} ancillas"
                )

    @classmethod
    def none(cls) -> "BlockAttackSpec":
        return cls()

    @classmethod
    def intercept(
        cls, fraction: float, granularity: str = "per_qubit"
    ) -> "BlockAttackSpec":
        return cls(
            variant="intercept_resend", fraction=fraction, granularity=granularity
        )

    @classmethod
    def unitary(
        cls,
        u: UnitarySpec,
        num_block_qubits: int,
        num_ancillas: int,
        delayed: bool = True,
    ) -> "BlockAttackSpec":
        return cls(
            variant="unitary_block",
            u=u,
            num_block_qubits=num_block_qubits,
            num_ancillas=num_ancillas,
            delayed=delayed,
        )

    def check_fits(self, config) -> None:
        """ValueError unless sessions of `config` (a ProtocolConfig) can run
        this attack: a unitary_block attack needs per_block mode and its
        own block size."""
        if self.variant != "unitary_block":
            return
        if config.mode != "per_block":
            raise ValueError("unitary_block attacks need per_block mode")
        if self.num_block_qubits != config.block_size:
            raise ValueError(
                f"attack is sized for {self.num_block_qubits}-qubit blocks, "
                f"config uses {config.block_size}"
            )

    @property
    def label(self) -> str:
        if self.variant == "intercept_resend":
            return f"intercept_resend(p={self.fraction:g},{self.granularity})"
        if self.variant == "unitary_block":
            tag = "delayed" if self.delayed else "immediate"
            return (
                f"unitary_block(n={self.num_block_qubits},"
                f"m={self.num_ancillas},{tag})"
            )
        return "none"


def entangle_patterns(u: UnitarySpec, n: int, m: int, basis: Basis) -> np.ndarray:
    """Every n-bit pattern's register at once: column p holds the block
    whose bits are p's binary digits (qubit 0's the top one), prepared in
    `basis`, and `m` ancillas in |0>, after `u` on all of them."""
    patterns = reduce(np.kron, [bb84_rows([0, 1], basis).T] * n)
    ancillas = np.zeros((2**m, 1))
    ancillas[0] = 1.0
    return u.entries @ np.kron(patterns, ancillas)


def _singlet_register(
    alice: np.ndarray, n: int, u: UnitarySpec, m: int, alice_slot: int
) -> np.ndarray:
    """The singlet-built register after `u` (on the block slots and the
    ancillas), once per column of `alice`, Alice's qubit as (2, k)
    amplitudes: a (2^(2n-1+m), k) array. Its qubits are the n block slots,
    Alice's qubit at alice_slot and a singlet half (SINGLET, read at each
    call) in every other, then Eve's kept partner halves in slot order,
    then the m ancillas."""
    total = 2 * n - 1 + m
    ancillas = np.zeros(2**m)
    ancillas[0] = 1.0
    # Assembled as [alice, (sim_0, kept_0), ..., (sim_{n-2}, kept_{n-2}), anc...],
    # then moved into [block slots | kept halves | ancillas].
    rest = reduce(np.kron, [SINGLET] * (n - 1) + [ancillas])
    register = np.kron(alice, rest[:, None]).reshape([2] * total + [-1])
    destinations = [alice_slot]
    for j, slot in enumerate(s for s in range(n) if s != alice_slot):
        destinations += [slot, n + j]  # singlet half j, then its partner
    destinations += range(2 * n - 1, total)
    register = np.moveaxis(register, range(total), destinations).reshape(2**total, -1)
    return _apply_matrix(register, u.entries, (*range(n), *range(2 * n - 1, total)), total)


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the real-block vs singlet-simulation comparison."""

    passed: bool
    max_deviation: float
    max_weight_deviation: float
    cases_checked: int
    branches_checked: int
    tolerance: float = REDUCTION_TOL


def check_reduction_size(n: int, m: int) -> None:
    """The sizes verify_reduction checks: n >= 1 block qubits and m >= 0
    ancillas whose singlet-built register, 2n - 1 + m qubits, fits in
    MAX_REGISTER_QUBITS; a ValueError otherwise."""
    if n < 1 or m < 0 or 2 * n - 1 + m > MAX_REGISTER_QUBITS:
        raise ValueError(
            f"block size {n} with {m} ancillas is outside n >= 1, m >= 0 and "
            f"2n - 1 + m <= {MAX_REGISTER_QUBITS}, the singlet-built register's qubits"
        )


def verify_reduction(u: UnitarySpec, n: int, m: int) -> EquivalenceReport:
    """Check that attacking the singlet-built block equals attacking a real one.

    For every basis, Alice bit, slot placement, and kept-half outcome
    pattern: conditioning the simulated register on the pattern must leave
    the forwarded block + ancillas in exactly the state `u` produces from
    the real bit pattern (Alice's bit at her slot, the complement of each
    kept outcome elsewhere), with every branch weight exactly 2^-(n-1).
    Passes iff all density-matrix entries agree within 1e-9 and all
    weights do too.

    A slot's four cases (Alice's Z0, Z1, X0, X1) are the columns of one
    register (_singlet_register), `u` applied once. A case's branches are
    the rows of one array: the kept halves moved to the front and, in X,
    rotated into the basis, the block + ancillas flattened. A row's squared
    norm is its branch weight. The real blocks of a basis are the columns of
    one product (entangle_patterns), each branch reading the column of its
    bit pattern. Deviations are taken one case at a time, each branch's
    difference of density matrices as one rank-2 matrix product.
    """
    check_reduction_size(n, m)
    u = UnitarySpec.from_matrix(u)
    half = 2 ** (n - 1)  # branches per case
    hadamards = reduce(np.kron, [HADAMARD] * (n - 1), np.ones((1, 1)))
    # Row r's partner bits are the complement of kept outcomes r, in slot order.
    partners = np.arange(half) ^ (half - 1)
    alice = bb84_rows([0, 1, 0, 1], [0, 0, 1, 1]).T  # Z0, Z1, X0, X1 as columns
    real = {basis: entangle_patterns(u, n, m, basis) for basis in Basis}
    max_dev = 0.0
    max_weight_dev = 0.0
    for alice_slot in range(n):
        register = _singlet_register(alice, n, u, m, alice_slot).reshape(2**n, half, 2**m, 4)
        cases = register.transpose(3, 1, 0, 2).reshape(4, half, -1)  # kept halves first
        cases[2:] = hadamards @ cases[2:]  # the X cases
        weights = np.einsum("cij,cij->ci", cases.conj(), cases).real
        max_weight_dev = max(max_weight_dev, float(np.max(np.abs(weights - 1.0 / half))))
        low = n - 1 - alice_slot  # partner slots after Alice's
        for (basis, alice_bit), rows, weight in zip(product(Basis, (0, 1)), cases, weights):
            if np.min(weight) <= BRANCH_CUTOFF:
                max_dev = math.inf
                continue
            patterns = (partners >> low << 1 | alice_bit) << low | partners & (1 << low) - 1
            blocks = real[basis][:, patterns].T
            # rho_sim - rho_real = s s+ - b b+, s the branch renormalised
            scaled = rows / np.sqrt(weight)[:, None]
            left = np.concatenate((scaled[:, :, None], blocks[:, :, None]), axis=2)
            right = np.concatenate((scaled[:, None, :], -blocks[:, None, :]), axis=1).conj()
            max_dev = max(max_dev, float(np.max(np.abs(left @ right))))
    passed = max_dev < REDUCTION_TOL and max_weight_dev < REDUCTION_TOL
    return EquivalenceReport(
        passed=passed,
        max_deviation=max_dev,
        max_weight_deviation=max_weight_dev,
        cases_checked=4 * n,
        branches_checked=4 * n * half,
    )


# --- reproducible verification corpus ------------------------------------


@dataclass(frozen=True)
class CorpusCase:
    name: str
    u: UnitarySpec
    n: int
    m: int


def cnot_entangler() -> UnitarySpec:
    """CNOT from block qubit 0 onto the ancilla, in a 2+1 qubit register."""
    return embed(3, UnitarySpec(4, CNOT), (0, 2))


def reduction_corpus(
    random_count: int = 20,
    seed: int = 1234,
    block_sizes: tuple[int, ...] = (2, 3),
    ancillas: tuple[int, ...] = (0, 1, 2),
) -> list[CorpusCase]:
    """Deterministic test corpus: identities, the CNOT entangler, and
    seeded Haar-random unitaries cycling over the (n, m) grid."""
    if random_count < 0:
        raise ValueError("random_count must be >= 0")
    if seed < 0:  # numpy's default_rng would reject it mid-corpus, naming no setting
        raise ValueError("seed must be >= 0")
    cases = []
    combos = [(n, m) for n in block_sizes for m in ancillas]
    if not combos:
        raise ValueError("corpus needs at least one (block size, ancillas) pair")
    for n, m in combos:
        check_reduction_size(n, m)
        dim = 2 ** (n + m)
        cases.append(
            CorpusCase(f"identity(n={n},m={m})", UnitarySpec(dim, np.eye(dim)), n, m)
        )
    if (2, 1) in combos:
        cases.append(CorpusCase("cnot_entangler(n=2,m=1)", cnot_entangler(), 2, 1))
    for i in range(random_count):
        n, m = combos[i % len(combos)]
        cases.append(
            CorpusCase(
                f"random(seed={seed + i},n={n},m={m})",
                random_unitary(n + m, seed + i),
                n,
                m,
            )
        )
    return cases


# --- unitary matrix file format -------------------------------------------
#
# First line: "dim d". Then d rows, each d entries "re,im" separated by
# whitespace. Parsed strictly; UnitarySpec validation rejects non-unitaries.


def save_unitary(path, u: UnitarySpec) -> None:
    lines = [f"dim {u.dimension}"]
    for row in u.entries:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_unitary(path) -> UnitarySpec:
    with open(path, encoding="utf-8") as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw or not raw[0].startswith("dim "):
        raise ValueError("first line must be 'dim d'")
    try:
        dim = int(raw[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError("first line must be 'dim d'") from exc
    if len(raw) != dim + 1:
        raise ValueError(f"expected {dim} matrix rows, found {len(raw) - 1}")
    entries = np.empty((dim, dim), dtype=complex)
    for i, line in enumerate(raw[1:]):
        cells = line.split()
        if len(cells) != dim:
            raise ValueError(f"row {i} has {len(cells)} entries, expected {dim}")
        for j, cell in enumerate(cells):
            re_s, sep, im_s = cell.partition(",")
            if not sep:
                raise ValueError(f"entry ({i},{j}) is not 're,im'")
            entries[i, j] = complex(float(re_s), float(im_s))
    return UnitarySpec(dim, entries)
