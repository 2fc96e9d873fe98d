"""Sample-by-sample references for the package's outcome tables and rate
estimate.

- `outcome_probability` and `collapse` are one qubit's measurement on a
  full register, its probability of outcome 1 snapped to 0, 1/2 or 1
  within 1e-12 (`snap_probability`) as `protocol._outcome_tables` snaps
  its nodes, and the post-measurement state for a chosen outcome.
- `measure` is one projective measurement on a full register, its outcome
  drawn from a Bernoulli sampler such as
  ``functools.partial(bernoulli, source, party, stage)``
  (`bernoulli_reference.bernoulli`).
- `delayed_measurement` is Eve's measurement of her kept singlet halves and
  ancillas once the basis is public, built on `measure`.
- `empirical_joint` is the plug-in frequency table of a list of outcome
  tuples, which `protocol._joint_counts` reproduces with numpy over integer
  columns.
- `eve_tuples` decodes a session's integer codes for Eve's view back into
  one Python tuple per sifted position, the form the references build.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from blockqkd.infotheory import JointDistribution
from blockqkd.quantum import HADAMARD, Basis, _apply_matrix
from blockqkd.randomness import DETERMINISTIC_EPS
from register_reference import StateVector

if TYPE_CHECKING:  # reduction_reference imports this module through density_reference
    from reduction_reference import EntangledBlock


def snap_probability(p: float) -> float:
    """Collapse float noise around the decision points 0, 1/2 and 1."""
    if p < DETERMINISTIC_EPS:
        return 0.0
    if p > 1.0 - DETERMINISTIC_EPS:
        return 1.0
    if abs(p - 0.5) < DETERMINISTIC_EPS:
        return 0.5
    return p


def outcome_probability(
    state: StateVector, qubit_index: int, basis: Basis
) -> tuple[float, np.ndarray]:
    """Probability that measuring one qubit in `basis` gives 1, snapped to
    0, 1/2 or 1 within 1e-12 (the value an outcome is drawn on), and
    the amplitudes in that basis with the qubit on axis 0, for `collapse`."""
    n = state.num_qubits
    if not 0 <= qubit_index < n:
        raise IndexError(f"qubit {qubit_index} out of range for {n} qubits")
    amps = state.amplitudes
    if basis is Basis.X:
        amps = _apply_matrix(amps, HADAMARD, (qubit_index,), n)
    moved = np.moveaxis(amps.reshape([2] * n), qubit_index, 0)
    return snap_probability(float(np.sum(np.abs(moved[1]) ** 2))), moved


def collapse(
    moved: np.ndarray, qubit_index: int, basis: Basis, outcome: int, prob: float
) -> StateVector:
    """Post-measurement state for `outcome`, of probability `prob`, from the
    amplitudes `outcome_probability` returned for that qubit and basis."""
    n = moved.ndim
    projected = np.zeros_like(moved)
    projected[outcome] = moved[outcome]
    post = np.moveaxis(projected, 0, qubit_index).reshape(-1) / math.sqrt(prob)
    if basis is Basis.X:
        post = _apply_matrix(post, HADAMARD, (qubit_index,), n)
    return StateVector(n, post)


def measure(
    state: StateVector, qubit_index: int, basis: Basis, bernoulli
) -> tuple[int, StateVector]:
    """Projective measurement of one qubit; returns (outcome, post state).

    `bernoulli(p) -> 0|1` is called only when both outcomes have nonzero
    probability (after snapping within 1e-12 of 0 or 1).
    """
    p1, moved = outcome_probability(state, qubit_index, basis)
    outcome = bernoulli(p1) if 0.0 < p1 < 1.0 else int(p1)
    prob = p1 if outcome == 1 else 1.0 - p1
    return outcome, collapse(moved, qubit_index, basis, outcome, prob)


def delayed_measurement(
    register: EntangledBlock, announced_basis: Basis, bernoulli
) -> tuple[np.ndarray, np.ndarray]:
    """Measure Eve's kept qubits once the basis is public.

    Returns (simulated-slot bits, ancilla bits). Each kept singlet half is
    measured in announced_basis and recorded as the complement of the
    outcome; ancillas are measured in announced_basis as well. The post
    state replaces the register's, which is marked measured: a register can
    only be measured once.
    """
    if getattr(register, "eve_measured", False):
        raise RuntimeError("kept register was already measured")
    state = register.state
    slot_bits = []
    for q in register.kept_slots:
        outcome, state = measure(state, q, announced_basis, bernoulli)
        slot_bits.append(1 - outcome)
    ancilla_bits = []
    for q in register.ancilla_slots:
        outcome, state = measure(state, q, announced_basis, bernoulli)
        ancilla_bits.append(outcome)
    register.state = state
    register.eve_measured = True
    return np.array(slot_bits, dtype=np.uint8), np.array(ancilla_bits, dtype=np.uint8)


def empirical_joint(
    samples: Sequence[tuple], variables: tuple[str, ...] | None = None
) -> JointDistribution:
    """Plug-in frequency table from a sequence of outcome tuples."""
    if len(samples) == 0:
        raise ValueError("empirical_joint needs at least one sample")
    width = len(samples[0])
    if variables is None:
        variables = tuple(f"v{i}" for i in range(width))
    counts: dict[tuple, int] = {}
    for sample in samples:
        key = tuple(sample)
        counts[key] = counts.get(key, 0) + 1
    n = len(samples)
    return JointDistribution(variables, {k: c / n for k, c in counts.items()})


def eve_tuples(report) -> tuple | None:
    """`report.eve_symbols` decoded into one Python tuple per sifted
    position, with the types the references build; None with no attack.
    intercept_resend: '?' where Eve stayed out, else (her bit: int, her
    basis matched the announced one: bool). unitary_block: (the announced
    basis value: int when delayed, or her guess matched it: bool when
    immediate; her m ancilla outcomes as a tuple of ints, first ancilla
    first)."""
    if report.eve_symbols is None:
        return None
    codes = report.eve_symbols.tolist()
    attack = report.attack
    if attack.variant == "intercept_resend":
        return tuple("?" if c == 0 else ((c - 1) >> 1, bool((c - 1) & 1)) for c in codes)
    m = attack.num_ancillas
    first = int if attack.delayed else bool
    return tuple(
        (first(c >> m), tuple(c >> (m - 1 - j) & 1 for j in range(m))) for c in codes
    )
