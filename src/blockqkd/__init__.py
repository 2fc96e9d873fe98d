"""Exact BB84 simulator with block-wise basis choices.

One random basis covers a whole n-qubit block, so a session consumes
(n + 1)/(2n) of the sender's baseline randomness and 1/n of the
receiver's. Every random bit is drawn through a ledgered source, every
quantum state is tracked exactly, and the classical pipeline (error
reconciliation plus Toeplitz hashing) turns sifted bits into a final key.
"""

__version__ = "0.3.0"

from .attacks import (
    BlockAttackSpec,
    EquivalenceReport,
    load_unitary,
    reduction_corpus,
    save_unitary,
    verify_reduction,
)
from .infotheory import (
    JointDistribution,
    RateReport,
    binary_entropy,
    ck_rate,
    entropy,
    mutual_information,
)
from .postprocess import (
    AmplificationResult,
    PipelineResult,
    ReconciliationResult,
    cascade,
    pipeline,
    toeplitz_pa,
)
from .protocol import (
    ProtocolConfig,
    SessionReport,
    empirical_rates,
    run_session,
)
from .quantum import (
    Basis,
    UnitarySpec,
    random_unitary,
)
from .randomness import (
    BitSource,
    ConsumptionReport,
    RandomnessLedger,
    consumption_ratio,
)

__all__ = [
    "__version__",
    "AmplificationResult",
    "Basis",
    "BitSource",
    "BlockAttackSpec",
    "ConsumptionReport",
    "EquivalenceReport",
    "JointDistribution",
    "PipelineResult",
    "ProtocolConfig",
    "RandomnessLedger",
    "RateReport",
    "ReconciliationResult",
    "SessionReport",
    "UnitarySpec",
    "binary_entropy",
    "cascade",
    "ck_rate",
    "consumption_ratio",
    "empirical_rates",
    "entropy",
    "load_unitary",
    "mutual_information",
    "pipeline",
    "random_unitary",
    "reduction_corpus",
    "run_session",
    "save_unitary",
    "toeplitz_pa",
    "verify_reduction",
]
