"""Adaptive prediction of quantum observables from classical snapshots.

Subpackages by concern:

- core: observables, states, transcripts, shared config
- shadows: snapshot collection, estimators, concentration bounds
- attack: adaptive vs non-adaptive error separation on snapshot estimators
- mechanisms: differentially private answer sessions (SQ, median, PMW)
- threshold_search: sparse-vector threshold sessions and the shadow wrapper
- subspace: online mistake-bounded learner over explicit eigendecompositions
- ifpc: fingerprinting games and the two query-hiding attacks
- cli: seeded batch experiments behind the ``adsh`` entry point
"""

from .core import (DenseState, HermitianDense, MechanismConfig, PauliString,
                   RankOneProjector, Round, SingleQubitZ, Transcript, ZParity,
                   evaluate_accuracy, expectation, spawn_rngs)
from .errors import (AcceptanceFailure, BudgetExhausted, ConfigError,
                     DimensionMismatch, Halted, InvalidPair, LengthMismatch,
                     MalformedCsv, MalformedSnapshots, PrimitiveMismatch,
                     UnsupportedPair)
from .shadows import (collect_pauli_snapshots, collect_povm_snapshots,
                      empirical_mean, median_of_means, povm_moment_bound,
                      povm_tail_bound, shadow_norm_bound, snapshot_values)
from .attack import (attack_experiment, run_adaptive_attack,
                     run_nonadaptive_baseline)
from .mechanisms import (DpMedianSession, PmwSession, SqSession,
                         adaptive_pauli_mechanism, bell_samples)
from .threshold_search import (ClosenessTeacher, ShadowThresholdSession,
                               SparseVectorSession, truncation_level)
from .subspace import (ExactTeacher, LearnerRun, Subspace,
                       frobenius_mistake_cap, low_rank_mistake_cap,
                       run_bounded_frobenius, run_low_rank, run_single_rank,
                       single_rank_mistake_cap)
from .ifpc import (EmpiricalMeanMechanism, FingerprintingCode, GameState,
                   OtpKeypair, ScoreTracingCode, otp_decrypt, otp_encrypt,
                   run_ifpc_game, run_local_attack, run_pauli_attack)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceFailure", "BudgetExhausted", "ClosenessTeacher", "ConfigError",
    "DenseState", "DimensionMismatch", "DpMedianSession",
    "EmpiricalMeanMechanism", "ExactTeacher", "FingerprintingCode",
    "GameState", "Halted", "HermitianDense", "InvalidPair", "LearnerRun",
    "LengthMismatch", "MalformedCsv", "MalformedSnapshots", "MechanismConfig",
    "OtpKeypair", "PauliString", "PmwSession", "PrimitiveMismatch",
    "RankOneProjector", "Round", "ScoreTracingCode", "ShadowThresholdSession",
    "SingleQubitZ", "SparseVectorSession", "SqSession", "Subspace",
    "Transcript", "UnsupportedPair", "ZParity", "adaptive_pauli_mechanism",
    "attack_experiment", "bell_samples", "collect_pauli_snapshots",
    "collect_povm_snapshots", "empirical_mean", "evaluate_accuracy",
    "expectation", "frobenius_mistake_cap", "low_rank_mistake_cap",
    "median_of_means", "otp_decrypt", "otp_encrypt", "povm_moment_bound",
    "povm_tail_bound", "run_adaptive_attack", "run_bounded_frobenius",
    "run_ifpc_game", "run_local_attack", "run_low_rank",
    "run_nonadaptive_baseline", "run_pauli_attack", "run_single_rank",
    "shadow_norm_bound", "single_rank_mistake_cap", "snapshot_values",
    "spawn_rngs", "truncation_level",
]
