"""Exception types shared across the library.

Every module raises subclasses of :class:`AdaptiveShadowsError` so callers can
catch library failures with a single except clause while tests match on the
specific class.
"""

from __future__ import annotations


class AdaptiveShadowsError(Exception):
    """Base class for all library errors."""


# states & observables -------------------------------------------------------

class DimensionMismatch(AdaptiveShadowsError):
    """Observable and state dimensions disagree."""


class NonDiagonalObservableOnDiagonalState(AdaptiveShadowsError):
    """A diagonal (bitstring-distribution) state only supports diagonal observables."""


# shadows ---------------------------------------------------------------------

class NonLocalObservable(AdaptiveShadowsError):
    """Snapshot expectation only supports observables on a bounded number of qubits."""


class RejectionBudgetExceeded(AdaptiveShadowsError):
    """The rejection sampler used up its proposal budget without an accept."""


class MalformedSnapshots(AdaptiveShadowsError, ValueError):
    """A snapshot file is truncated, mis-encoded or holds non-unit vectors."""


class EmptyDataset(AdaptiveShadowsError):
    """Estimators need a non-empty snapshot dataset."""


class IndivisibleBatching(AdaptiveShadowsError):
    """Dataset size must be divisible by the number of batches."""


class UnsupportedPair(AdaptiveShadowsError):
    """No norm bound is available for this observable/primitive combination."""


# mechanisms ------------------------------------------------------------------

class BudgetExhausted(AdaptiveShadowsError):
    """The mechanism's query or update budget is spent."""


class UniverseTooLarge(AdaptiveShadowsError):
    """The multiplicative-weights universe exceeds the configured size cap."""


class DimensionTooLarge(AdaptiveShadowsError):
    """Dense simulation is capped at small qubit counts."""


class ZeroExpectation(AdaptiveShadowsError):
    """A sign was requested for a vanishing expectation (strict mode only)."""


# threshold search ------------------------------------------------------------

class Halted(AdaptiveShadowsError):
    """The session stopped after exhausting its above-threshold budget."""


class PrimitiveMismatch(AdaptiveShadowsError):
    """The dataset's snapshot primitive is not the one this operation needs."""


class NonpositiveT(AdaptiveShadowsError):
    """Truncation level must be positive."""


# subspace learner -------------------------------------------------------------

class NegativeResidualTrace(AdaptiveShadowsError):
    """Compressed state trace exceeds 1; numerical breakage upstream."""


class MistakeBudgetExceeded(AdaptiveShadowsError):
    """More teacher mistakes than the contract allows; signals a bug, not control flow."""


# ifpc -------------------------------------------------------------------------

class LengthMismatch(AdaptiveShadowsError):
    """Key and message lengths must agree."""


class InvalidPair(AdaptiveShadowsError):
    """A doubled-encoding ciphertext pair must be 01 or 10."""


# cli ---------------------------------------------------------------------------

class ConfigError(AdaptiveShadowsError):
    """Bad experiment spec or config file (CLI exit code 2)."""


class AcceptanceFailure(AdaptiveShadowsError):
    """An embedded acceptance threshold was missed (CLI exit code 1)."""


class MalformedCsv(AdaptiveShadowsError):
    """Plot-data emission got a CSV it cannot reshape."""
