"""States, observables, exact expectations, sampling, transcripts, session logs.

Two state families cover everything downstream:

* :class:`DiagonalState` — a distribution over classical bitstrings, sampled
  lazily so states with exponentially many derived coordinates stay cheap.
* :class:`DenseState` — a small explicit density matrix.

Observables are small tagged payloads (single-qubit Z, Z-parity masks, Pauli
strings, rank-one projectors, dense Hermitians); :func:`expectation` evaluates
tr(O rho) exactly for any valid pairing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NonDiagonalObservableOnDiagonalState

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-9
UNIT_NORM_ATOL = 1e-10
SPECTRAL_ATOL = 1e-9

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

class DiagonalState:
    """Product distribution over bitstrings; base for derived-coordinate states.

    Parameters
    ----------
    n_qubits : int
        Number of directly sampled coordinates ("base coins").
    probs : sequence of float, optional
        Per-coordinate P(bit = 1).  Defaults to fair coins.
    """

    def __init__(self, n_qubits: int, probs: Optional[Sequence[float]] = None):
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        self.n_base = int(n_qubits)
        if probs is None:
            self._probs = np.full(self.n_base, 0.5)
        else:
            self._probs = np.asarray(probs, dtype=float)
            if self._probs.shape != (self.n_base,):
                raise ValueError("probs length must equal n_qubits")
            if np.any((self._probs < 0) | (self._probs > 1)):
                raise ValueError("probs must lie in [0, 1]")

    # total logical width; subclasses with derived coordinates override
    @property
    def n_qubits(self) -> int:
        return self.n_base

    def sample_base(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, n_base) draws of the base coins from one uniform block."""
        return (rng.random((count, self.n_base)) < self._probs).astype(np.int8)

    def coordinate_bit(self, index: int, base: np.ndarray) -> int:
        """Bit at a logical coordinate given the sampled base coins."""
        if not 0 <= index < self.n_qubits:
            raise DimensionMismatch(f"coordinate {index} outside width {self.n_qubits}")
        return int(base[index])

    def base_support(self, index: int) -> tuple[int, ...]:
        """Base coins a coordinate depends on (itself, for base coordinates)."""
        return (index,)

    def parity_expectation(self, indices: Sequence[int]) -> float:
        """Exact E[prod_i (-1)^{bit_i}] over the given coordinates.

        Evaluated by enumerating the joint of the involved base coins, so it
        stays correct for derived coordinates as long as the combined base
        support is small.
        """
        indices = tuple(indices)
        if not indices:
            return 1.0
        support = sorted({b for i in indices for b in self.base_support(i)})
        if len(support) > 22:
            raise NonDiagonalObservableOnDiagonalState(
                "parity support touches too many base coins to enumerate"
            )
        pos = {b: k for k, b in enumerate(support)}
        total = 0.0
        m = len(support)
        base = np.zeros(self.n_base, dtype=np.int8)
        for word in range(1 << m):
            p = 1.0
            for b in support:
                bit = (word >> pos[b]) & 1
                pb = self._probs[b]
                p *= pb if bit else (1.0 - pb)
                base[b] = bit
            if p == 0.0:
                continue
            sign = 1
            for i in indices:
                if self.coordinate_bit(i, base):
                    sign = -sign
            total += sign * p
        return total


class DenseState:
    """A validated d x d density matrix."""

    def __init__(self, matrix: np.ndarray):
        rho = np.asarray(matrix, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DimensionMismatch("density matrix must be square")
        if not np.allclose(rho, rho.conj().T, atol=HERMITIAN_ATOL):
            raise ValueError("density matrix must be Hermitian")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace must be 1, got {tr}")
        evals = np.linalg.eigvalsh(rho)
        if evals.min() < -PSD_ATOL:
            raise ValueError(f"matrix not PSD, min eigenvalue {evals.min()}")
        self.matrix = rho
        self.d = rho.shape[0]
        self.eigenvalues = evals

    @property
    def n_qubits(self) -> int:
        n = int(round(np.log2(self.d)))
        if 2**n != self.d:
            raise DimensionMismatch("state dimension is not a power of two")
        return n


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingleQubitZ:
    """Z on one coordinate, identity elsewhere."""

    index: int


@dataclass(frozen=True)
class ZParity:
    """Product of Z over a mask of coordinates: value (-1)^(sum of masked bits)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(sorted(set(self.bits))))


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, e.g. "XIZ" (symbol k acts on qubit k)."""

    symbols: str

    def __post_init__(self):
        if not self.symbols or any(s not in "IXYZ" for s in self.symbols):
            raise ValueError(f"bad Pauli string {self.symbols!r}")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, s in enumerate(self.symbols) if s != "I")


class RankOneProjector:
    """|psi><psi| for a unit vector psi."""

    def __init__(self, vector: np.ndarray):
        v = np.asarray(vector, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > UNIT_NORM_ATOL:
            raise ValueError(f"projector vector norm {nrm} != 1")
        self.vector = v
        self.d = v.shape[0]


class HermitianDense:
    """Dense Hermitian observable with a cached eigendecomposition.

    Spectral norm must not exceed 1 (all query classes downstream assume
    operator-norm-bounded observables).
    """

    def __init__(self, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch("observable matrix must be square")
        if not np.allclose(mat, mat.conj().T, atol=HERMITIAN_ATOL):
            raise ValueError("observable must be Hermitian")
        self.matrix = mat
        self.d = mat.shape[0]
        w, v = np.linalg.eigh(mat)
        if np.abs(w).max() > 1.0 + SPECTRAL_ATOL:
            raise ValueError(f"spectral norm {np.abs(w).max()} exceeds 1")
        # eigh already returns orthonormal columns; keep its deterministic order
        self.eigenvalues = w
        self.eigenvectors = v

    def frobenius_sq(self) -> float:
        return float(np.sum(self.eigenvalues**2))


def is_diagonal(obs) -> bool:
    """True when the observable is diagonal in the computational basis."""
    if isinstance(obs, (SingleQubitZ, ZParity)):
        return True
    if isinstance(obs, PauliString):
        return all(s in "IZ" for s in obs.symbols)
    return False


def observable_support(obs) -> tuple[int, ...]:
    """Coordinates the observable acts on non-trivially."""
    if isinstance(obs, SingleQubitZ):
        return (obs.index,)
    if isinstance(obs, ZParity):
        return obs.bits
    if isinstance(obs, PauliString):
        return obs.support
    raise NonDiagonalObservableOnDiagonalState(
        f"{type(obs).__name__} has no sparse support"
    )


def dense_matrix(obs, n_qubits: int) -> np.ndarray:
    """Materialize the observable as a 2^n x 2^n matrix."""
    d = 2**n_qubits
    if isinstance(obs, RankOneProjector):
        if obs.d != d:
            raise DimensionMismatch(f"projector dim {obs.d} != {d}")
        return np.outer(obs.vector, obs.vector.conj())
    if isinstance(obs, HermitianDense):
        if obs.d != d:
            raise DimensionMismatch(f"observable dim {obs.d} != {d}")
        return obs.matrix
    if isinstance(obs, PauliString):
        if len(obs.symbols) != n_qubits:
            raise DimensionMismatch("Pauli string length != qubit count")
        out = np.array([[1.0 + 0j]])
        for s in obs.symbols:
            out = np.kron(out, PAULI_MATRICES[s])
        return out
    if isinstance(obs, (SingleQubitZ, ZParity)):
        idx = observable_support(obs)
        if idx and max(idx) >= n_qubits:
            raise DimensionMismatch("Z mask exceeds qubit count")
        diag = np.ones(d)
        for word in range(d):
            pops = sum((word >> (n_qubits - 1 - i)) & 1 for i in idx)
            if pops % 2:
                diag[word] = -1.0
        return np.diag(diag).astype(complex)
    raise TypeError(f"unknown observable {type(obs).__name__}")


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------

def expectation(state, obs) -> float:
    """Exact tr(O rho).

    Diagonal states accept only diagonal observables (Z-type); dense states
    accept everything of matching dimension.
    """
    if isinstance(state, DiagonalState):
        if not is_diagonal(obs):
            raise NonDiagonalObservableOnDiagonalState(
                f"{type(obs).__name__} is not diagonal"
            )
        support = observable_support(obs)
        return state.parity_expectation(support)
    if isinstance(state, DenseState):
        if isinstance(obs, RankOneProjector):
            if obs.d != state.d:
                raise DimensionMismatch(f"projector dim {obs.d} != {state.d}")
            return float(np.real(obs.vector.conj() @ state.matrix @ obs.vector))
        mat = dense_matrix(obs, state.n_qubits)
        return float(np.real(np.trace(mat @ state.matrix)))
    raise TypeError(f"unknown state {type(state).__name__}")


# ---------------------------------------------------------------------------
# transcript
# ---------------------------------------------------------------------------

@dataclass
class Round:
    query: object
    answer: float
    truth: float


@dataclass
class Transcript:
    rounds: list[Round] = field(default_factory=list)

    def append(self, query, answer: float, truth: float) -> None:
        self.rounds.append(Round(query, float(answer), float(truth)))

    def __len__(self) -> int:
        return len(self.rounds)


# ---------------------------------------------------------------------------
# configuration & seeding
# ---------------------------------------------------------------------------

@dataclass
class MechanismConfig:
    """Shared knob bundle for mechanisms and experiment runners."""

    N: int = 1000
    M: int = 100
    epsilon: float = 0.1
    delta: float = 0.05
    B: float = 1.0
    ell: int = 10
    K: int = 10
    seed: int = 0
    d_users: int = 100
    m_bits: int = 8

    def __post_init__(self):
        for name in ("N", "M", "ell", "K", "d_users", "m_bits"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.B < 0:
            raise ValueError("B must be non-negative")


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Deterministic tree of independent generators (stable across worker counts)."""
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

RECORD_FIELDS = ["query_id", "answer", "noise_scale", "budget_remaining"]


def log_query(log: list, answer, noise_scale: float, budget_remaining) -> None:
    """Append one ``RECORD_FIELDS`` row to a session log, numbered by position."""
    log.append({"query_id": len(log), "answer": answer,
                "noise_scale": noise_scale, "budget_remaining": budget_remaining})


def write_csv(path, fieldnames: Sequence[str], rows: Iterable[dict]) -> None:
    """RFC-4180 table with a header row: session logs and experiment results."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
