"""Adaptivity-robust prediction mechanisms.

Four families; the first three are single-owner stateful sessions that
answer one adaptively chosen query per call:

* DP truncated median-of-means over batched shadow estimates, privatized
  with the exponential mechanism on a uniform candidate grid.
* Private multiplicative weights over an explicit universe (for Pauli
  shadows, the snapshot-encoding universe via ``PmwSession.from_shadows``),
  gated by a sparse-vector comparison; answered queries are cached so repeats
  are free and identical.
* Gaussian-noised statistical queries with a zCDP-style per-query budget
  split (the noise constants are engineering choices, validated by the
  contract tests, not a citation).
* The Bell-sample Pauli pipeline (``adaptive_pauli_mechanism``): magnitude
  from two-copy Bell measurements (E[q_P] = tr(P rho)^2) through an SQ
  session, sign from an exact oracle standing in for the coherent
  measurement, answer = sign * sqrt(magnitude).

Every session appends one trace row per query (``TRACE_FIELDS``): query_id,
answer, noise_scale, budget_remaining.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    DenseState,
    MechanismConfig,
    PauliString,
    dense_matrix,
    expectation,
)
from .errors import (
    BudgetExhausted,
    DimensionMismatch,
    DimensionTooLarge,
    EmptyDataset,
    IndivisibleBatching,
    UniverseTooLarge,
    ZeroExpectation,
)
from .shadows import ShadowDataset, shadow_norm_bound, snapshot_values

UNIVERSE_CAP = 1 << 20          # 2^m universe with m <= 20
BELL_QUBIT_CAP = 5              # dense rho (x) rho
SIGN_ZERO_ATOL = 1e-12

TRACE_FIELDS = ["query_id", "answer", "noise_scale", "budget_remaining"]


# ---------------------------------------------------------------------------
# DP truncated median of means
# ---------------------------------------------------------------------------

def truncation_interval(B: float, batch_size: int) -> float:
    """Half-width of the batch-mean clamp: 2*sqrt(B/N) + 1."""
    return 2.0 * math.sqrt(B / batch_size) + 1.0


class DpMedianSession:
    """Answers adaptive observable queries with a private median of K batch means.

    The dataset must hold exactly K * (batch size) snapshots.  Per query the
    batch means are clamped to [-(2 sqrt(B/N)+1), +(2 sqrt(B/N)+1)] with B the
    shadow-norm bound of the observable, then the exponential mechanism picks
    a grid candidate (resolution gamma, default epsilon/4) by the rank utility
    -|#{means below} + half-ties - K/2|.  Each query spends epsilon; after
    cfg.M queries the session raises BudgetExhausted.
    """

    def __init__(self, ds: ShadowDataset, cfg: MechanismConfig,
                 rng: Optional[np.random.Generator] = None,
                 gamma: Optional[float] = None):
        if len(ds) == 0:
            raise EmptyDataset("dp-median needs snapshots")
        if len(ds) % cfg.K != 0:
            raise IndivisibleBatching(f"{len(ds)} snapshots not divisible by K={cfg.K}")
        self.ds = ds
        self.cfg = cfg
        self.batch_size = len(ds) // cfg.K
        self.gamma = gamma if gamma is not None else cfg.epsilon / 4.0
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.answered = 0
        self.trace: list[dict] = []

    def query(self, obs, values: Optional[np.ndarray] = None) -> float:
        if self.answered >= self.cfg.M:
            raise BudgetExhausted(f"query budget M={self.cfg.M} spent")
        B = shadow_norm_bound(obs, self.ds.primitive)
        bound = truncation_interval(max(B, 0.0), self.batch_size)
        if values is None:
            values = snapshot_values(self.ds, obs)
        elif len(values) != len(self.ds):
            raise DimensionMismatch(
                f"{len(values)} values for {len(self.ds)} snapshots")
        means = values.reshape(self.cfg.K, self.batch_size).mean(axis=1)
        means = np.clip(means, -bound, bound)

        npts = int(math.floor(2.0 * bound / self.gamma)) + 1
        grid = -bound + self.gamma * np.arange(npts)
        # snap means to their nearest candidate before rank counting: one
        # mean still moves every count by at most 1 (sensitivity 1), and a
        # point mass of identical means becomes recoverable at resolution
        # gamma instead of leaving the rank utility flat around it
        cells = np.clip(np.round((means + bound) / self.gamma), 0, npts - 1)
        counts = np.bincount(cells.astype(int), minlength=npts)
        below = np.concatenate(([0], np.cumsum(counts)[:-1]))
        utility = -np.abs(below + 0.5 * counts - self.cfg.K / 2.0)
        logw = (self.cfg.epsilon / 2.0) * (utility - utility.max())
        w = np.exp(logw)
        answer = float(grid[self.rng.choice(npts, p=w / w.sum())])

        self.answered += 1
        self.trace.append({
            "query_id": self.answered - 1, "answer": answer,
            # exponential mechanism: weights exp(eps * u / 2) over a
            # sensitivity-1 utility, i.e. scale 2 / eps
            "noise_scale": 2.0 / self.cfg.epsilon,
            "budget_remaining": self.cfg.M - self.answered,
        })
        return answer


# ---------------------------------------------------------------------------
# private multiplicative weights
# ---------------------------------------------------------------------------

class PmwSession:
    """Multiplicative weights over an explicit universe, gated by sparse vector.

    The dataset enters as an empirical histogram over the universe.  Per
    query (a value vector over the universe) the synthetic answer is compared
    to a noisy real answer; within threshold the deterministic synthetic
    value is released, otherwise the weights move toward the data and the
    noisy real answer is released (one unit of update budget).  Answers are
    cached by query fingerprint, so repeated queries are identical and free.
    Constant queries are data-independent and answered exactly.
    """

    def __init__(self, histogram: np.ndarray, n_records: int, cfg: MechanismConfig,
                 rng: Optional[np.random.Generator] = None):
        h = np.asarray(histogram, dtype=float)
        if h.ndim != 1 or len(h) < 2:
            raise DimensionMismatch("histogram must be a vector over the universe")
        if len(h) > UNIVERSE_CAP:
            raise UniverseTooLarge(f"universe {len(h)} exceeds {UNIVERSE_CAP}")
        if h.min() < 0 or abs(h.sum() - 1.0) > 1e-9:
            raise ValueError("histogram must be a probability vector")
        if n_records < 1:
            raise ValueError("n_records must be >= 1")
        self.h = h
        self.U = len(h)
        self.cfg = cfg
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        # Laplace scale: sensitivity 2/n per normalized query, union bound
        # over all threshold/comparison draws of the run.
        self.noise_scale = (4.0 / (n_records * cfg.epsilon)) * math.log(
            2.0 * (cfg.M + cfg.ell + 1) / cfg.delta)
        self.threshold = max(10.0 * self.noise_scale, 0.04)
        self.eta = self.threshold / 2.0
        self.weights = np.full(self.U, 1.0 / self.U)
        self.updates = 0
        self.answered = 0
        self._cache: dict[bytes, float] = {}
        self._threshold_noise = self.rng.laplace(0.0, self.noise_scale)
        self.trace: list[dict] = []

    @classmethod
    def from_shadows(cls, ds: ShadowDataset, cfg: MechanismConfig,
                     rng: Optional[np.random.Generator] = None) -> "PmwSession":
        """Session over the histogram of the 6^n Pauli snapshot encodings;
        answer an observable by querying ``query_value_table(obs, n)``."""
        codes = encode_snapshots(ds)
        n = ds.bases.shape[1]
        U = 6**n
        if U > UNIVERSE_CAP:   # refuse before bincount allocates 6^n floats
            raise UniverseTooLarge(f"6^{n} exceeds {UNIVERSE_CAP}")
        hist = np.bincount(codes, minlength=U).astype(float)
        return cls(hist / len(codes), len(codes), cfg, rng=rng)

    def _log(self, answer: float, scale: float) -> None:
        self.trace.append({
            "query_id": self.answered - 1, "answer": answer,
            "noise_scale": scale,
            "budget_remaining": self.cfg.ell - self.updates,
        })

    def query(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.U,):
            raise DimensionMismatch(f"query length {values.shape} != universe {self.U}")
        key = values.tobytes()
        if key in self._cache:
            return self._cache[key]
        self.answered += 1

        vmax = float(np.abs(values).max())
        if vmax == 0.0 or values.max() == values.min():
            answer = float(self.h @ values)  # data-independent: answer exactly
            self._cache[key] = answer
            self._log(answer, 0.0)
            return answer

        vn = values / vmax
        synthetic = float(self.weights @ vn)
        real = float(self.h @ vn)
        noisy_real = real + self.rng.laplace(0.0, self.noise_scale)
        if abs(noisy_real - synthetic) <= self.threshold + self._threshold_noise:
            answer = synthetic * vmax
            self._cache[key] = answer
            self._log(answer, self.noise_scale)
            return answer

        # update path: move weights toward the data, pay one budget unit
        if self.updates >= self.cfg.ell:
            raise BudgetExhausted(f"update budget ell={self.cfg.ell} spent")
        self.updates += 1
        direction = 1.0 if noisy_real > synthetic else -1.0
        self.weights *= np.exp(self.eta * direction * vn)
        self.weights /= self.weights.sum()
        self._threshold_noise = self.rng.laplace(0.0, self.noise_scale)
        answer = noisy_real * vmax
        self._cache[key] = answer
        self._log(answer, self.noise_scale)
        return answer


# --- shadow-encoding universe plumbing --------------------------------------

# single-qubit inverse-channel matrices 3|e><e| - I, indexed by symbol
# id = 2*basis + outcome (X0 X1 Y0 Y1 Z0 Z1)
def _inverse_channel_atoms() -> np.ndarray:
    from .shadows import _EIGENSTATES
    atoms = np.empty((6, 2, 2), dtype=complex)
    for b in range(3):
        for o in range(2):
            e = _EIGENSTATES[b][o]
            atoms[2 * b + o] = 3.0 * np.outer(e, e.conj()) - np.eye(2)
    return atoms

_ATOMS = _inverse_channel_atoms()


def encode_snapshots(ds: ShadowDataset) -> np.ndarray:
    """Mixed-radix code per snapshot: qubit q contributes (2*basis+outcome)*6^q."""
    if ds.primitive != "pauli":
        raise DimensionMismatch("only pauli snapshots have finite encodings")
    n = ds.bases.shape[1]
    symbols = 2 * ds.bases.astype(np.int64) + ds.outcomes
    radix = 6 ** np.arange(n, dtype=np.int64)
    return symbols @ radix


def query_value_table(obs, n_qubits: int) -> np.ndarray:
    """tr(O rho_hat(code)) for every code, via per-qubit tensor contraction.

    tr(O (x)_q sigma(s_q)) = sum over bit words of O[r, c] * prod sigma[c_q, r_q];
    contracting one qubit pair at a time against the 6-atom stack turns the
    2n bit axes into n symbol axes of size 6.
    """
    mat = dense_matrix(obs, n_qubits)
    t = mat.reshape((2,) * (2 * n_qubits))
    for q in range(n_qubits):
        # leading q axes are finished symbols; qubit q's row axis sits at
        # position q and its column axis at position n throughout the sweep
        t = np.tensordot(t, _ATOMS, axes=([q, n_qubits], [2, 1]))
        t = np.moveaxis(t, -1, q)
    # axis order is (s_0 .. s_{n-1}); codes index s_0 as the least
    # significant digit, so reverse before flattening
    return np.real(t.transpose(tuple(reversed(range(n_qubits)))).reshape(-1))


# ---------------------------------------------------------------------------
# statistical-query mechanism
# ---------------------------------------------------------------------------

class SqSession:
    """Gaussian-noised clamped means with a per-query budget split.

    Noise sigma = (2C/N) * sqrt(2 M ln(1/delta)) / epsilon: the zCDP budget
    epsilon^2/(4 ln(1/delta)) divided evenly across M queries on a mean of
    sensitivity 2C/N.  Answers are clamped back to [-C, C].
    """

    def __init__(self, records: Sequence, cfg: MechanismConfig,
                 rng: Optional[np.random.Generator] = None, C: float = 1.0):
        if len(records) == 0:
            raise EmptyDataset("sq mechanism needs records")
        if C <= 0:
            raise ValueError("C must be positive")
        self.records = records
        self.cfg = cfg
        self.C = float(C)
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.sigma = (2.0 * self.C / len(records)) * math.sqrt(
            2.0 * cfg.M * math.log(1.0 / cfg.delta)) / cfg.epsilon
        self.answered = 0
        self.trace: list[dict] = []

    def query(self, values: np.ndarray) -> float:
        """Noised, clamped mean of one value per record."""
        if self.answered >= self.cfg.M:
            raise BudgetExhausted(f"query budget M={self.cfg.M} spent")
        vals = np.asarray(values, dtype=float)
        if len(vals) != len(self.records):
            raise DimensionMismatch("value vector length != record count")
        vals = np.clip(vals, -self.C, self.C)
        answer = float(np.clip(vals.mean() + self.rng.normal(0.0, self.sigma),
                               -self.C, self.C))
        self.answered += 1
        self.trace.append({
            "query_id": self.answered - 1, "answer": answer,
            "noise_scale": self.sigma,
            "budget_remaining": self.cfg.M - self.answered,
        })
        return answer


# ---------------------------------------------------------------------------
# Bell-sample Pauli pipeline
# ---------------------------------------------------------------------------

# per-pair sign of tr((sigma (x) sigma) Bell_w), outcome order Phi+ Phi- Psi+ Psi-
BELL_SIGN_TABLE = {
    "I": np.array([1.0, 1.0, 1.0, 1.0]),
    "X": np.array([1.0, -1.0, 1.0, -1.0]),
    "Y": np.array([-1.0, 1.0, 1.0, -1.0]),
    "Z": np.array([1.0, 1.0, -1.0, -1.0]),
}

# Bell kets over the pair index (a, b) -> row 2a+b; columns Phi+ Phi- Psi+ Psi-
_BELL_PAIR = np.array([
    [1, 1, 0, 0],
    [0, 0, 1, 1],
    [0, 0, 1, -1],
    [1, -1, 0, 0],
], dtype=complex) / math.sqrt(2.0)


def bell_probabilities(state: DenseState) -> np.ndarray:
    """Exact outcome distribution over the 4^n Bell words."""
    n = state.n_qubits
    if n > BELL_QUBIT_CAP:
        raise DimensionTooLarge(f"bell sampling capped at {BELL_QUBIT_CAP} qubits")
    # paired-order unitary: word w's column is the product of pair kets
    U_p = np.array([[1.0 + 0j]])
    for _ in range(n):
        U_p = np.kron(U_p, _BELL_PAIR)
    # rows currently indexed by interleaved bits (a_0 b_0 a_1 b_1 ...);
    # re-order to copy order (a_0..a_{n-1} b_0..b_{n-1})
    dim = 4**n
    rows = np.arange(dim)
    a = np.zeros(dim, dtype=np.int64)
    b = np.zeros(dim, dtype=np.int64)
    for q in range(n):
        pair = (rows >> (2 * (n - 1 - q))) & 3
        a |= (pair >> 1) << (n - 1 - q)
        b |= (pair & 1) << (n - 1 - q)
    copy_index = (a << n) | b
    U = np.zeros_like(U_p)
    U[copy_index] = U_p
    rho2 = np.kron(state.matrix, state.matrix)
    probs = np.real(np.einsum("iw,ij,jw->w", U.conj(), rho2, U))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def bell_samples(state: DenseState, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """(count, n) array of Bell outcome indices."""
    n = state.n_qubits
    probs = bell_probabilities(state)
    words = rng.choice(len(probs), size=count, p=probs)
    out = np.empty((count, n), dtype=np.uint8)
    for q in range(n):
        out[:, q] = (words >> (2 * (n - 1 - q))) & 3
    return out


def q_p_values(outcomes: np.ndarray, P: PauliString) -> np.ndarray:
    """q_P per sample: the product over qubits of the pair-sign table entries."""
    if outcomes.ndim == 1:
        outcomes = outcomes[None, :]
    if len(P.symbols) != outcomes.shape[1]:
        raise DimensionMismatch("Pauli string length != sample width")
    vals = np.ones(outcomes.shape[0])
    for q, s in enumerate(P.symbols):
        vals *= BELL_SIGN_TABLE[s][outcomes[:, q]]
    return vals


def pauli_sign_oracle(state: DenseState, P: PauliString,
                      strict: bool = False) -> tuple[int, bool]:
    """Exact sign of tr(P rho); (+1, flagged) for vanishing expectations.

    Stands in for a coherent sign measurement on stored samples, whose
    quantum-memory semantics we do not simulate.
    """
    tr = expectation(state, P)
    if abs(tr) < SIGN_ZERO_ATOL:
        if strict:
            raise ZeroExpectation(f"tr(P rho) = {tr}")
        return 1, True
    return (1 if tr > 0 else -1), False


def adaptive_pauli_mechanism(state: DenseState, queries: Iterable[PauliString],
                             cfg: MechanismConfig,
                             rng: Optional[np.random.Generator] = None) -> list[float]:
    """Two-step Pauli expectations: private magnitude, exact sign.

    Magnitudes go through the statistical-query mechanism over cfg.N Bell
    samples (q_P in {-1, +1}, C=1); the answer is sign * sqrt(max(mag, 0)).
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    outcomes = bell_samples(state, cfg.N, rng)
    sq = SqSession(outcomes, cfg, rng=rng, C=1.0)
    answers = []
    for P in queries:
        mag = sq.query(q_p_values(outcomes, P))
        sign, _ = pauli_sign_oracle(state, P)
        answers.append(sign * math.sqrt(max(mag, 0.0)))
    return answers

