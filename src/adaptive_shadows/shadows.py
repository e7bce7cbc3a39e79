"""Classical-shadow snapshots (random-Pauli and uniform-POVM) and estimators.

Two measurement primitives:

* Random Pauli bases — one of the 6 single-qubit Pauli eigenstates per qubit.
  Per-snapshot Z-type estimates use the +/-3 outcome-sign rule: each supported
  qubit contributes ``3 * (-1)**outcome`` regardless of the measured basis
  (a matching basis makes the outcome the true bit; a mismatched basis on a
  diagonal state makes it a fair coin, so the estimator is unbiased there).
  For non-diagonal dense states this rule is biased; use the POVM primitive
  for those.
* Uniform POVM — direction v drawn with density d<v|rho|v>, snapshot matrix
  (d+1)|v><v| - I, the exact inverse channel.  Unbiased for any state.

Datasets store snapshots columnar (basis/outcome arrays, or a vector stack)
so estimators stay vectorized at 10^5-10^6 snapshots.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (
    UNIT_NORM_ATOL,
    DenseState,
    DiagonalState,
    HermitianDense,
    PauliString,
    RankOneProjector,
    SingleQubitZ,
    ZParity,
    dense_matrix,
    observable_support,
)
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    IndivisibleBatching,
    MalformedSnapshots,
    NonLocalObservable,
    RejectionBudgetExceeded,
    UnsupportedPair,
)

BASIS_LETTERS = "XYZ"          # basis codes 0, 1, 2
LOCALITY_CAP = 10              # per-snapshot estimates up to 3^10
REJECTION_BUDGET = 10_000      # proposals per accepted POVM draw
POVM_MAGIC = b"POVM"

# one-character encoding of (basis, outcome); order: X0 X1 Y0 Y1 Z0 Z1
_SNAPSHOT_ALPHABET = {
    (0, 0): "+", (0, 1): "-",
    (1, 0): "r", (1, 1): "l",
    (2, 0): "0", (2, 1): "1",
}
_SNAPSHOT_DECODE = {c: bo for bo, c in _SNAPSHOT_ALPHABET.items()}

# single-qubit eigenstates indexed [basis][outcome]
_EIGENSTATES = np.array(
    [
        [[1 / np.sqrt(2), 1 / np.sqrt(2)], [1 / np.sqrt(2), -1 / np.sqrt(2)]],
        [[1 / np.sqrt(2), 1j / np.sqrt(2)], [1 / np.sqrt(2), -1j / np.sqrt(2)]],
        [[1, 0], [0, 1]],
    ],
    dtype=complex,
)
# projectors |e><e| and inverse-channel atoms 3|e><e| - I, indexed by
# symbol id = 2*basis + outcome (X0 X1 Y0 Y1 Z0 Z1)
_PROJECTORS = np.einsum("boi,boj->boij", _EIGENSTATES,
                        _EIGENSTATES.conj()).reshape(6, 2, 2)
_ATOMS = 3.0 * _PROJECTORS - np.eye(2)


# ---------------------------------------------------------------------------
# snapshot containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliSnapshot:
    """Per-qubit (basis, outcome) pairs for one measurement round."""

    bases: np.ndarray     # uint8 codes into BASIS_LETTERS
    outcomes: np.ndarray  # uint8 bits

    def __post_init__(self):
        if self.bases.shape != self.outcomes.shape or self.bases.ndim != 1:
            raise DimensionMismatch("bases and outcomes must be equal-length vectors")

    @property
    def n_qubits(self) -> int:
        return self.bases.shape[0]

    def encode(self) -> str:
        return "".join(
            _SNAPSHOT_ALPHABET[(int(b), int(o))]
            for b, o in zip(self.bases, self.outcomes)
        )

    @staticmethod
    def decode(line: str) -> "PauliSnapshot":
        try:
            pairs = [_SNAPSHOT_DECODE[c] for c in line.strip()]
        except KeyError as exc:
            raise MalformedSnapshots(f"unknown snapshot symbol {exc.args[0]!r}") from None
        bases = np.array([p[0] for p in pairs], dtype=np.uint8)
        outcomes = np.array([p[1] for p in pairs], dtype=np.uint8)
        return PauliSnapshot(bases, outcomes)


@dataclass(frozen=True)
class PovmSnapshot:
    """One uniform-POVM draw; the snapshot matrix is (d+1)|v><v| - I."""

    v: np.ndarray

    @property
    def d(self) -> int:
        return self.v.shape[0]

    def implied_matrix(self) -> np.ndarray:
        d = self.d
        return (d + 1) * np.outer(self.v, self.v.conj()) - np.eye(d)


class ShadowDataset:
    """Columnar collection of snapshots from a single primitive."""

    def __init__(self, primitive: str, *,
                 bases: Optional[np.ndarray] = None,
                 outcomes: Optional[np.ndarray] = None,
                 vectors: Optional[np.ndarray] = None):
        if primitive not in ("pauli", "povm"):
            raise ValueError(f"unknown primitive {primitive!r}")
        self.primitive = primitive
        if primitive == "pauli":
            if bases is None or outcomes is None or len(bases) == 0:
                raise EmptyDataset("pauli dataset needs basis/outcome rows")
            self.bases = np.asarray(bases, dtype=np.uint8)
            self.outcomes = np.asarray(outcomes, dtype=np.uint8)
            if self.bases.shape != self.outcomes.shape:
                raise DimensionMismatch("bases/outcomes shape mismatch")
        else:
            if vectors is None or len(vectors) == 0:
                raise EmptyDataset("povm dataset needs at least one vector")
            self.vectors = np.asarray(vectors, dtype=complex)

    @classmethod
    def from_pauli(cls, snaps: Sequence[PauliSnapshot]):
        arr_b = np.stack([s.bases for s in snaps])
        arr_o = np.stack([s.outcomes for s in snaps])
        return cls("pauli", bases=arr_b, outcomes=arr_o)

    def __len__(self) -> int:
        if self.primitive == "pauli":
            return self.bases.shape[0]
        return self.vectors.shape[0]

    def __getitem__(self, i: int):
        if self.primitive == "pauli":
            return PauliSnapshot(self.bases[i], self.outcomes[i])
        return PovmSnapshot(self.vectors[i])

    def __iter__(self) -> Iterator:
        for i in range(len(self)):
            yield self[i]


# ---------------------------------------------------------------------------
# snapshot generation
# ---------------------------------------------------------------------------

def _contract_symbols(mat: np.ndarray, n: int, table: np.ndarray) -> np.ndarray:
    """tr(M (x)_q table[s_q]) for every symbol word, as a (6,) * n array.

    Contracting one qubit pair at a time against the (6, 2, 2) table turns
    the 2n bit axes into n symbol axes: the leading q axes are finished
    symbols, and qubit q's row axis sits at position q and its column axis
    at position n throughout the sweep.
    """
    t = mat.reshape((2,) * (2 * n))
    for q in range(n):
        t = np.tensordot(t, table, axes=([q, n], [2, 1]))
        t = np.moveaxis(t, -1, q)
    return t


def collect_pauli_snapshots(state, count: int,
                            rng: np.random.Generator) -> ShadowDataset:
    """Vectorized batch of Pauli snapshots."""
    if isinstance(state, DiagonalState):
        n = state.n_base
        bits = state.sample_base(rng, count)
        bases = rng.integers(0, 3, size=(count, n)).astype(np.uint8)
        coins = rng.integers(0, 2, size=(count, n)).astype(np.uint8)
        outcomes = np.where(bases == 2, bits.astype(np.uint8), coins)
        return ShadowDataset("pauli", bases=bases, outcomes=outcomes)
    if isinstance(state, DenseState):
        return collect_pauli_snapshots_dense(state, count, rng)
    raise TypeError(f"unknown state {type(state).__name__}")


def collect_pauli_snapshots_dense(state: DenseState, count: int,
                                  rng: np.random.Generator) -> ShadowDataset:
    """Batch sampler for dense states via precomputed per-basis Born tables.

    All 3^n basis combinations are enumerated once; each draw picks a combo
    uniformly, then an outcome word from that combo's exact distribution.
    """
    n = state.n_qubits
    if n > 7:
        raise DimensionMismatch("Born-table sampler capped at 7 qubits")
    combos, d = 3**n, state.d
    # every combo's Born row at once: tr(rho (x)_q |e_{b,o}><e_{b,o}|)
    t = np.real(_contract_symbols(state.matrix, n, _PROJECTORS).reshape((3, 2) * n))
    axes = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    tables = np.ascontiguousarray(t.transpose(axes).reshape(combos, d))
    tables = np.clip(tables, 0.0, None)
    tables /= tables.sum(axis=1, keepdims=True)

    combo_draws = rng.integers(0, combos, size=count)
    words = np.empty(count, dtype=np.int64)
    order = np.argsort(combo_draws, kind="stable")
    bounds = np.searchsorted(combo_draws[order], np.arange(combos + 1))
    for c in range(combos):
        lo, hi = bounds[c], bounds[c + 1]
        if lo < hi:
            words[order[lo:hi]] = rng.choice(d, size=hi - lo, p=tables[c])
    bases = np.empty((count, n), dtype=np.uint8)
    outcomes = np.empty((count, n), dtype=np.uint8)
    for q in range(n):
        bases[:, q] = (combo_draws // 3 ** (n - 1 - q)) % 3
        outcomes[:, q] = (words >> (n - 1 - q)) & 1
    return ShadowDataset("pauli", bases=bases, outcomes=outcomes)


def _haar_vectors(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def collect_povm_snapshots(state: DenseState, count: int,
                           rng: np.random.Generator) -> ShadowDataset:
    """Batched rejection sampling of POVM snapshots."""
    lam = float(state.eigenvalues.max())
    d = state.d
    out = np.empty((count, d), dtype=complex)
    filled = 0
    proposals = 0
    # acceptance rate is ~1/(d*lam); propose with headroom
    chunk_scale = int(np.ceil(2.5 * d * lam))
    while filled < count:
        m = min(max((count - filled) * chunk_scale, 1024), 4_000_000)
        props = _haar_vectors(d, m, rng)
        accept_p = np.real(np.einsum("bi,ij,bj->b", props.conj(), state.matrix, props)) / lam
        keep = props[rng.random(m) < accept_p]
        take = min(len(keep), count - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
        proposals += m
        if proposals > REJECTION_BUDGET * max(count, 1) and filled == 0:
            raise RejectionBudgetExceeded("rejection sampler starving")
    return ShadowDataset("povm", vectors=out)


# ---------------------------------------------------------------------------
# per-snapshot estimates and dataset estimators
# ---------------------------------------------------------------------------

def _povm_values(vectors: np.ndarray, obs, d: int) -> np.ndarray:
    """tr(O rho_hat) for a stack of POVM snapshots, vectorized."""
    if isinstance(obs, RankOneProjector):
        if obs.d != d:
            raise DimensionMismatch(f"projector dim {obs.d} != {d}")
        amp = vectors.conj() @ obs.vector
        return (d + 1) * np.abs(amp) ** 2 - 1.0
    n = int(round(math.log2(d)))
    mat = dense_matrix(obs, n) if not isinstance(obs, HermitianDense) else obs.matrix
    if mat.shape[0] != d:
        raise DimensionMismatch("observable dimension mismatch")
    quad = np.real(np.einsum("bi,ij,bj->b", vectors.conj(), mat, vectors))
    return (d + 1) * quad - float(np.real(np.trace(mat)))


def snapshot_values(ds: ShadowDataset, obs) -> np.ndarray:
    """Vector of per-snapshot estimates tr(O rho_hat_k)."""
    if len(ds) == 0:
        raise EmptyDataset("dataset is empty")
    if ds.primitive == "pauli":
        support = observable_support(obs)
        if len(support) > LOCALITY_CAP:
            raise NonLocalObservable(f"support {len(support)} exceeds cap {LOCALITY_CAP}")
        if support and max(support) >= ds.outcomes.shape[1]:
            raise DimensionMismatch("observable support outside snapshot width")
        vals = np.ones(len(ds))
        for q in support:
            vals *= 3.0 * (1.0 - 2.0 * ds.outcomes[:, q].astype(float))
        return vals
    return _povm_values(ds.vectors, obs, ds.vectors.shape[1])


def empirical_mean(ds: ShadowDataset, obs) -> float:
    """Arithmetic mean of per-snapshot estimates."""
    return float(np.mean(snapshot_values(ds, obs)))


def median_of_means(ds: ShadowDataset, obs, K: int) -> float:
    """Split into K equal batches, mean each, take the lower-middle median."""
    n = len(ds)
    if K < 1 or n % K != 0:
        raise IndivisibleBatching(f"{n} snapshots not divisible into {K} batches")
    vals = snapshot_values(ds, obs).reshape(K, n // K)
    means = np.sort(vals.mean(axis=1))
    return float(means[(K - 1) // 2])


def shadow_norm_bound(obs, primitive: str) -> float:
    """Certified variance-proxy upper bound used for sample-size planning.

    Pauli primitive: 4^k * ||O||_inf^2 for k-local Z-type observables.
    POVM primitive: 3 * tr(O^2).  Identity maps to 0 under both (its traceless
    part vanishes).
    """
    if primitive == "pauli":
        if isinstance(obs, (SingleQubitZ, ZParity, PauliString)):
            k = len(observable_support(obs))
            if k == 0:
                return 0.0
            return float(4**k)
        raise UnsupportedPair(f"pauli bound undefined for {type(obs).__name__}")
    if primitive == "povm":
        if isinstance(obs, RankOneProjector):
            return 3.0
        if isinstance(obs, HermitianDense):
            frob_sq = obs.frobenius_sq()
            d = obs.d
            # identity check: all eigenvalues equal 1 -> traceless part vanishes
            if np.allclose(obs.eigenvalues, 1.0, atol=1e-12):
                return 0.0
            return 3.0 * float(frob_sq)
        if isinstance(obs, (SingleQubitZ, ZParity, PauliString)):
            raise UnsupportedPair("use the pauli primitive for Z-type observables")
        raise UnsupportedPair(f"povm bound undefined for {type(obs).__name__}")
    raise UnsupportedPair(f"unknown primitive {primitive!r}")


# ---------------------------------------------------------------------------
# concentration statements (bounds only; proofs out of scope)
# ---------------------------------------------------------------------------

def povm_tail_bound(tau: float, B: float) -> float:
    """Upper bound on Pr[|o_hat - E| >= tau] for single-snapshot POVM estimates."""
    return 2.0 * math.exp(-(tau**2) / (16.0 * B + 4.0 * math.sqrt(B) * tau))


def povm_moment_bound(k: int, B: float) -> float:
    """Upper bound on E[|X|^k] for the centered single-snapshot estimate."""
    return math.factorial(k) * (4.0 * B) ** (k / 2.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_pauli_text(ds: ShadowDataset, path) -> None:
    """One line per snapshot over the alphabet {0,1,+,-,r,l}."""
    if ds.primitive != "pauli":
        raise UnsupportedPair("text encoding is for pauli snapshots")
    with open(path, "w") as fh:
        for snap in ds:
            fh.write(snap.encode() + "\n")


def load_pauli_text(path) -> ShadowDataset:
    with open(path) as fh:
        snaps = [PauliSnapshot.decode(line) for line in fh if line.strip()]
    if not snaps:
        raise EmptyDataset(f"no snapshots in {path}")
    if len({s.n_qubits for s in snaps}) > 1:
        raise MalformedSnapshots(f"{path}: snapshot lines differ in length")
    return ShadowDataset.from_pauli(snaps)


def save_povm_binary(ds: ShadowDataset, path) -> None:
    """Little-endian block: magic 'POVM', uint32 d, uint64 count, then complex pairs."""
    if ds.primitive != "povm":
        raise UnsupportedPair("binary encoding is for povm snapshots")
    count, d = ds.vectors.shape
    header = POVM_MAGIC + struct.pack("<IQ", d, count)
    body = np.ascontiguousarray(ds.vectors.astype("<c16")).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def load_povm_binary(path) -> ShadowDataset:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != POVM_MAGIC:
            raise MalformedSnapshots(f"{path}: bad POVM block header")
        d, count = struct.unpack("<IQ", header[4:])
        body = fh.read()
    if len(body) != 16 * d * count:
        raise MalformedSnapshots(
            f"{path}: body holds {len(body)} bytes, header promises {count} x {d} complex128")
    vectors = np.frombuffer(body, dtype="<c16").reshape(count, d)
    norms = np.linalg.norm(vectors, axis=1)
    if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_ATOL):
        raise MalformedSnapshots(f"{path}: snapshot vectors must have unit norm")
    return ShadowDataset("povm", vectors=vectors.copy())

