"""Student-teacher learner over a growing subspace.

The student keeps an orthonormal basis of every direction it has been
corrected on, predicts each new observable from a low-dimensional tomograph
of the state compressed to that subspace, and lets a teacher verify.  On a
mistake the queried directions join the subspace, the teacher's correction
becomes the answer, and the tomograph restarts at the new (padded)
dimension.  Three variants share the loop:

* run_single_rank       rank-one projector queries
* run_bounded_frobenius tr(O^2) <= B queries, spectrum truncated at |w| > eps/2
* run_low_rank          rank <= R queries, no truncation

Mistake counts obey 256 R^2 / (9 eps^2)-style caps whenever the tomograph
honours its accuracy contract; the runner raises MistakeBudgetExceeded past
the cap, which is a contract-breach signal rather than control flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import (
    DenseState,
    HermitianDense,
    MechanismConfig,
    RankOneProjector,
    Round,
    Transcript,
    expectation,
)
from .errors import (
    DimensionMismatch,
    MistakeBudgetExceeded,
    NegativeResidualTrace,
    UnsupportedPair,
)
from .mechanisms import PmwSession, query_value_table
from .shadows import collect_pauli_snapshots

GS_CUTOFF = 1e-8
TEACHER_TRIGGER = 0.75  # ExactTeacher's Mistake level, in units of epsilon
LEDGER_FIELDS = ["round", "mistake_flag", "k_after", "gap_witness",
                 "answer", "truth", "error"]


def single_rank_mistake_cap(epsilon: float) -> int:
    """Mistake counts are integers, so the 256/(9 eps^2) bound floors."""
    return int(256.0 / (9.0 * epsilon * epsilon))


def low_rank_mistake_cap(epsilon: float, R: int) -> int:
    return int(256.0 * R * R / (9.0 * epsilon * epsilon))


def frobenius_mistake_cap(epsilon: float, B: float) -> int:
    # per-eigenstate gap 3 eps^2/32B forces perpendicular mass of at least
    # (gap/2)^2, and those masses sum to at most tr(rho) = 1
    return int(4096.0 * B * B / (9.0 * epsilon**4))


class Subspace:
    """Gram-Schmidt history of corrected directions."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        self.d = d
        self.basis: list[np.ndarray] = []   # orthonormal, insertion order

    @property
    def k(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> np.ndarray:
        """Rows are the basis vectors; shape (k, d)."""
        if not self.basis:
            return np.zeros((0, self.d), dtype=complex)
        return np.array(self.basis)

    def project(self, psi: np.ndarray):
        """Coordinates of psi in the basis, plus the orthogonal remainder norm."""
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.d,):
            raise DimensionMismatch(f"vector shape {psi.shape} != ({self.d},)")
        Phi = self.basis_matrix()
        coords = Phi.conj() @ psi
        resid = psi - Phi.T @ coords
        return coords, float(np.linalg.norm(resid))

    def extend(self, states: Iterable[np.ndarray]) -> "Subspace":
        """Append every independent direction, in input order."""
        for v in states:
            v = np.asarray(v, dtype=complex)
            if v.shape != (self.d,):
                raise DimensionMismatch(f"vector shape {v.shape} != ({self.d},)")
            resid = v.copy()
            for phi in self.basis:   # classical GS, re-orthogonalized once
                resid -= (phi.conj() @ resid) * phi
            for phi in self.basis:
                resid -= (phi.conj() @ resid) * phi
            nrm = np.linalg.norm(resid)
            if nrm > GS_CUTOFF:
                self.basis.append(resid / nrm)
        return self


@dataclass
class PaddedState:
    """The state compressed to the subspace, padded to a qubit register.

    The top-left k x k block is <phi_i| rho |phi_j>; one extra diagonal slot
    absorbs the leftover trace, so the padded matrix is again a state and
    agrees with rho on every vector inside the span.
    """

    matrix: np.ndarray
    residual: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return int(round(math.log2(self.dim)))


def pad_state(sub: Subspace, state: DenseState) -> PaddedState:
    if sub.k < 1:
        raise ValueError("pad_state needs a nonempty subspace")
    Phi = sub.basis_matrix()
    block = Phi.conj() @ state.matrix @ Phi.T
    block = (block + block.conj().T) / 2.0
    tr = float(np.real(np.trace(block)))
    residual = 1.0 - tr
    if residual < -1e-9:
        raise NegativeResidualTrace(f"compressed trace {tr} exceeds 1")
    residual = max(residual, 0.0)
    dim = 1 << max(1, math.ceil(math.log2(sub.k + 1)))
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:sub.k, :sub.k] = block
    mat[sub.k, sub.k] = residual
    return PaddedState(matrix=mat, residual=residual)


def padded_query_matrix(pairs: Sequence, k: int, dim: int) -> np.ndarray:
    """P_S O_hat P_S in padded coordinates: sum of w * coords coords^dag."""
    A = np.zeros((dim, dim), dtype=complex)
    for w, coords in pairs:
        if len(coords):
            A[:k, :k] += w * np.outer(coords, coords.conj())
    return A


# ---------------------------------------------------------------------------
# tomographs and teachers
# ---------------------------------------------------------------------------

class ExactTomograph:
    """Zero-error oracle for the padded state; the idealized harness student."""

    def __init__(self, padded: PaddedState):
        self.padded = padded

    def query(self, A: np.ndarray) -> float:
        return float(np.real(np.trace(A @ self.padded.matrix)))


def exact_tomograph_factory(padded: PaddedState,
                            rng: np.random.Generator) -> ExactTomograph:
    return ExactTomograph(padded)


class PmwTomograph:
    """Multiplicative-weights session over Pauli shadows of the padded state."""

    def __init__(self, padded: PaddedState, cfg: MechanismConfig,
                 rng: np.random.Generator):
        self.padded = padded
        self.n = padded.n_qubits
        ds = collect_pauli_snapshots(DenseState(padded.matrix), cfg.N, rng)
        self.session = PmwSession.from_shadows(ds, cfg, rng=rng)

    def query(self, A: np.ndarray) -> float:
        if not np.any(A):
            return 0.0
        return self.session.query(query_value_table(HermitianDense(A), self.n))


def make_pmw_tomograph_factory(cfg: MechanismConfig) -> Callable:
    def factory(padded: PaddedState, rng: np.random.Generator) -> PmwTomograph:
        return PmwTomograph(padded, cfg, rng)
    return factory


class ExactTeacher:
    """Deterministic verifier against the true state, for harness runs.

    Declares Mistake exactly when |truth - guess| > TEACHER_TRIGGER * epsilon,
    the tightest behavior an admissible teacher may show, and corrects with
    the exact truth.
    """

    def __init__(self, state: DenseState, epsilon: float):
        self.state = state
        self.epsilon = epsilon
        self.mistakes = 0

    def check(self, obs, guess: float):
        truth = expectation(self.state, obs)
        if abs(truth - guess) > TEACHER_TRIGGER * self.epsilon:
            self.mistakes += 1
            return "Mistake", truth
        return "Pass", None


# ---------------------------------------------------------------------------
# learner loop
# ---------------------------------------------------------------------------

@dataclass
class MistakeLedger:
    cap: int
    rows: list = field(default_factory=list)
    mistake_count: int = 0
    witnesses: list = field(default_factory=list)

    def record(self, round_idx: int, mistake: bool, k_after: int,
               witness: Optional[float], answer: float, truth: float) -> None:
        if mistake:
            self.mistake_count += 1
            self.witnesses.append(witness)
        self.rows.append({
            "round": round_idx, "mistake_flag": int(mistake), "k_after": k_after,
            "gap_witness": "" if witness is None else witness,
            "answer": answer, "truth": truth, "error": abs(answer - truth),
        })


@dataclass
class LearnerRun:
    transcript: Transcript
    ledger: MistakeLedger
    subspace: Subspace


def _eigenpairs(obs, d: int):
    """(weight, eigenvector) pairs of a query observable."""
    if isinstance(obs, RankOneProjector):
        return [(1.0, np.asarray(obs.vector, dtype=complex))]
    if isinstance(obs, HermitianDense):
        V = obs.eigenvectors
        return [(float(w), V[:, i]) for i, w in enumerate(obs.eigenvalues)]
    raise UnsupportedPair(f"learner cannot decompose {type(obs).__name__}")


def _observable_from_pairs(pairs, d: int):
    mat = np.zeros((d, d), dtype=complex)
    for w, v in pairs:
        mat += w * np.outer(v, v.conj())
    return HermitianDense(mat)


def _run_learner(state: DenseState, queries, cfg: MechanismConfig, teacher,
                 tomograph_factory: Callable,
                 rng: Optional[np.random.Generator], mode: str,
                 R: Optional[int] = None) -> LearnerRun:
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    d = state.d
    eps = cfg.epsilon
    if mode == "single":
        cap = single_rank_mistake_cap(eps)
    elif mode == "frobenius":
        cap = frobenius_mistake_cap(eps, cfg.B)
    elif mode == "lowrank":
        cap = low_rank_mistake_cap(eps, R)
    else:
        raise ValueError(f"unknown learner mode {mode!r}")

    sub = Subspace(d)
    tomo = None
    ledger = MistakeLedger(cap=cap)
    rounds = []

    for idx, obs in enumerate(queries):
        if mode == "single" and not isinstance(obs, RankOneProjector):
            raise UnsupportedPair("single-rank learner takes projector queries")
        pairs = _eigenpairs(obs, d)
        if mode == "frobenius":
            retained = [(w, v) for w, v in pairs if abs(w) > eps / 2.0]
            if len(retained) > math.ceil(4.0 * cfg.B / eps**2):
                raise ValueError("truncation kept more than 4B/eps^2 eigenstates")
        elif mode == "lowrank":
            retained = [(w, v) for w, v in pairs if abs(w) > 1e-12]
            if len(retained) > R:
                raise ValueError(f"query rank {len(retained)} exceeds R={R}")
        else:
            retained = pairs
        # the observable the teacher grades: truncation error is budgeted
        # separately in the frobenius analysis
        graded = obs if mode != "frobenius" else _observable_from_pairs(retained, d)

        projections = [(w, *sub.project(v)) for w, v in retained]
        if sub.k and tomo is not None:
            A = padded_query_matrix([(w, c) for w, c, _ in projections],
                                    sub.k, tomo.padded.dim)
            if mode == "lowrank":
                block_rank = np.linalg.matrix_rank(A[:sub.k, :sub.k], tol=1e-9)
                if block_rank > R:
                    raise ValueError("projection increased rank")
            guess = tomo.query(A)
        else:
            guess = 0.0

        verdict, correction = teacher.check(graded, guess)
        mistake = verdict == "Mistake"
        if mistake:
            if mode == "single":
                _, coords, perp = projections[0]
                witness = 0.0
                if perp > GS_CUTOFF:
                    v = retained[0][1]
                    r = v - sub.basis_matrix().T @ coords
                    u = r / np.linalg.norm(r)
                    witness = float(np.real(u.conj() @ state.matrix @ u))
            else:
                gaps = []
                for (_, v), (_, coords, _) in zip(retained, projections):
                    psi_s = sub.basis_matrix().T @ coords
                    full = float(np.real(v.conj() @ state.matrix @ v))
                    inside = float(np.real(psi_s.conj() @ state.matrix @ psi_s))
                    gaps.append(abs(full - inside))
                witness = max(gaps) if gaps else 0.0
            sub.extend([v for _, v in retained])
            tomo = tomograph_factory(pad_state(sub, state), rng)
            answer = correction if correction is not None else guess
        else:
            witness = None
            answer = guess

        truth = expectation(state, obs)
        ledger.record(idx, mistake, sub.k, witness, answer, truth)
        rounds.append(Round(query=obs, answer=answer, truth=truth))
        if ledger.mistake_count > cap:
            raise MistakeBudgetExceeded(
                f"{ledger.mistake_count} mistakes exceed the {cap} cap")

    return LearnerRun(transcript=Transcript(rounds=rounds), ledger=ledger,
                      subspace=sub)


def run_single_rank(state: DenseState, queries, cfg: MechanismConfig, teacher,
                    tomograph_factory: Callable = exact_tomograph_factory,
                    rng: Optional[np.random.Generator] = None) -> LearnerRun:
    return _run_learner(state, queries, cfg, teacher, tomograph_factory, rng,
                        mode="single")


def run_bounded_frobenius(state: DenseState, queries, cfg: MechanismConfig,
                          teacher,
                          tomograph_factory: Callable = exact_tomograph_factory,
                          rng: Optional[np.random.Generator] = None) -> LearnerRun:
    return _run_learner(state, queries, cfg, teacher, tomograph_factory, rng,
                        mode="frobenius")


def run_low_rank(state: DenseState, queries, cfg: MechanismConfig, teacher,
                 R: int,
                 tomograph_factory: Callable = exact_tomograph_factory,
                 rng: Optional[np.random.Generator] = None) -> LearnerRun:
    return _run_learner(state, queries, cfg, teacher, tomograph_factory, rng,
                        mode="lowrank", R=R)
