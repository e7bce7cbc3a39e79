"""Adaptive selection attack against a fixed pool of Pauli snapshots.

The target state is ``MajorityState``: M fair base coins plus one derived
OR coordinate for every subset of them (power-set indexed by bitmask).  The
adversary first asks for every base Z-expectation from one shared snapshot
pool, selects the coordinates whose empirical estimate crosses a 3-sigma
threshold, then asks for the OR coordinate of the selected subset.  The
estimates' shared randomness makes the selected OR look far from its declared
truth even though every individual answer is honest.

Two equivalent execution paths:

* ``bruteforce`` materializes all N x M outcomes and evaluates the OR column
  directly from the same bits (small M*N only).
* ``sufficient`` simulates the per-coordinate sufficient statistics
  (informative-round count, ones among them, coin ones) and reconstructs the
  selected columns exactly in law, so the full grid runs in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import DiagonalState, spawn_rngs
from .errors import DimensionMismatch

# OR columns over this many near-fair coordinates are 1 every round except
# with probability < N * 2**-64; treat them as constant.
OR_SATURATION = 64

BRUTEFORCE_CELL_CAP = 8_000_000  # max N*M for the materialized path

GRID_FIELDS = ["M", "N", "runs", "mode", "error_mean", "error_std", "seed"]


def or_rule_expectation(subset_size: int) -> float:
    """Exact Z-expectation of the OR of k independent fair bits: 2^(1-k) - 1."""
    if subset_size < 0:
        raise ValueError("subset size must be >= 0")
    return 2.0 ** (1 - subset_size) - 1.0 if subset_size else 1.0


def subset_to_index(M: int, indices: Sequence[int]) -> int:
    """Logical coordinate of the OR over the given base coordinates."""
    mask = 0
    for i in indices:
        if not 0 <= i < M:
            raise DimensionMismatch(f"base coordinate {i} outside [0, {M})")
        mask |= 1 << i
    return M + mask


def index_to_subset(M: int, index: int) -> tuple[int, ...]:
    """Base coordinates feeding a derived OR coordinate."""
    mask = index - M
    if mask < 0 or mask >= (1 << M):
        raise DimensionMismatch(f"index {index} is not a derived coordinate")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class MajorityState(DiagonalState):
    """M fair coins plus an OR coordinate for every subset (index M + bitmask).

    The empty-subset coordinate (index M) is the constant bit 0, so its
    Z-expectation is +1.
    """

    def __init__(self, M: int):
        super().__init__(M)

    @property
    def n_qubits(self):
        return self.n_base + (1 << self.n_base)

    def coordinate_bit(self, index: int, base: np.ndarray) -> int:
        if index < self.n_base:
            return super().coordinate_bit(index, base)
        for i in index_to_subset(self.n_base, index):
            if base[i]:
                return 1
        return 0

    def base_support(self, index: int) -> tuple[int, ...]:
        if index < self.n_base:
            return (index,)
        return index_to_subset(self.n_base, index)

    def bit_one_probability(self, index: int) -> float:
        if index < self.n_base:
            return super().bit_one_probability(index)
        k = len(index_to_subset(self.n_base, index))
        return 1.0 - 0.5**k

    def parity_expectation(self, indices: Sequence[int]) -> float:
        indices = tuple(indices)
        if len(indices) == 1 and indices[0] >= self.n_base:
            return or_rule_expectation(len(index_to_subset(self.n_base, indices[0])))
        return super().parity_expectation(indices)


def selection_threshold(N: int) -> float:
    """One-sided 3-sigma cut for the +/-3 estimator: 9 / sqrt(N)."""
    return 9.0 / math.sqrt(N)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class AttackResult:
    M: int
    N: int
    selected: tuple[int, ...]
    answer: float
    truth: float
    error: float
    threshold: float
    method: str
    a_values: Optional[np.ndarray] = field(default=None, repr=False)


@dataclass
class BaselineResult:
    M: int
    N: int
    max_error: float
    worst_query: str
    base_errors_max: float
    or_error: float


# ---------------------------------------------------------------------------
# shared estimator pieces
# ---------------------------------------------------------------------------

def _final_answer(or_rounds: np.ndarray, N: int, rng: np.random.Generator) -> float:
    """Measure the OR coordinate: basis Z shows the bit, X/Y shows a coin."""
    basis = rng.integers(0, 3, size=N)
    coin = rng.integers(0, 2, size=N)
    out = np.where(basis == 2, or_rounds.astype(np.int64), coin)
    return 3.0 * (N - 2.0 * float(out.sum())) / N


def _saturated_answer(N: int, rng: np.random.Generator) -> float:
    """Final answer when the OR column is 1 in every round."""
    n_inf = int(rng.binomial(N, 1.0 / 3.0))
    coin_ones = int(rng.binomial(N - n_inf, 0.5))
    return 3.0 * (N - 2.0 * (n_inf + coin_ones)) / N


def _reconstruct_or_rounds(n_inf: np.ndarray, z_inf: np.ndarray, N: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Per-round OR over columns with the given sufficient statistics.

    Each column's informative rounds form a uniform subset of size n_inf[k]
    with z_inf[k] ones placed uniformly inside it; the unobserved rounds get
    fresh fair bits.  This matches the conditional law of the raw bits given
    everything the estimates revealed.
    """
    ors = np.zeros(N, dtype=bool)
    for n_i, z_i in zip(n_inf, z_inf):
        if ors.all():
            break
        perm = rng.permutation(N)
        col = np.empty(N, dtype=bool)
        col[perm[:z_i]] = True
        col[perm[z_i:n_i]] = False
        rest = perm[n_i:]
        col[rest] = rng.integers(0, 2, size=rest.size).astype(bool)
        ors |= col
    return ors


# ---------------------------------------------------------------------------
# attack runs
# ---------------------------------------------------------------------------

def run_adaptive_attack(N: int, M: int, rng: np.random.Generator,
                        method: str = "auto") -> AttackResult:
    """Select coordinates by threshold, then query the OR of the selection.

    The declared truth for a non-empty selection is 0 (each answer alone is
    an unbiased estimate of a fair-coin parity); for an empty selection the
    empty-OR coordinate with true expectation +1 is queried instead.
    """
    if method == "auto":
        method = "bruteforce" if N * M <= BRUTEFORCE_CELL_CAP else "sufficient"
    thr = selection_threshold(N)

    if method == "bruteforce":
        if N * M > BRUTEFORCE_CELL_CAP:
            raise MemoryError(f"bruteforce path capped at N*M <= {BRUTEFORCE_CELL_CAP}")
        bits = rng.integers(0, 2, size=(N, M), dtype=np.uint8)
        bases = rng.integers(0, 3, size=(N, M), dtype=np.uint8)
        coins = rng.integers(0, 2, size=(N, M), dtype=np.uint8)
        out = np.where(bases == 2, bits, coins)
        a = 3.0 * (N - 2.0 * out.sum(axis=0, dtype=np.int64)) / N
        sel = np.flatnonzero(a >= thr)
        if sel.size == 0:
            or_rounds = np.zeros(N, dtype=bool)
            truth = or_rule_expectation(0)
        else:
            or_rounds = bits[:, sel].any(axis=1)
            truth = 0.0
        answer = _final_answer(or_rounds, N, rng)
    elif method == "sufficient":
        n_inf = rng.binomial(N, 1.0 / 3.0, size=M)
        z_inf = rng.binomial(n_inf, 0.5)
        z_coin = rng.binomial(N - n_inf, 0.5)
        a = 3.0 * (N - 2.0 * (z_inf + z_coin)) / N
        sel = np.flatnonzero(a >= thr)
        if sel.size == 0:
            # empty OR column: informative rounds show the constant bit 0
            n_d = int(rng.binomial(N, 1.0 / 3.0))
            coin_ones = int(rng.binomial(N - n_d, 0.5))
            answer = 3.0 * (N - 2.0 * coin_ones) / N
            truth = or_rule_expectation(0)
        elif sel.size >= OR_SATURATION:
            answer = _saturated_answer(N, rng)
            truth = 0.0
        else:
            or_rounds = _reconstruct_or_rounds(n_inf[sel], z_inf[sel], N, rng)
            answer = _final_answer(or_rounds, N, rng)
            truth = 0.0
    else:
        raise ValueError(f"unknown method {method!r}")

    return AttackResult(
        M=M, N=N, selected=tuple(int(i) for i in sel), answer=float(answer),
        truth=float(truth), error=abs(float(answer) - float(truth)),
        threshold=thr, method=method, a_values=a,
    )


def run_nonadaptive_baseline(N: int, M: int, rng: np.random.Generator) -> BaselineResult:
    """All M base queries plus one fixed OR query, chosen before any data.

    The OR query covers the first ceil(3M/4) coordinates; its truth is the
    exact OR-rule value.  Reported error is the max over all M+1 queries.
    """
    n_inf = rng.binomial(N, 1.0 / 3.0, size=M)
    z_inf = rng.binomial(n_inf, 0.5)
    z_coin = rng.binomial(N - n_inf, 0.5)
    a = 3.0 * (N - 2.0 * (z_inf + z_coin)) / N
    base_max = float(np.abs(a).max())

    J = math.ceil(3 * M / 4)
    truth_or = or_rule_expectation(J)
    if J >= OR_SATURATION:
        answer_or = _saturated_answer(N, rng)
    else:
        or_rounds = _reconstruct_or_rounds(n_inf[:J], z_inf[:J], N, rng)
        answer_or = _final_answer(or_rounds, N, rng)
    or_error = abs(answer_or - truth_or)

    if base_max >= or_error:
        worst = f"Z_{int(np.abs(a).argmax())}"
    else:
        worst = f"OR_first_{J}"
    return BaselineResult(M=M, N=N, max_error=max(base_max, or_error),
                          worst_query=worst, base_errors_max=base_max,
                          or_error=float(or_error))


# ---------------------------------------------------------------------------
# experiment grid
# ---------------------------------------------------------------------------

def attack_experiment(N: int, M_list: Sequence[int], runs: int,
                      seed: int) -> list[dict]:
    """Adaptive vs non-adaptive error over a grid of query budgets M.

    One row per (M, mode) with the mean and sample std of the run errors,
    keyed by ``GRID_FIELDS``.
    """
    rows = []
    rngs = spawn_rngs(seed, 2 * len(M_list))
    for j, M in enumerate(M_list):
        rng_a, rng_n = rngs[2 * j], rngs[2 * j + 1]
        errs_a = np.array([run_adaptive_attack(N, M, rng_a).error
                           for _ in range(runs)])
        errs_n = np.array([run_nonadaptive_baseline(N, M, rng_n).max_error
                           for _ in range(runs)])
        for mode, errs in (("adaptive", errs_a), ("nonadaptive", errs_n)):
            rows.append({
                "M": M, "N": N, "runs": runs, "mode": mode,
                "error_mean": float(errs.mean()),
                "error_std": float(errs.std(ddof=1)) if runs > 1 else 0.0,
                "seed": seed,
            })
    return rows

