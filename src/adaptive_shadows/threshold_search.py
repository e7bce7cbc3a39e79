"""Sparse-vector threshold search over POVM shadows, and the closeness teacher.

The sparse-vector session answers adaptively chosen (query, threshold) pairs
with "No" (above threshold) or "Yes", spending budget only on "No"s:

* q(D) > theta        -> "No"   (clause 1)
* q(D) <= theta - eps -> "Yes"  (clause 2, eps = contract gap)

Laplace noise sits on the comparison and on the threshold (redrawn after
every "No", the standard restart); scales are set so both clauses hold
with probability 1 - delta over a whole run.  The shadow wrapper truncates
per-snapshot values at the level T before averaging, which keeps heavy
snapshot tails from poisoning the mean while moving the estimate by less
than a third of the gap.

The closeness teacher turns threshold answers into Pass/Mistake verdicts for
(observable, guessed value) pairs via two simulated queries per round, and
supplies a DP-median correction on every Mistake.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import HermitianDense, MechanismConfig, RankOneProjector
from .errors import (
    DimensionMismatch,
    Halted,
    NonpositiveT,
    PrimitiveMismatch,
    UnsupportedPair,
)
from .mechanisms import DpMedianSession
from .shadows import ShadowDataset, snapshot_values

SESSION_LOG_FIELDS = ["query_id", "theta", "answer", "correction", "no_count"]


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def truncation_level(B: float, epsilon: float) -> float:
    """T = 1 + 40 sqrt(B) ln(48/eps) (ln B + 4), with B clamped to >= 1.

    Natural logs; the formula presumes B >= 1, so smaller inputs are clamped.
    """
    B = max(float(B), 1.0)
    T = 1.0 + 40.0 * math.sqrt(B) * math.log(48.0 / epsilon) * (math.log(B) + 4.0)
    if T <= 0.0:
        raise NonpositiveT(f"T={T} for B={B}, epsilon={epsilon}")
    return T


# ---------------------------------------------------------------------------
# sparse vector
# ---------------------------------------------------------------------------

class SparseVectorSession:
    """Above-threshold answers with an ell-budget of "No"s.

    Queries arrive as precomputed scalars q(D) or as per-record value vectors
    whose mean is q(D).  Halts once the "No" count exceeds ell: the final
    "No" is still emitted, every later call raises Halted.
    """

    def __init__(self, epsilon: float, delta: float, ell: int, M: int,
                 rng: np.random.Generator):
        if epsilon <= 0 or not 0 < delta < 1 or ell < 0 or M < 1:
            raise ValueError("bad sparse-vector parameters")
        self.gap = float(epsilon)
        self.ell = int(ell)
        self.rng = rng
        # both clauses need |comparison noise| + |threshold noise| < gap/2;
        # each scale gives P(single draw >= gap/4) = delta / (2(M + ell + 1))
        self.noise_scale = self.gap / (4.0 * math.log(2.0 * (M + ell + 1) / delta))
        self.no_count = 0
        self.halted = False
        self._threshold_noise = rng.laplace(0.0, self.noise_scale)

    def ask(self, q, theta: float) -> str:
        if self.halted:
            raise Halted(f"sparse vector spent its {self.ell} budget")
        noisy = float(np.mean(q)) + self.rng.laplace(0.0, self.noise_scale)
        centred = theta - self.gap / 2.0 + self._threshold_noise
        if noisy > centred:
            self.no_count += 1
            self._threshold_noise = self.rng.laplace(0.0, self.noise_scale)
            if self.no_count > self.ell:
                self.halted = True
            return "No"
        return "Yes"


# ---------------------------------------------------------------------------
# threshold search over shadows
# ---------------------------------------------------------------------------

class ShadowThresholdSession:
    """Thm-style threshold search: truncate snapshot values, then sparse vector.

    Contract at gap cfg.epsilon: tr(O rho) > theta -> "No";
    tr(O rho) <= theta - epsilon -> "Yes".  Internally the truncated means
    are compared against theta - epsilon/3 with a sparse-vector gap of
    epsilon/3, leaving another epsilon/3 for sampling and truncation bias.
    """

    def __init__(self, ds: ShadowDataset, cfg: MechanismConfig,
                 rng: Optional[np.random.Generator] = None):
        if ds.primitive != "povm":
            raise PrimitiveMismatch("threshold search runs on POVM shadows")
        self.ds = ds
        self.cfg = cfg
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.T = truncation_level(cfg.B, cfg.epsilon)
        self.svt = SparseVectorSession(
            epsilon=cfg.epsilon / 3.0, delta=cfg.delta,
            ell=cfg.ell, M=cfg.M, rng=self.rng)
        self.log: list[dict] = []
        self._asked = 0

    @property
    def no_count(self) -> int:
        return self.svt.no_count

    @property
    def halted(self) -> bool:
        return self.svt.halted

    def ask(self, obs, theta: float,
            values: Optional[np.ndarray] = None) -> str:
        """Optionally takes per-snapshot values already computed for obs."""
        if values is None:
            values = snapshot_values(self.ds, obs)
        elif len(values) != len(self.ds):
            raise DimensionMismatch(
                f"{len(values)} values for {len(self.ds)} snapshots")
        vals = np.clip(values, -self.T, self.T)
        answer = self.svt.ask(float(vals.mean()), theta - self.cfg.epsilon / 3.0)
        self._asked += 1
        self.log.append({
            "query_id": self._asked - 1, "theta": theta, "answer": answer,
            "correction": "", "no_count": self.svt.no_count,
        })
        return answer


# ---------------------------------------------------------------------------
# closeness teacher
# ---------------------------------------------------------------------------

def _require_effect(obs) -> None:
    """Teacher queries must be effects (eigenvalues in [0, 1]), so I - O is one too."""
    if isinstance(obs, HermitianDense):
        if obs.eigenvalues.min() < -1e-9 or obs.eigenvalues.max() > 1.0 + 1e-9:
            raise UnsupportedPair("teacher queries must be effects (0 <= O <= I)")
    elif not isinstance(obs, RankOneProjector):
        raise UnsupportedPair(f"no complement rule for {type(obs).__name__}")


class ClosenessTeacher:
    """Pass/Mistake verdicts for (observable, guess) rounds.

    Each round asks the inner threshold search two simulated queries at gap
    epsilon/4: (O, guess + eps) and (I - O, 1 - guess + eps).  Both "Yes"
    means every deviation is under eps: Pass.  Any "No" is a Mistake, and a
    DP-median session over an independent dataset supplies the correction.
    Budget: cfg.ell mistakes, then Halted.
    """

    def __init__(self, ds: ShadowDataset, cfg: MechanismConfig,
                 rng: Optional[np.random.Generator] = None,
                 correction_session: Optional[DpMedianSession] = None):
        self.cfg = cfg
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        inner_cfg = MechanismConfig(
            N=cfg.N, M=2 * cfg.M, epsilon=cfg.epsilon / 4.0, delta=cfg.delta / 2.0,
            B=cfg.B, ell=2 * cfg.ell + 1, K=cfg.K, seed=cfg.seed)
        self.search = ShadowThresholdSession(ds, inner_cfg, rng=self.rng)
        self.correction_session = correction_session
        self.mistakes = 0
        self.log: list[dict] = []
        self._round = 0

    def check(self, obs, guess: float):
        """Returns ("Pass", None) or ("Mistake", correction)."""
        if self.mistakes >= self.cfg.ell:
            raise Halted(f"teacher mistake budget ell={self.cfg.ell} spent")
        eps = self.cfg.epsilon
        _require_effect(obs)
        # tr((I-O)|v><v|) identity: the complement's snapshot values are
        # 1 - the original's, so one pass over the dataset covers both
        # sides, and ask needs no observable for I - O once given values
        vals = snapshot_values(self.search.ds, obs)
        over = self.search.ask(obs, guess + eps, values=vals)
        under = self.search.ask(None, 1.0 - guess + eps, values=1.0 - vals)
        self._round += 1
        if over == "Yes" and under == "Yes":
            self.log.append({
                "query_id": self._round - 1, "theta": guess, "answer": "Pass",
                "correction": "", "no_count": self.search.no_count,
            })
            return "Pass", None
        self.mistakes += 1
        mu = None
        if self.correction_session is not None:
            shared = self.correction_session.ds is self.search.ds
            mu = self.correction_session.query(
                obs, values=vals if shared else None)
        self.log.append({
            "query_id": self._round - 1, "theta": guess, "answer": "Mistake",
            "correction": "" if mu is None else mu,
            "no_count": self.search.no_count,
        })
        return "Mistake", mu
