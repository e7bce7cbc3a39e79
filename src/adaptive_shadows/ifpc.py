"""Interactive fingerprinting-code games and the two tracing attacks.

Three games live here:

* the bare collusion game: a code emits one challenge column per round, an
  adversary that sees only the bits of still-unaccused colluders answers a
  single bit, and the code accuses users it believes are leaking;
* the local-coordinate attack, where the challenge column is hidden inside a
  diagonal state whose groups are shuffled per round and the analyst reads a
  single Z coordinate;
* the parity attack, where a fresh one-time pad per round replaces the
  shuffling and the analyst reads a Z parity over a doubled encoding.

States are never materialized at full width (the local variant would need
M * 2^d coordinates). Per-round coordinate assignments and pads are produced
lazily from seeded generators, with an explicit collision check standing in
for the permutation property at the handful of points actually evaluated.
Each state reads all sampled users at once through ``z_values(users,
query)``, so a mechanism answer is one array read, and the tracing code
folds its per-user scores lazily (see ``ScoreTracingCode``).

Conventions, documented here because the rounding step is ours to pick: a
mechanism's real-valued answer a is rounded to ``1 if a >= 0 else 0`` under
the Z-eigenvalue mapping bit 0 <-> +1. A rounded answer of 1 therefore
asserts "the positive eigenspace dominates", i.e. claims data bit 0, so the
tracing code built by the attack runners is constructed with
``invert_answers=True`` to score against the claimed bit. The bare game uses
plain bits end to end and no inversion.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .core import Transcript
from .errors import InvalidPair, LengthMismatch

FORCED_ERROR_LEVEL = 0.99
UNANIMOUS_RATE = 0.12    # share of constant challenge columns
MIN_SCORED = 25          # scored rounds before the first accusation
FOLD_ROWS = 64           # buffered scored rounds per fold; < 256 sums in uint8

GAME_LOG_FIELDS = [
    "round", "challenge_hash", "answer", "rounded",
    "accused_count", "theta", "psi",
]


# ---------------------------------------------------------------------------
# one-time pad with doubled encoding
# ---------------------------------------------------------------------------

def _as_bits(x, name: str) -> np.ndarray:
    if isinstance(x, str):
        if any(ch not in "01" for ch in x):
            raise ValueError(f"{name} must be a bitstring, got {x!r}")
        return np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")
    arr = np.asarray(x, dtype=np.uint8).reshape(-1)
    if arr.size and arr.max() > 1:
        raise ValueError(f"{name} entries must be 0/1")
    return arr


def _bits_out(bits: np.ndarray, like) -> Union[str, np.ndarray]:
    if isinstance(like, str):
        return "".join("01"[b] for b in bits)
    return bits


def otp_encrypt(sk, m) -> Union[str, np.ndarray]:
    """Doubled one-time pad: XOR with the key, then map bit 1 -> 10, 0 -> 01.

    Accepts bitstrings or 0/1 arrays; the ciphertext has twice the length and
    comes back in the same form as the message.
    """
    key = _as_bits(sk, "sk")
    msg = _as_bits(m, "m")
    if key.size != msg.size:
        raise LengthMismatch(f"|sk|={key.size} but |m|={msg.size}")
    x = key ^ msg
    out = np.empty(2 * x.size, dtype=np.uint8)
    out[0::2] = x
    out[1::2] = 1 - x
    return _bits_out(out, m)


def otp_decrypt(sk, c) -> Union[str, np.ndarray]:
    """Inverse of :func:`otp_encrypt`; rejects pairs other than 10/01."""
    key = _as_bits(sk, "sk")
    cip = _as_bits(c, "c")
    if cip.size != 2 * key.size:
        raise LengthMismatch(f"|c|={cip.size} but 2|sk|={2 * key.size}")
    first, second = cip[0::2], cip[1::2]
    if np.any(first == second):
        raise InvalidPair("ciphertext pair must be 10 or 01")
    out = first ^ key
    return _bits_out(out, c)


def parity_decrypt_identity(sk_bit: int, pair) -> int:
    """Single-bit decryption via the inner product Enc(sk, 1) . c mod 2.

    This is the identity the parity attack leans on: a user's stored pair is
    the encoding of its key bit applied to plaintext 1, so dotting it with a
    ciphertext pair recovers the plaintext without ever XORing explicitly.
    """
    if sk_bit not in (0, 1):
        raise ValueError(f"sk_bit must be 0/1, got {sk_bit}")
    p = tuple(int(b) for b in _as_bits(pair, "pair"))
    if p not in ((1, 0), (0, 1)):
        raise InvalidPair(f"pair must be 10 or 01, got {p}")
    enc_one = (1, 0) if sk_bit == 0 else (0, 1)
    return (enc_one[0] * p[0] + enc_one[1] * p[1]) % 2


# ---------------------------------------------------------------------------
# fingerprinting codes
# ---------------------------------------------------------------------------

class ScoreTracingCode:
    """Correlation-score tracing with per-round thresholds.

    Per round: emit a challenge column, consume a rounded answer, accuse a
    (possibly empty) set of users; no user is accused twice.

    Challenge columns are iid uniform bits except for occasional constant
    columns (rate ``UNANIMOUS_RATE``). Constant columns are the only rounds
    where one answer can disagree with every user at once, so they are what
    eventually corners an adversary whose sources have all been accused.
    Scoring runs only on the non-constant columns: user i earns +1 when its
    bit matches the (claimed-bit) answer and -1 otherwise, and is accused
    once its score crosses tau * sqrt(scored rounds), and not before
    ``MIN_SCORED`` scored rounds.

    Scoring is lazy: each scored round's mismatch row is buffered, and the
    buffer is folded into the per-user mismatch counts only when it is full
    or when an upper bound on every unaccused score reaches the cut. The
    bound is the largest unaccused score at the last fold plus the scored
    rounds since, so no round that could accuse is skipped and accusations
    come out in the same rounds and order as an every-round check.

    The collusion-resilience of this baseline is validated empirically, not
    proven; tau = 5 keeps the false-accusation count well under d/2000 for
    the game sizes exercised here.
    """

    def __init__(self, d: int, tau: float = 5.0, invert_answers: bool = False):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d
        self.tau = float(tau)
        self.invert_answers = bool(invert_answers)
        self._mismatches = np.zeros(d, dtype=np.int64)
        self._accused_mask = np.zeros(d, dtype=bool)
        self._scored_rounds = 0
        self._rows = np.empty((FOLD_ROWS, d), dtype=np.uint8)
        self._buffered = 0
        self._bound = 0   # upper bound on every unaccused score
        self._pending: Optional[np.ndarray] = None
        self._pending_uniform = False

    @property
    def accused(self) -> frozenset:
        return frozenset(int(i) for i in np.flatnonzero(self._accused_mask))

    def challenge(self, rng: np.random.Generator) -> np.ndarray:
        if self._pending is not None:
            raise RuntimeError("previous challenge was never answered")
        if rng.random() < UNANIMOUS_RATE:
            column = np.full(self.d, int(rng.integers(0, 2)), dtype=np.uint8)
            self._pending_uniform = False
        else:
            column = rng.integers(0, 2, size=self.d, dtype=np.uint8)
            self._pending_uniform = True
        self._pending = column
        return column

    def observe(self, answer: int) -> list[int]:
        if self._pending is None:
            raise RuntimeError("no pending challenge")
        bit = int(answer) & 1
        if self.invert_answers:
            bit ^= 1
        accusations: list[int] = []
        if self._pending_uniform:
            self._scored_rounds += 1
            t = self._scored_rounds
            np.bitwise_xor(self._pending, bit, out=self._rows[self._buffered])
            self._buffered += 1
            self._bound += 1
            cut = self.tau * math.sqrt(t) if t >= MIN_SCORED else math.inf
            if self._bound >= cut or self._buffered == FOLD_ROWS:
                self._mismatches += self._rows[:self._buffered].sum(
                    axis=0, dtype=np.uint8)
                self._buffered = 0
                score = t - 2 * self._mismatches
                hot = np.flatnonzero((score >= cut) & ~self._accused_mask)
                self._accused_mask[hot] = True
                accusations = [int(i) for i in hot]
                self._bound = int(np.max(score, where=~self._accused_mask,
                                         initial=-t))
        self._pending = None
        return accusations


# ---------------------------------------------------------------------------
# game state and the bare game
# ---------------------------------------------------------------------------

@dataclass
class GameState:
    """Running counters of one collusion game.

    theta counts rounds whose answer matched no user's bit at all; psi counts
    accusations of users outside the colluding set.
    """

    d: int
    colluders: tuple[int, ...]
    remaining: list[int] = field(default_factory=list)
    accused: list[int] = field(default_factory=list)
    theta: int = 0
    psi: int = 0
    round_index: int = 0

    def __post_init__(self):
        if not self.remaining and not self.accused:
            self.remaining = sorted(set(self.colluders))

    def apply_round(self, column: np.ndarray, claimed_bit: int,
                    accusations: Sequence[int]) -> None:
        if not bool(np.any(column == claimed_bit)):
            self.theta += 1
        if set(accusations) & set(self.accused):
            raise RuntimeError("code re-accused a user")
        self.accused.extend(int(i) for i in accusations)
        if accusations:
            gone = set(accusations)
            self.remaining = [u for u in self.remaining if u not in gone]
        outside = set(self.accused) - set(self.colluders)
        self.psi = len(outside)
        self.round_index += 1


class EchoAdversary:
    """Answers with the bit of the lowest-indexed still-visible colluder.

    Single-source leaking: every answer equals a real user's bit, so the
    consistency counter can never move while a colluder remains visible.
    """

    fallback_bit = 0

    def select_colluders(self, d: int, N: int, rng: np.random.Generator) -> list[int]:
        return sorted(int(u) for u in rng.choice(d, size=N, replace=False))

    def respond(self, round_index: int, visible: dict, rng: np.random.Generator) -> int:
        if visible:
            return int(visible[min(visible)])
        return self.fallback_bit


class RandomBitAdversary:
    """Ignores the challenge entirely; answers a fair coin."""

    def select_colluders(self, d: int, N: int, rng: np.random.Generator) -> list[int]:
        return sorted(int(u) for u in rng.choice(d, size=N, replace=False))

    def respond(self, round_index: int, visible: dict, rng: np.random.Generator) -> int:
        return int(rng.integers(0, 2))


class MajorityAdversary:
    """Answers the majority bit among visible colluders (ties and empty -> 1)."""

    def select_colluders(self, d: int, N: int, rng: np.random.Generator) -> list[int]:
        return sorted(int(u) for u in rng.choice(d, size=N, replace=False))

    def respond(self, round_index: int, visible: dict, rng: np.random.Generator) -> int:
        if not visible:
            return 1
        ones = sum(visible.values())
        return 1 if 2 * ones >= len(visible) else 0


def run_ifpc_game(code: ScoreTracingCode, adversary, N: int, d: int, M: int,
                  rng: np.random.Generator,
                  log_rows: Optional[list] = None) -> GameState:
    """Play M rounds of the bare collusion game.

    The adversary sees only the restriction of each challenge column to the
    still-unaccused colluders and answers one bit; the code sees only that
    bit. Returns the final counters; with ``log_rows``, also appends one
    ``GAME_LOG_FIELDS`` row per round to it.
    """
    if not (1 <= N <= d):
        raise ValueError(f"need 1 <= N <= d, got N={N}, d={d}")
    if code.d != d:
        raise ValueError(f"code is for d={code.d}, game wants d={d}")
    colluders = adversary.select_colluders(d, N, rng)
    game = GameState(d=d, colluders=tuple(colluders))
    for j in range(M):
        column = code.challenge(rng)
        visible = {i: int(column[i]) for i in game.remaining}
        answer = int(adversary.respond(j, visible, rng)) & 1
        accusations = code.observe(answer)
        game.apply_round(column, answer, accusations)
        if log_rows is not None:
            log_rows.append({
                "round": j,
                "challenge_hash": hashlib.sha1(column.tobytes()).hexdigest()[:12],
                "answer": answer,
                "rounded": answer,
                "accused_count": len(game.accused),
                "theta": game.theta,
                "psi": game.psi,
            })
    return game


# ---------------------------------------------------------------------------
# lazy lower-bound states
# ---------------------------------------------------------------------------

class LocalLowerBoundState:
    """Lazy stand-in for the shuffled-coordinate diagonal state.

    Group j notionally holds 2^d coordinates; only the queried ones are ever
    assigned. Assignments are drawn from a per-round seeded stream with a
    collision check, which is indistinguishable from a true permutation at
    the points evaluated.
    """

    def __init__(self, d: int, M: int, seed: int):
        self.d = int(d)
        self.M = int(M)
        self._seed = int(seed)
        self._forward: list[dict[bytes, int]] = [dict() for _ in range(M)]
        self._columns: list[dict[int, np.ndarray]] = [dict() for _ in range(M)]
        self._rands: dict[int, random.Random] = {}

    def _round_rand(self, j: int) -> random.Random:
        if j not in self._rands:
            self._rands[j] = random.Random(f"local:{self._seed}:{j}")
        return self._rands[j]

    def locate(self, j: int, q: np.ndarray) -> int:
        """Coordinate index assigned to bit pattern q in group j."""
        q = np.ascontiguousarray(q, dtype=np.uint8)
        key = q.tobytes()
        forward = self._forward[j]
        if key in forward:
            return forward[key]
        rand = self._round_rand(j)
        taken = self._columns[j]
        k = rand.getrandbits(self.d)
        while k in taken:  # permutation property at the evaluated points
            k = rand.getrandbits(self.d)
        forward[key] = k
        taken[k] = q.copy()
        return k

    def _column(self, j: int, k: int) -> np.ndarray:
        column = self._columns[j].get(k)
        if column is None:
            raise KeyError(f"coordinate {k} of group {j} was never assigned")
        return column

    def coordinate(self, user: int, j: int, k: int) -> int:
        """Measured bit of the given user at coordinate (k, j)."""
        return int(self._column(j, k)[user])

    def z_values(self, users: np.ndarray, query) -> np.ndarray:
        """Z eigenvalue of each listed user's bit at the queried coordinate."""
        if not isinstance(query, LocalZQuery):
            raise TypeError(f"unsupported query type {type(query).__name__}")
        column = self._column(query.round_index, query.coordinate)
        return 1.0 - 2.0 * column[users]

    @property
    def n_qubits(self) -> int:
        return math.ceil(math.log2(self.d)) + self.M * 2 ** self.d


class PauliLowerBoundState:
    """User rows carry Enc(sk_i, 1) pairs; a fresh pad is drawn per round."""

    def __init__(self, d: int, M: int, seed: int):
        self.d = int(d)
        self.M = int(M)
        self._seed = int(seed)
        self._key_round: Optional[int] = None
        self._key: Optional[np.ndarray] = None

    def secret_key(self, j: int) -> np.ndarray:
        """Round j's pad; only the latest round's pad is kept."""
        if j != self._key_round:
            g = np.random.default_rng(
                np.random.SeedSequence(entropy=self._seed, spawn_key=(j,)))
            self._key = g.integers(0, 2, size=self.d, dtype=np.uint8)
            self._key_round = j
        return self._key

    def z_values(self, users: np.ndarray, query) -> np.ndarray:
        """Z parity of each listed user's row under a parity query.

        Each user decrypts its own bit as in ``parity_decrypt_identity``:
        key bit 0 reads the first entry of its cipher pair, key bit 1 the
        second.
        """
        if not isinstance(query, PauliParityQuery):
            raise TypeError(f"unsupported query type {type(query).__name__}")
        first = query.cipher[2 * users]
        second = query.cipher[2 * users + 1]
        if np.any(first == second):
            raise InvalidPair("cipher pair must be 10 or 01")
        sk = self.secret_key(query.round_index)[users]
        return 1.0 - 2.0 * np.where(sk == 0, first, second)

    @property
    def n_qubits(self) -> int:
        return math.ceil(math.log2(self.d)) + 2 * self.d * self.M


@dataclass(frozen=True)
class LocalZQuery:
    """Z on one coordinate of one group (the coordinate index may be huge)."""

    round_index: int
    coordinate: int


@dataclass
class PauliParityQuery:
    """Z parity over group ``round_index`` with the ciphertext as the mask."""

    round_index: int
    cipher: np.ndarray


class UserSample:
    """One sampled copy of the diagonal state, readable only through queries."""

    def __init__(self, state, user: int):
        self.state = state
        self.user = int(user)

    def z_value(self, query) -> float:
        return float(self.state.z_values(np.array([self.user]), query)[0])


# ---------------------------------------------------------------------------
# mechanisms under attack
# ---------------------------------------------------------------------------

class EmpiricalMeanMechanism:
    """Averages the queried Z value over the samples it was handed.

    The samples are kept as one array of user indices into their shared
    state, so an answer is one ``z_values`` read of all of them.
    """

    def __init__(self):
        self.state = None
        self.users = np.zeros(0, dtype=np.intp)

    def load(self, samples: Sequence[UserSample]) -> None:
        states = {id(s.state) for s in samples}
        if len(states) > 1:
            raise ValueError("samples must share one state")
        self.state = samples[0].state if samples else None
        self.users = np.array([s.user for s in samples], dtype=np.intp)

    def answer(self, query) -> float:
        if not self.users.size:
            raise RuntimeError("mechanism has no samples loaded")
        return float(np.mean(self.state.z_values(self.users, query)))


class ConstantMechanism:
    """Ignores both samples and query; always answers the same value."""

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def load(self, samples) -> None:
        pass

    def answer(self, query) -> float:
        return self.value


# ---------------------------------------------------------------------------
# the two attacks
# ---------------------------------------------------------------------------

@dataclass
class AttackResult:
    transcript: Transcript
    state: GameState
    forced_error: bool
    max_error: float
    forced_round: Optional[int]
    n_qubits: int


def _run_code_attack(build_state, build_query, mechanism, N: int, M: int,
                     rng: np.random.Generator, simulated: bool,
                     code: Optional[ScoreTracingCode]) -> AttackResult:
    d = 2000 * N
    if code is None:
        code = ScoreTracingCode(d, invert_answers=True)
    state = build_state(d, M, int(rng.integers(0, 2 ** 31 - 1)))
    users = [int(u) for u in rng.integers(0, d, size=N)]  # iid, replacement
    colluders = tuple(sorted(set(users)))
    mechanism.load([UserSample(state, u) for u in users])
    game = GameState(d=d, colluders=colluders)
    transcript = Transcript()
    max_error = 0.0
    forced_round: Optional[int] = None
    for j in range(M):
        column = code.challenge(rng)
        if simulated:
            # the fictitious analyst knows the colluders and blanks everyone else
            q = np.zeros(d, dtype=np.uint8)
            live = game.remaining
            q[live] = column[live]
        else:
            q = column.copy()
            if game.accused:
                q[game.accused] = 0
        query = build_query(state, j, q)
        raw = float(mechanism.answer(query))
        answer = float(np.clip(raw, -1.0, 1.0))
        rounded = 1 if answer >= 0.0 else 0
        claimed = 1 - rounded  # rounded 1 asserts the +1 eigenspace, i.e. bit 0
        accusations = code.observe(rounded)
        truth = (d - 2 * int(np.count_nonzero(q))) / d
        err = abs(answer - truth)
        if err >= FORCED_ERROR_LEVEL and forced_round is None:
            forced_round = j
        max_error = max(max_error, err)
        transcript.append(query, answer, truth)
        game.apply_round(column, claimed, accusations)
    return AttackResult(
        transcript=transcript,
        state=game,
        forced_error=forced_round is not None,
        max_error=max_error,
        forced_round=forced_round,
        n_qubits=state.n_qubits,
    )


def _local_query(state: LocalLowerBoundState, j: int, q: np.ndarray) -> LocalZQuery:
    return LocalZQuery(round_index=j, coordinate=state.locate(j, q))


def _pauli_query(state: PauliLowerBoundState, j: int,
                 q: np.ndarray) -> PauliParityQuery:
    cipher = otp_encrypt(state.secret_key(j), q)
    return PauliParityQuery(round_index=j, cipher=cipher)


def run_local_attack(mechanism, N: int, M: int, rng: np.random.Generator,
                     simulated: bool = False,
                     code: Optional[ScoreTracingCode] = None) -> AttackResult:
    """Shuffled-coordinate attack with d = 2000N users.

    Each round hides the (accused-zeroed) challenge column at a fresh lazily
    assigned coordinate and asks the mechanism for that coordinate's Z value.
    The result records whether any round's answer missed the population truth
    by at least 0.99. In simulated mode the analyst additionally blanks every
    non-colluder, so the reported truth is against the simulated ensemble and
    only the answer stream is comparable to a real run.
    """
    return _run_code_attack(LocalLowerBoundState, _local_query, mechanism,
                            N, M, rng, simulated, code)


def run_pauli_attack(mechanism, N: int, M: int, rng: np.random.Generator,
                     simulated: bool = False,
                     code: Optional[ScoreTracingCode] = None) -> AttackResult:
    """Padded-parity attack with d = 2000N users and a fresh key per round.

    The challenge column is encrypted with the round's pad and queried as a Z
    parity over the doubled encoding; each sample decrypts its own bit via
    the inner-product identity and nothing else.
    """
    return _run_code_attack(PauliLowerBoundState, _pauli_query, mechanism,
                            N, M, rng, simulated, code)
