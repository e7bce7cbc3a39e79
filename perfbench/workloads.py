"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload has a ``setup(seed, size)`` that builds the inputs (states,
observables, random streams) without sampling, and a ``run(inputs, size,
ctx)`` that does the workload's fixed work once.  A pass copies the random
streams it is given, so every pass over the same inputs repeats the same
answers.  The analyst is a closed loop: it forms its next query only after
the previous answer arrived.

Answers are scored after the pass by ``Op.check``, which compares against
``expectation`` called here, never against a truth the package returns.
"""

from __future__ import annotations

import copy
import math
import resource
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import adaptive_shadows as A
from adaptive_shadows import attack, subspace

# cli._heavy_state's leading eigenvalues, used by the adsh experiments
CLI_WEIGHTS = (0.4, 0.25, 0.15, 0.1)


@dataclass
class Op:
    """One scored answer; ``check`` runs after the pass (None: finite is enough)."""

    answer: float
    check: Optional[Callable[[], bool]] = None


@dataclass
class Ctx:
    """What one pass produced, plus the tracer when the pass is traced."""

    tracer: object = None
    ops: list = field(default_factory=list)
    lost: int = 0                 # ops whose package call raised
    stream: list = field(default_factory=list)
    latencies: list = field(default_factory=list)   # (start, end)
    counts: dict = field(default_factory=dict)
    probes: dict = field(default_factory=dict)

    def add(self, answer, check=None) -> None:
        self.ops.append(Op(float(answer), check))
        self.stream.append(float(answer))

    def fail(self, ops: int) -> None:
        traceback.print_exc()
        self.lost += ops

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    @contextmanager
    def query(self, span: Optional[str] = None):
        """Time one analyst-visible query; traced passes also record a span."""
        with self.span(span) if span else nullcontext():
            start = perf_counter()
            try:
                yield
            finally:
                self.latencies.append((start, perf_counter()))


def heavy_state(d: int, rng, weights):
    """Density with the given leading eigenvalues, the rest flat, random basis."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    lam = np.full(d, (1.0 - sum(weights)) / (d - len(weights)))
    lam[:len(weights)] = weights
    rho = (q * lam) @ q.conj().T
    return A.DenseState(0.5 * (rho + rho.conj().T)), q


def haar_unit(d: int, rng) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _close(state, obs, answer, tol) -> Callable[[], bool]:
    return lambda: abs(answer - A.expectation(state, obs)) <= tol


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# ---------------------------------------------------------------------------
# learner: acceptance scenario 9
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LearnerSize:
    # three sessions (600 rounds) make a pass short enough that two to four
    # fit in a 40-second run, so that a run spans several of the machine's
    # fast and slow stretches rather than one
    seeds: int = 3
    rounds: int = 200


LEARNER_EPS = 0.3
LEARNER_N = 9_984            # 192 batches of 52 snapshots
EFFECT_WEIGHTS = np.array([0.95, 0.7, 0.45])


def learner_setup(seed: int, size: LearnerSize):
    inputs = []
    for i in range(size.seeds):
        rng = np.random.default_rng([seed, i])
        rho, q = heavy_state(16, rng, (0.3, 0.25, 0.2))
        inputs.append((i, rho, q, rng))
    return inputs


class TomographFactory:
    """The learner's PMW tomograph factory, timed, with session call counts."""

    def __init__(self, cfg, ctx: Ctx):
        self.factory = subspace.make_pmw_tomograph_factory(cfg)
        self.ctx = ctx
        self.built = []            # (session, [calls])

    def __call__(self, padded, rng):
        with self.ctx.span("subspace.tomograph_build"):
            tomo = self.factory(padded, rng)
        session, calls = tomo.session, [0]
        query = session.query

        def counted(values):
            calls[0] += 1
            return query(values)

        session.query = counted
        self.built.append((session, calls))
        return tomo


def _effect_stream(teacher, q, rng, rounds, queries, ctx):
    """Adaptive Frobenius-bounded effects: fresh probes after each mistake.

    The span around ``yield`` runs from handing query k to the learner until
    the learner asks for query k+1, which excludes the analyst's own work.
    """
    history = []
    last_mistakes = 0
    for _ in range(rounds):
        noise = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        if teacher.mistakes > last_mistakes or not history:
            cols = rng.choice(16, size=3, replace=False)
            probes = math.sqrt(0.91) * q[:, cols] + 0.3 * noise
        else:
            probes = history[-1] + 0.1 * noise
        last_mistakes = teacher.mistakes
        basis, _ = np.linalg.qr(probes)
        history.append(probes)
        obs = A.HermitianDense((basis * EFFECT_WEIGHTS) @ basis.conj().T)
        queries.append(obs)
        with ctx.query("subspace.round"):
            yield obs


def learner_run(inputs, size: LearnerSize, ctx: Ctx) -> None:
    counts = dict.fromkeys(("subspace.mistakes", "subspace.k_final",
                            "threshold_search.no_count",
                            "mechanisms.pmw_updates",
                            "mechanisms.pmw_cache_hits"), 0)
    for i, rho, q, rng0 in inputs:
        rng = copy.deepcopy(rng0)
        cfg = A.MechanismConfig(N=LEARNER_N, M=size.rounds, epsilon=LEARNER_EPS,
                                delta=0.1, B=4.0, ell=250, K=192, seed=i)
        teacher_cfg = A.MechanismConfig(N=LEARNER_N, M=2 * size.rounds,
                                        epsilon=0.15, delta=0.05, B=4.0,
                                        ell=250, K=192, seed=i)
        corr_cfg = A.MechanismConfig(N=LEARNER_N, M=2 * size.rounds,
                                     epsilon=2.0, delta=0.05, B=4.0, ell=250,
                                     K=192, seed=i + 1)
        tomo_cfg = A.MechanismConfig(N=4_000, M=5_000, epsilon=4.0, delta=0.05,
                                     ell=20_000, seed=i)
        queries = []
        try:
            ds_t = A.collect_povm_snapshots(rho, LEARNER_N, rng)
            corr_ds = A.collect_povm_snapshots(rho, LEARNER_N, rng)
            corr = A.DpMedianSession(corr_ds, corr_cfg, rng=rng, gamma=0.05)
            teacher = A.ClosenessTeacher(ds_t, teacher_cfg, rng=rng,
                                         correction_session=corr)
            factory = TomographFactory(tomo_cfg, ctx)
            run = A.run_bounded_frobenius(
                rho, _effect_stream(teacher, q, rng, size.rounds, queries, ctx),
                cfg, teacher, tomograph_factory=factory, rng=rng)
        except Exception:
            ctx.fail(size.rounds)
            continue
        for obs, r in zip(queries, run.transcript.rounds):
            ctx.add(r.answer, _close(rho, obs, r.answer, LEARNER_EPS))
        counts["subspace.mistakes"] += run.ledger.mistake_count
        counts["subspace.k_final"] += run.subspace.k
        counts["threshold_search.no_count"] += teacher.search.no_count
        for session, calls in factory.built:
            counts["mechanisms.pmw_updates"] += session.updates
            counts["mechanisms.pmw_cache_hits"] += calls[0] - session.answered
    ctx.counts.update(counts)


# ---------------------------------------------------------------------------
# sampling: adsh povm-concentration, dp-median, pauli-bell + one d=16 draw
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingSize:
    trials: int = 20
    concentration_n: int = 20_000
    dp_n: int = 8_192
    dp_queries: int = 16
    bell_n: int = 100_000
    bell_queries: int = 100
    big_draw: int = 250_000


CONCENTRATION_TAUS = (0.25, 0.5, 1.0)
DP_EPS = 0.3
DP_K = 256
BELL_TOL = 0.15
TRUNCATION_EPS = (0.2, 0.3)
# the d=16 state has a fixed spectrum, so the rejection sampler's acceptance
# rate (1 / (d * lambda_max)) and hence its memory do not vary with the seed
BIG_WEIGHTS = (0.24,)


def _random_pauli(n: int, rng) -> A.PauliString:
    while True:
        s = "".join("IXYZ"[i] for i in rng.integers(0, 4, size=n))
        if s != "I" * n:
            return A.PauliString(s)


def _truncation_observable(rng) -> A.HermitianDense:
    """Acceptance scenario 5: random eigenbasis, spectrum with tr(O^2) = 4/3."""
    g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    q, _ = np.linalg.qr(g)
    spectrum = rng.uniform(-1.0, 1.0, size=16)
    spectrum *= math.sqrt(4.0 / 3.0) / np.linalg.norm(spectrum)
    return A.HermitianDense((q * spectrum) @ q.conj().T)


def sampling_setup(seed: int, size: SamplingSize):
    s_conc, s_dp, s_bell, s_big = _sub_seeds(seed, 4)
    concentration = []
    for rng in A.spawn_rngs(s_conc, size.trials):
        state, _ = heavy_state(8, rng, CLI_WEIGHTS)
        concentration.append((state, A.RankOneProjector(haar_unit(8, rng)), rng))
    dp = [(heavy_state(8, rng, CLI_WEIGHTS)[0], rng)
          for rng in A.spawn_rngs(s_dp, size.trials)]
    bell = []
    for rng in A.spawn_rngs(s_bell, size.trials):
        state, _ = heavy_state(8, rng, CLI_WEIGHTS)
        queries = [_random_pauli(3, rng) for _ in range(size.bell_queries)]
        bell.append((state, queries, rng))
    rng = np.random.default_rng(s_big)
    big_state, _ = heavy_state(16, rng, BIG_WEIGHTS)
    big = (big_state, _truncation_observable(rng), rng)
    return {"concentration": concentration, "dp": dp, "bell": bell, "big": big}


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _timed_queries(queries, ctx: Ctx):
    for P in queries:
        with ctx.query():
            yield P


def _big_draw(inputs, size: SamplingSize, ctx: Ctx) -> None:
    """One d=16 draw carrying the truncation-bias probe (scenario 5)."""
    state, obs, rng0 = inputs
    rng = copy.deepcopy(rng0)
    try:
        before = _maxrss_bytes()
        ds = A.collect_povm_snapshots(state, size.big_draw, rng)
        # growth of the high-water mark per output byte; only meaningful for
        # the first draw in a process, which starts from the set-up level
        ctx.probes["povm_rss_ratio"] = (
            (_maxrss_bytes() - before) / (size.big_draw * state.d * 16))
        vals = A.snapshot_values(ds, obs)
        del ds
    except Exception:
        ctx.fail(len(TRUNCATION_EPS))
        return
    n = len(vals)
    for eps in TRUNCATION_EPS:
        T = A.truncation_level(4.0, eps)
        delta = np.clip(vals, -T, T) - vals
        bias = float(delta.mean())
        se = math.sqrt(max(float((delta**2).mean()) - bias**2, 0.0) / n)
        ctx.add(bias, lambda b=bias, e=eps, s=se: abs(b) <= e / 3.0 + 5.0 * s)


def sampling_run(inputs, size: SamplingSize, ctx: Ctx) -> None:
    _big_draw(inputs["big"], size, ctx)

    for state, obs, rng0 in inputs["concentration"]:
        rng = copy.deepcopy(rng0)
        try:
            B = A.shadow_norm_bound(obs, "povm")
            ds = A.collect_povm_snapshots(state, size.concentration_n, rng)
            centered = A.snapshot_values(ds, obs) - A.expectation(state, obs)
        except Exception:
            ctx.fail(len(CONCENTRATION_TAUS))
            continue
        for tau in CONCENTRATION_TAUS:
            tail = float(np.mean(np.abs(centered) >= tau))
            bound = A.povm_tail_bound(tau, B)
            ctx.add(tail, lambda t=tail, b=bound: t <= b)

    dp_cfg = A.MechanismConfig(N=size.dp_n, M=size.dp_queries, epsilon=DP_EPS,
                               K=DP_K, m_bits=3)
    for state, rng0 in inputs["dp"]:
        rng = copy.deepcopy(rng0)
        try:
            ds = A.collect_povm_snapshots(state, size.dp_n, rng)
            session = A.DpMedianSession(ds, dp_cfg, rng=rng)
        except Exception:
            ctx.fail(size.dp_queries)
            continue
        for _ in range(size.dp_queries):
            obs = A.RankOneProjector(haar_unit(8, rng))
            try:
                with ctx.query():
                    answer = session.query(obs)
            except Exception:
                ctx.fail(1)
                continue
            ctx.add(answer, _close(state, obs, answer, DP_EPS))

    bell_cfg = A.MechanismConfig(N=size.bell_n, M=size.bell_queries,
                                 epsilon=BELL_TOL, m_bits=3)
    for state, queries, rng0 in inputs["bell"]:
        rng = copy.deepcopy(rng0)
        try:
            answers = A.adaptive_pauli_mechanism(
                state, _timed_queries(queries, ctx), bell_cfg, rng)
        except Exception:
            ctx.fail(len(queries))
            continue
        for P, a in zip(queries, answers):
            ctx.add(a, _close(state, P, a, BELL_TOL))


# ---------------------------------------------------------------------------
# games: adsh attack, ifpc-local, ifpc-pauli + one game per variant at N=10
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GamesSize:
    attack_n: int = 10_000
    grid: tuple = (100, 200, 400, 800, 1600, 3200, 6400, 10_000)
    runs: int = 20
    games: tuple = ((5, 625, 20), (10, 2_500, 1))   # (N, M = 25 N^2, games)


BASELINE_TOL = 0.3


class TimedMechanism:
    """The mechanism handed to a fingerprinting game, timed per answer."""

    def __init__(self, inner, ctx: Ctx):
        self.inner = inner
        self.ctx = ctx

    def load(self, samples) -> None:
        self.inner.load(samples)

    def answer(self, query) -> float:
        with self.ctx.query("ifpc.answer"):
            return self.inner.answer(query)


def games_setup(seed: int, size: GamesSize):
    seeds = _sub_seeds(seed, 1 + 2 * len(size.games))
    games = {}
    for k, variant in enumerate(("local", "pauli")):
        for j, (N, M, count) in enumerate(size.games):
            s = seeds[1 + k * len(size.games) + j]
            games[(variant, N, M)] = A.spawn_rngs(s, count)
    return {
        "attack": A.spawn_rngs(seeds[0], 2 * len(size.grid)),
        "truth_states": {M: attack.MajorityState(M) for M in size.grid},
        "games": games,
    }


def _exact_attack_truth(state, M: int, selected) -> float:
    """Z-expectation of the queried OR coordinate, from ``expectation``."""
    return A.expectation(state, A.SingleQubitZ(attack.subset_to_index(M, selected)))


def games_run(inputs, size: GamesSize, ctx: Ctx) -> None:
    rngs = copy.deepcopy(inputs["attack"])
    top = max(size.grid)
    exact_errs, declared_errs = [], []
    for j, M in enumerate(size.grid):
        rng_a, rng_n = rngs[2 * j], rngs[2 * j + 1]
        for _ in range(size.runs):
            try:
                res = A.run_adaptive_attack(size.attack_n, M, rng_a)
                truth = _exact_attack_truth(inputs["truth_states"][M], M,
                                            res.selected)
            except Exception:
                ctx.fail(1)
                continue
            # a wrong answer is the attack's goal, so only finiteness is checked
            ctx.add(res.answer)
            if M == top:
                exact_errs.append(abs(res.answer - truth))
                declared_errs.append(res.error)
        for _ in range(size.runs):
            try:
                res = A.run_nonadaptive_baseline(size.attack_n, M, rng_n)
            except Exception:
                ctx.fail(1)
                continue
            ctx.add(res.max_error, lambda e=res.max_error: e <= BASELINE_TOL)
    ctx.counts["attack.adaptive_err_exact"] = float(np.mean(exact_errs or [0.0]))
    ctx.counts["attack.adaptive_err_declared"] = float(
        np.mean(declared_errs or [0.0]))

    forced, psi_max = 0, 0
    runners = {"local": A.run_local_attack, "pauli": A.run_pauli_attack}
    for (variant, N, M), rngs0 in inputs["games"].items():
        for rng in copy.deepcopy(rngs0):
            if ctx.tracer:
                ctx.tracer.round_name = f"ifpc.{variant}_round.N{N}"
            try:
                res = runners[variant](
                    TimedMechanism(A.EmpiricalMeanMechanism(), ctx), N, M, rng)
            except Exception:
                ctx.fail(1)
                continue
            finally:
                if ctx.tracer:
                    ctx.tracer.close_round()
                    ctx.tracer.round_name = None
            answers = [r.answer for r in res.transcript.rounds]
            ctx.add(res.max_error,
                    lambda a=answers: bool(np.all(np.isfinite(a))))
            forced_round = -1 if res.forced_round is None else res.forced_round
            ctx.stream += answers + [forced_round, res.state.psi,
                                     res.state.theta]
            forced += res.forced_error
            psi_max = max(psi_max, res.state.psi)
    ctx.counts["ifpc.forced_games"] = forced
    ctx.counts["ifpc.psi_max"] = psi_max


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    full: object
    tiny: object


WORKLOADS = {
    "learner": Workload(learner_setup, learner_run, LearnerSize(),
                        LearnerSize(seeds=1, rounds=20)),
    "sampling": Workload(sampling_setup, sampling_run, SamplingSize(),
                         SamplingSize(trials=2, bell_queries=10,
                                      big_draw=20_000)),
    "games": Workload(games_setup, games_run, GamesSize(),
                      GamesSize(grid=(100, 10_000), runs=2,
                                games=((5, 625, 2),))),
}
