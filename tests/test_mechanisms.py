"""DP median, PMW, statistical queries, and the Bell-sample Pauli pipeline."""

import numpy as np
import pytest

from adaptive_shadows.core import (
    DenseState,
    DiagonalState,
    HermitianDense,
    MechanismConfig,
    PauliString,
    RankOneProjector,
    SingleQubitZ,
    expectation,
)
from adaptive_shadows.errors import (
    BudgetExhausted,
    DimensionMismatch,
    DimensionTooLarge,
    IndivisibleBatching,
    UniverseTooLarge,
)
from adaptive_shadows.mechanisms import (
    DpMedianSession,
    PmwSession,
    SqSession,
    adaptive_pauli_mechanism,
    bell_probabilities,
    bell_samples,
    pauli_sign_oracle,
    q_p_values,
    query_value_table,
    truncation_interval,
)
from adaptive_shadows.shadows import (
    ShadowDataset,
    collect_pauli_snapshots,
    collect_povm_snapshots,
)


def _random_density(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DenseState(m / np.trace(m).real)


class TestTruncation:
    def test_interval_formula(self):
        """2 sqrt(B/N) + 1 at B=9, N=9 clamps a mean of 5 down to 3."""
        bound = truncation_interval(9.0, 9)
        assert bound == 3.0
        assert float(np.clip(5.0, -bound, bound)) == 3.0

    def test_interval_is_monotone_in_b(self):
        assert truncation_interval(4.0, 16) > truncation_interval(1.0, 16)


class TestDpMedian:
    def test_constant_batch_means_recovered_within_grid(self):
        """Identity queries have every batch mean equal to 1 exactly."""
        rng = np.random.default_rng(3)
        rho = _random_density(2, rng)
        ds = collect_povm_snapshots(rho, 256, rng)
        cfg = MechanismConfig(N=256, M=4, epsilon=0.5, K=64, seed=1)
        session = DpMedianSession(ds, cfg, rng=np.random.default_rng(5))
        answer = session.query(HermitianDense(np.eye(2)))
        assert abs(answer - 1.0) <= cfg.epsilon / 4.0 + 1e-12, f"answer {answer}"

    def test_answer_stays_inside_truncation_interval(self):
        rng = np.random.default_rng(7)
        rho = _random_density(4, rng)
        ds = collect_povm_snapshots(rho, 64, rng)
        cfg = MechanismConfig(N=64, M=16, epsilon=0.3, K=16, seed=2)
        session = DpMedianSession(ds, cfg, rng=np.random.default_rng(9))
        bound = truncation_interval(3.0, 4)  # projector B=3, batch size 4
        for k in range(16):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            answer = session.query(RankOneProjector(v))
            assert abs(answer) <= bound + 1e-9

    def test_nonadaptive_sanity_on_uniform_state(self):
        """Fixed Z query on fair coins: answer within 0.1 of 0 in >= 95/100."""
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            ds = collect_pauli_snapshots(DiagonalState(2), 48 * 256, rng)
            cfg = MechanismConfig(N=256, M=1, epsilon=1.0, K=48, seed=seed)
            session = DpMedianSession(ds, cfg, rng=rng)
            if abs(session.query(SingleQubitZ(0))) <= 0.1:
                hits += 1
        assert hits >= 95, f"only {hits}/100 runs inside 0.1"

    def test_budget_exhausts(self):
        rng = np.random.default_rng(11)
        rho = _random_density(2, rng)
        ds = collect_povm_snapshots(rho, 16, rng)
        cfg = MechanismConfig(N=16, M=2, epsilon=0.5, K=4, seed=3)
        session = DpMedianSession(ds, cfg, rng=rng)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        session.query(obs)
        session.query(obs)
        with pytest.raises(BudgetExhausted):
            session.query(obs)

    def test_trace_records_the_exponential_mechanism_scale(self):
        """Weights exp(eps u / 2) on a sensitivity-1 utility: scale 2 / eps."""
        rng = np.random.default_rng(15)
        ds = collect_povm_snapshots(_random_density(2, rng), 64, rng)
        cfg = MechanismConfig(N=64, M=2, epsilon=0.4, K=8, seed=6)
        session = DpMedianSession(ds, cfg, rng=rng)
        session.query(RankOneProjector(np.array([1.0, 0.0])))
        assert session.log[0]["noise_scale"] == pytest.approx(5.0)

    def test_value_vector_must_cover_the_dataset(self):
        rng = np.random.default_rng(17)
        ds = collect_povm_snapshots(_random_density(2, rng), 64, rng)
        cfg = MechanismConfig(N=64, M=2, epsilon=0.4, K=8, seed=6)
        session = DpMedianSession(ds, cfg, rng=rng)
        with pytest.raises(DimensionMismatch):
            session.query(RankOneProjector(np.array([1.0, 0.0])),
                          values=np.ones(5))
        assert session.answered == 0

    def test_batching_must_divide(self):
        rng = np.random.default_rng(13)
        rho = _random_density(2, rng)
        ds = collect_povm_snapshots(rho, 10, rng)
        cfg = MechanismConfig(N=10, M=1, epsilon=0.5, K=3, seed=4)
        with pytest.raises(IndivisibleBatching):
            DpMedianSession(ds, cfg)

    def test_wrapper_answers_scripted_queries(self):
        rng = np.random.default_rng(17)
        rho = _random_density(2, rng)
        ds = collect_povm_snapshots(rho, 4096, rng)
        cfg = MechanismConfig(N=4096, M=3, epsilon=0.6, K=64, seed=5)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        session = DpMedianSession(ds, cfg, rng=rng)
        answers = [session.query(obs) for _ in range(3)]
        truth = expectation(rho, obs)
        assert len(answers) == 3
        for a in answers:
            assert abs(a - truth) < 0.3, f"answer {a} vs truth {truth}"


class TestPmw:
    def _cfg(self, **kw):
        base = dict(N=32768, M=100, epsilon=0.5, delta=0.05, ell=20000, seed=0)
        base.update(kw)
        return MechanismConfig(**base)

    def test_constant_query_is_exact_and_free(self):
        rng = np.random.default_rng(19)
        h = rng.dirichlet(np.ones(16))
        session = PmwSession(h, 1000, self._cfg(), rng=rng)
        answer = session.query(np.full(16, 0.7))
        assert answer == pytest.approx(0.7, abs=1e-15)
        assert session.updates == 0

    def test_repeat_query_hits_the_cache(self):
        rng = np.random.default_rng(23)
        h = rng.dirichlet(np.ones(32))
        session = PmwSession(h, 5000, self._cfg(), rng=rng)
        values = rng.choice([-1.0, 1.0], size=32)
        first = session.query(values)
        again = session.query(values)
        assert first == again
        assert session.answered == 1  # second hit never touched the budget

    def test_weights_stay_a_distribution_through_updates(self):
        rng = np.random.default_rng(29)
        h = np.zeros(64)
        h[:4] = 0.25  # sharply skewed data, far from uniform weights
        session = PmwSession(h, 100_000, self._cfg(M=50), rng=rng)
        for k in range(50):
            values = (np.arange(64) < 4).astype(float) * ((-1.0) ** k)
            session.query(values)
            assert session.weights.min() >= 0
            assert session.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert session.updates >= 1, "the skew must force at least one update"

    def test_scripted_adaptive_stream_stays_accurate(self):
        """Answer-dependent queries over a 64-point universe stay within 0.1."""
        rng = np.random.default_rng(31)
        raw = np.exp(-2.0 * rng.exponential(size=64))
        h = raw / raw.sum()
        session = PmwSession(h, 32768, self._cfg(), rng=rng)
        prev = 1.0
        worst = 0.0
        for k in range(100):
            values = rng.choice([-1.0, 1.0], size=64) * np.sign(prev or 1.0)
            answer = session.query(values)
            truth = float(h @ values)
            worst = max(worst, abs(answer - truth))
            prev = answer - truth
        assert worst <= 0.1, f"worst PMW error {worst}"

    def test_histogram_validation(self):
        cfg = self._cfg()
        with pytest.raises(ValueError):
            PmwSession(np.array([0.5, 0.6]), 10, cfg)
        with pytest.raises(ValueError):
            PmwSession(np.array([-0.1, 1.1]), 10, cfg)
        with pytest.raises(UniverseTooLarge):
            PmwSession(np.full(1 << 21, 1.0 / (1 << 21)), 10, cfg)

    def test_tomography_wrapper_runs(self):
        rng = np.random.default_rng(37)
        rho = _random_density(4, rng)
        ds = collect_pauli_snapshots(rho, 4096, rng)
        cfg = self._cfg(N=4096, M=8, m_bits=2)
        queries = [PauliString("ZI"), PauliString("IZ"), PauliString("ZZ")]
        session = PmwSession.from_shadows(ds, cfg, rng=rng)
        answers = [session.query(query_value_table(q, 2)) for q in queries]
        assert len(answers) == 3
        for q, a in zip(queries, answers):
            assert abs(a - expectation(rho, q)) < 0.35, f"{q.symbols}: {a}"


class TestSqSession:
    def test_saturated_query_stays_clamped(self):
        cfg = MechanismConfig(N=10_000, M=10, epsilon=0.1, delta=0.05, seed=6)
        records = np.zeros(10_000)
        session = SqSession(records, cfg, rng=np.random.default_rng(41))
        answer = session.query(np.ones(10_000))
        assert 0.9 <= answer <= 1.0, f"clamped answer {answer}"

    def test_nonadaptive_answers_match_plain_means(self):
        """The mechanism only pays for adaptivity: fixed queries track means."""
        rng = np.random.default_rng(47)
        records = rng.choice([-1.0, 1.0], size=5000)
        cfg = MechanismConfig(N=5000, M=20, epsilon=0.5, delta=0.05, seed=8)
        session = SqSession(records, cfg, rng=rng)
        for _ in range(20):
            idx = rng.integers(0, 2)
            vals = records * (1.0 if idx else -1.0)
            answer = session.query(vals)
            assert abs(answer - vals.mean()) < 3 * session.sigma + 1e-12

    def test_budget_exhausts(self):
        cfg = MechanismConfig(N=10, M=1, epsilon=0.5, delta=0.1, seed=9)
        session = SqSession(np.ones(10), cfg)
        session.query(np.ones(10))
        with pytest.raises(BudgetExhausted):
            session.query(np.ones(10))


class TestBellPipeline:
    def test_ground_state_splits_between_phi_outcomes(self):
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        probs = bell_probabilities(rho)
        assert np.allclose(probs, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_maximally_mixed_is_uniform(self):
        rho = DenseState(np.eye(2, dtype=complex) / 2)
        assert np.allclose(bell_probabilities(rho), 0.25, atol=1e-12)

    def test_seeded_samples_are_deterministic(self):
        rho = DenseState(np.diag([0.7, 0.3]).astype(complex))
        a = bell_samples(rho, 100, np.random.default_rng(53))
        b = bell_samples(rho, 100, np.random.default_rng(53))
        assert np.array_equal(a, b)
        one = bell_samples(rho, 1, np.random.default_rng(53))
        assert one.shape == (1, 1)

    def test_q_values_for_ground_state_z(self):
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        outs = bell_samples(rho, 500, np.random.default_rng(59))
        assert np.all(q_p_values(outs, PauliString("Z")) == 1.0)
        assert np.all(q_p_values(outs, PauliString("I")) == 1.0)

    def test_q_x_has_zero_mean(self):
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        outs = bell_samples(rho, 100_000, np.random.default_rng(61))
        mean = q_p_values(outs, PauliString("X")).mean()
        assert abs(mean) < 5 / np.sqrt(100_000), f"E[q_X] {mean}"

    def test_expectation_identity_is_exact(self):
        """Sum over outcomes of p(w) q_P(w) equals tr(P rho)^2 analytically."""
        rng = np.random.default_rng(67)
        rho = _random_density(4, rng)
        probs = bell_probabilities(rho)
        words = np.array(
            [[(w >> 2) & 3, w & 3] for w in range(16)], dtype=np.uint8
        )
        for symbols in ("ZI", "XY", "ZZ", "YX", "IX"):
            P = PauliString(symbols)
            analytic = float(probs @ q_p_values(words, P))
            target = expectation(rho, P) ** 2
            assert analytic == pytest.approx(target, abs=1e-9), symbols

    def test_dimension_cap(self):
        rho = DenseState(np.eye(64, dtype=complex) / 64)
        with pytest.raises(DimensionTooLarge):
            bell_probabilities(rho)


class TestSignOracle:
    def test_signs(self):
        up = DenseState(np.diag([1.0, 0.0]).astype(complex))
        down = DenseState(np.diag([0.0, 1.0]).astype(complex))
        assert pauli_sign_oracle(up, PauliString("Z")) == 1
        assert pauli_sign_oracle(down, PauliString("Z")) == -1

    def test_zero_expectation_convention(self):
        mixed = DenseState(np.eye(2, dtype=complex) / 2)
        assert pauli_sign_oracle(mixed, PauliString("Z")) == 1


class TestAdaptivePauliMechanism:
    def test_definite_expectation_recovered(self):
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        cfg = MechanismConfig(N=100_000, M=4, epsilon=0.3, delta=0.05, seed=11)
        answers = adaptive_pauli_mechanism(
            rho, [PauliString("Z")] * 2, cfg, rng=np.random.default_rng(71)
        )
        for a in answers:
            assert abs(a - 1.0) < 0.05, f"answer {a}"

    def test_vanishing_expectation_stays_small(self):
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        cfg = MechanismConfig(N=100_000, M=4, epsilon=0.3, delta=0.05, seed=12)
        answers = adaptive_pauli_mechanism(
            rho, [PauliString("X")] * 4, cfg, rng=np.random.default_rng(73)
        )
        for a in answers:
            assert abs(a) < 0.15, f"answer {a} for a zero-expectation Pauli"

    def test_negative_magnitude_clamps_to_zero(self):
        """Some seed gives a slightly negative magnitude: answer exactly 0."""
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        cfg = MechanismConfig(N=2000, M=1, epsilon=0.3, delta=0.05, seed=13)
        seen_zero = False
        for seed in range(12):
            (a,) = adaptive_pauli_mechanism(
                rho, [PauliString("X")], cfg, rng=np.random.default_rng(seed)
            )
            if a == 0.0:
                seen_zero = True
                break
        assert seen_zero, "expected at least one clamped-to-zero answer"
