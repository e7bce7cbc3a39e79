"""Truncated threshold search, sparse vector, and the closeness teacher."""

import csv

import numpy as np
import pytest

from adaptive_shadows.core import (
    DenseState,
    HermitianDense,
    MechanismConfig,
    PauliString,
    RankOneProjector,
    expectation,
    write_csv,
)
from adaptive_shadows.errors import (
    DimensionMismatch,
    EmptyDataset,
    Halted,
    NonpositiveT,
    PrimitiveMismatch,
    UnsupportedPair,
)
from adaptive_shadows.mechanisms import DpMedianSession
from adaptive_shadows.shadows import (
    collect_pauli_snapshots,
    collect_povm_snapshots,
    snapshot_values,
)
from adaptive_shadows.threshold_search import (
    SESSION_LOG_FIELDS,
    ClosenessTeacher,
    ShadowThresholdSession,
    SparseVectorSession,
    truncation_level,
)


def _random_density(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DenseState(m / np.trace(m).real)


def _random_effect(d, rng):
    """Hermitian O with eigenvalues in [0.1, 0.9]."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    w = rng.uniform(0.1, 0.9, size=d)
    return HermitianDense((q * w) @ q.conj().T)


class TestTruncationLevel:
    def test_frozen_reference_value(self):
        """1 + 40 sqrt(1) ln(100) (ln 1 + 4) with natural logs."""
        assert truncation_level(1.0, 0.48) == pytest.approx(
            737.8272297580947, abs=1e-9
        )

    def test_small_b_clamps_to_one(self):
        assert truncation_level(0.25, 0.48) == truncation_level(1.0, 0.48)

    def test_monotone_in_b(self):
        assert truncation_level(4.0, 0.3) > truncation_level(1.0, 0.3)

    def test_gap_past_48_gives_a_nonpositive_level(self):
        with pytest.raises(NonpositiveT):
            truncation_level(1.0, 100.0)


class TestSparseVector:
    def test_clear_queries_answer_per_contract(self):
        rng = np.random.default_rng(101)
        session = SparseVectorSession(epsilon=0.1, delta=0.01,
                                      ell=5, M=10, rng=rng)
        assert session.ask(1.0, 0.0) == "No"
        assert session.ask(0.0, 0.5) == "Yes"

    def test_vector_queries_average_the_records(self):
        rng = np.random.default_rng(103)
        session = SparseVectorSession(epsilon=0.1, delta=0.01,
                                      ell=5, M=10, rng=rng)
        assert session.ask(np.full(50, 0.9), 0.2) == "No"

    def test_budget_halts_on_the_third_no(self):
        rng = np.random.default_rng(107)
        session = SparseVectorSession(epsilon=0.1, delta=0.01,
                                      ell=2, M=10, rng=rng)
        for _ in range(3):
            assert session.ask(1.0, 0.0) == "No"
        assert session.halted
        with pytest.raises(Halted):
            session.ask(0.0, 0.5)

    def test_wrapper_stops_at_the_halting_no(self):
        rng = np.random.default_rng(109)
        stream = [(1.0, 0.0)] * 5 + [(0.0, 0.5)]
        session = SparseVectorSession(epsilon=0.1, delta=0.01, ell=2,
                                      M=len(stream), rng=rng)
        answers = []
        for q, theta in stream:
            answers.append(session.ask(q, theta))
            if session.halted:
                break
        assert answers == ["No", "No", "No"]

    def test_empty_value_vector_raises_before_any_noise_draw(self):
        session = SparseVectorSession(0.1, 0.01, 2, 5, np.random.default_rng(127))
        twin = SparseVectorSession(0.1, 0.01, 2, 5, np.random.default_rng(127))
        with pytest.raises(EmptyDataset):
            session.ask(np.array([]), -100.0)
        assert session.no_count == 0
        assert session.rng.bit_generator.state == twin.rng.bit_generator.state
        assert session.ask(1.0, 0.0) == twin.ask(1.0, 0.0)
        assert session.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_parameter_validation(self):
        rng = np.random.default_rng(113)
        with pytest.raises(ValueError):
            SparseVectorSession(epsilon=0.0, delta=0.01, ell=2, M=5, rng=rng)
        with pytest.raises(ValueError):
            SparseVectorSession(epsilon=0.1, delta=1.5, ell=2, M=5, rng=rng)


class TestShadowThresholdSession:
    def _session(self, rho, seed, **kw):
        rng = np.random.default_rng(seed)
        ds = collect_povm_snapshots(rho, kw.pop("count", 20_000), rng)
        base = dict(N=len(ds), M=40, epsilon=0.3, delta=0.05, B=3.0, ell=25)
        base.update(kw)
        cfg = MechanismConfig(seed=seed, **base)
        return ShadowThresholdSession(ds, cfg, rng=rng)

    def test_rejects_pauli_shadows(self):
        rng = np.random.default_rng(127)
        ds = collect_pauli_snapshots(_random_density(4, rng), 100, rng)
        cfg = MechanismConfig(N=100, M=4, epsilon=0.3, delta=0.05, B=3.0, ell=5)
        with pytest.raises(PrimitiveMismatch):
            ShadowThresholdSession(ds, cfg)

    def test_certain_expectation_above_zero_answers_no(self):
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        obs = RankOneProjector(np.array([1.0, 0.0]))
        for seed in range(10):
            session = self._session(rho, 200 + seed, count=4000)
            assert session.ask(obs, 0.0) == "No"

    def test_zero_expectation_below_epsilon_answers_yes(self):
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        obs = RankOneProjector(np.array([0.0, 1.0]))
        for seed in range(10):
            session = self._session(rho, 300 + seed, count=4000)
            assert session.ask(obs, 0.3) == "Yes"

    def test_precomputed_values_match_the_default_path(self):
        rng = np.random.default_rng(131)
        rho = _random_density(2, rng)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        a = self._session(rho, 137, count=2000)
        b = self._session(rho, 137, count=2000)
        vals = snapshot_values(b.ds, obs)
        for theta in (0.1, 0.4, 0.7):
            assert a.ask(obs, theta) == b.ask(obs, theta, values=vals)

    def test_value_vector_must_cover_the_dataset(self):
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        session = self._session(rho, 141, count=64)
        with pytest.raises(DimensionMismatch):
            session.ask(None, 0.0, values=np.full(5, 100.0))
        assert session.no_count == 0 and not session.log

    def test_adversarial_stream_has_zero_contract_violations(self):
        """Answer-dependent thresholds around exact truths, d=8, eps=0.3."""
        eps = 0.3
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            rho = _random_density(8, rng)
            ds = collect_povm_snapshots(rho, 20_000, rng)
            cfg = MechanismConfig(N=len(ds), M=40, epsilon=eps, delta=0.05,
                                  B=6.0, ell=30, seed=seed)
            session = ShadowThresholdSession(ds, cfg, rng=rng)
            want_low = True
            for _ in range(40):
                obs = _random_effect(8, rng)
                truth = expectation(rho, obs)
                if want_low and truth + eps < 0.98:
                    theta = truth + eps + rng.uniform(0.0, 0.98 - truth - eps)
                    expected = "Yes"
                else:
                    theta = truth * rng.uniform(0.0, 0.95)
                    expected = "No"
                answer = session.ask(obs, theta)
                assert answer == expected, (
                    f"seed {seed}: truth {truth:.3f} theta {theta:.3f} "
                    f"wanted {expected} got {answer}"
                )
                want_low = answer == "No"  # adapt the next round to the reply

    def test_wrapper_accepts_queries_and_halts(self):
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        rng = np.random.default_rng(139)
        ds = collect_povm_snapshots(rho, 4000, rng)
        cfg = MechanismConfig(N=4000, M=10, epsilon=0.3, delta=0.05,
                              B=3.0, ell=1, seed=0)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        session = ShadowThresholdSession(ds, cfg, rng=rng)
        answers = []
        for _ in range(4):
            answers.append(session.ask(obs, 0.0))
            if session.halted:
                break
        assert answers == ["No", "No"]  # second No exceeds ell=1 and halts

    def test_log_rows_carry_the_session_fields(self, tmp_path):
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        session = self._session(rho, 149, count=2000)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        session.ask(obs, 0.0)
        session.ask(obs, 0.9)
        path = tmp_path / "log.csv"
        write_csv(path, SESSION_LOG_FIELDS, session.log)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == SESSION_LOG_FIELDS
            rows = list(reader)
        assert rows[0]["answer"] == "No"
        assert int(rows[-1]["no_count"]) >= 1


class TestClosenessTeacher:
    def _setup(self, seed, d=2, eps=0.3):
        rng = np.random.default_rng(seed)
        rho = _random_density(d, rng)
        ds = collect_povm_snapshots(rho, 20_000, rng)
        cfg = MechanismConfig(N=len(ds), M=10, epsilon=eps, delta=0.05,
                              B=3.0, ell=4, K=128, seed=seed)
        corr_ds = collect_povm_snapshots(rho, 128 * 128, rng)
        corr_cfg = MechanismConfig(N=len(corr_ds), M=40, epsilon=0.6,
                                   K=128, seed=seed)
        corr = DpMedianSession(corr_ds, corr_cfg, rng=rng, gamma=0.03)
        teacher = ClosenessTeacher(ds, cfg, rng=rng, correction_session=corr)
        return rho, teacher

    def test_exact_guess_passes(self):
        for seed in range(10):
            rho, teacher = self._setup(600 + seed)
            obs = RankOneProjector(np.array([1.0, 0.0]))
            verdict, correction = teacher.check(obs, expectation(rho, obs))
            assert verdict == "Pass" and correction is None

    def test_guess_inside_three_quarters_eps_passes(self):
        rho, teacher = self._setup(611)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        truth = expectation(rho, obs)
        verdict, _ = teacher.check(obs, truth + 0.5 * 0.3)
        assert verdict == "Pass"

    def test_gap_region_accepts_either_verdict(self):
        rho, teacher = self._setup(613)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        truth = expectation(rho, obs)
        verdict, _ = teacher.check(obs, truth + 0.875 * 0.3)
        assert verdict in ("Pass", "Mistake")

    def test_large_error_is_caught_and_corrected(self):
        """Guess off by 2 eps: Mistake, correction lands within eps/4."""
        eps = 0.3
        good = 0
        for seed in range(100):
            rho, teacher = self._setup(700 + seed, eps=eps)
            obs = RankOneProjector(np.array([1.0, 0.0]))
            truth = expectation(rho, obs)
            off = 2 * eps if truth < 0.5 else -2 * eps
            verdict, correction = teacher.check(obs, truth + off)
            assert verdict == "Mistake", f"seed {seed} missed a 2-eps error"
            if abs(correction - truth) <= eps / 4:
                good += 1
        assert good >= 95, f"only {good}/100 corrections within eps/4"

    def test_mistake_budget_halts(self):
        rho, teacher = self._setup(617)
        teacher.cfg = teacher.cfg  # ell=4 from _setup
        obs = RankOneProjector(np.array([1.0, 0.0]))
        for _ in range(4):
            verdict, _ = teacher.check(obs, 0.99 if expectation(rho, obs) < 0.5 else 0.01)
            assert verdict == "Mistake"
        with pytest.raises(Halted):
            teacher.check(obs, 0.99)

    def test_rejects_non_effect_queries(self):
        rho, teacher = self._setup(619)
        with pytest.raises(UnsupportedPair):
            teacher.check(HermitianDense(np.diag([-0.5, 0.5])), 0.5)
        with pytest.raises(UnsupportedPair):
            teacher.check(PauliString("Z"), 0.5)

    def test_scripted_wrapper_and_log(self, tmp_path):
        rho, teacher = self._setup(621)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        truth = expectation(rho, obs)
        teacher.check(obs, truth)
        teacher.check(obs, truth + 0.9)
        assert [row["answer"] for row in teacher.log] == ["Pass", "Mistake"]
        assert teacher.log[1]["correction"] != ""
        path = tmp_path / "teacher.csv"
        write_csv(path, SESSION_LOG_FIELDS, teacher.log)
        with open(path, newline="") as fh:
            assert csv.DictReader(fh).fieldnames == SESSION_LOG_FIELDS

    def test_correction_can_share_the_search_dataset(self):
        rng = np.random.default_rng(631)
        rho = _random_density(2, rng)
        ds = collect_povm_snapshots(rho, 128 * 128, rng)
        cfg = MechanismConfig(N=len(ds), M=10, epsilon=0.3, delta=0.05,
                              B=3.0, ell=4, K=128, seed=0)
        corr_cfg = MechanismConfig(N=len(ds), M=40, epsilon=0.6, K=128, seed=0)
        corr = DpMedianSession(ds, corr_cfg, rng=rng, gamma=0.03)
        teacher = ClosenessTeacher(ds, cfg, rng=rng, correction_session=corr)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        truth = expectation(rho, obs)
        verdict, correction = teacher.check(obs, truth + 0.9)
        assert verdict == "Mistake"
        assert abs(correction - truth) <= 0.3 / 4 + 0.05

    def test_functional_wrapper(self):
        rng = np.random.default_rng(641)
        rho = _random_density(2, rng)
        ds = collect_povm_snapshots(rho, 8000, rng)
        cfg = MechanismConfig(N=8000, M=10, epsilon=0.3, delta=0.05,
                              B=3.0, ell=4, seed=1)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        truth = expectation(rho, obs)
        teacher = ClosenessTeacher(ds, cfg, rng=rng)
        results = [teacher.check(obs, truth) for _ in range(2)]
        assert [v for v, _ in results] == ["Pass", "Pass"]

