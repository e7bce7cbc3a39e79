"""Tests for states, observables, expectations, transcripts and session logs."""

import csv

import numpy as np
import pytest

from adaptive_shadows.core import (
    RECORD_FIELDS,
    DenseState,
    DiagonalState,
    HermitianDense,
    MechanismConfig,
    PauliString,
    RankOneProjector,
    Round,
    SingleQubitZ,
    ZParity,
    dense_matrix,
    expectation,
    spawn_rngs,
    write_csv,
)
from adaptive_shadows.errors import (
    DimensionMismatch,
    NonDiagonalObservableOnDiagonalState,
)
from adaptive_shadows.mechanisms import DpMedianSession, PmwSession, SqSession
from adaptive_shadows.shadows import collect_povm_snapshots
from adaptive_shadows.threshold_search import (
    ClosenessTeacher,
    ShadowThresholdSession,
)


class TestDiagonalState:
    """Product distributions over bitstrings."""

    def test_uniform_single_z_is_zero(self):
        """A fair coin has Z expectation exactly 0."""
        state = DiagonalState(4)
        assert expectation(state, SingleQubitZ(1)) == 0.0

    def test_pinned_coin_z_is_minus_one(self):
        state = DiagonalState(2, probs=[1.0, 0.5])
        assert expectation(state, SingleQubitZ(0)) == -1.0
        assert expectation(state, SingleQubitZ(1)) == 0.0

    def test_empty_parity_is_one(self):
        """Parity over no coordinates is the identity: expectation 1."""
        state = DiagonalState(3)
        assert expectation(state, ZParity(())) == 1.0

    def test_pair_parity_uniform(self):
        """Two independent fair coins: E[(-1)^(b0+b1)] = 0."""
        state = DiagonalState(2)
        assert expectation(state, ZParity((0, 1))) == 0.0

    def test_pair_parity_pinned(self):
        # both coins pinned to 1: parity (-1)^2 = +1
        state = DiagonalState(2, probs=[1.0, 1.0])
        assert expectation(state, ZParity((0, 1))) == 1.0

    def test_diagonal_pauli_string_allowed(self):
        state = DiagonalState(2, probs=[1.0, 0.0])
        assert expectation(state, PauliString("ZI")) == -1.0
        assert expectation(state, PauliString("IZ")) == 1.0

    def test_nondiagonal_observable_rejected(self):
        state = DiagonalState(2)
        with pytest.raises(NonDiagonalObservableOnDiagonalState):
            expectation(state, PauliString("XI"))

    def test_probs_validation(self):
        with pytest.raises(ValueError):
            DiagonalState(2, probs=[0.5, 1.5])
        with pytest.raises(ValueError):
            DiagonalState(0)

    def test_sampler_matches_marginals(self):
        """Monte-Carlo marginals agree with the exact evaluator within 5 SE."""
        rng = np.random.default_rng(42)
        state = DiagonalState(3, probs=[0.2, 0.5, 0.9])
        draws = state.sample_base(rng, 10_000)
        for i, p in enumerate([0.2, 0.5, 0.9]):
            se = np.sqrt(p * (1 - p) / 10_000)
            emp = draws[:, i].mean()
            assert abs(emp - p) < 5 * se + 1e-12, (
                f"coordinate {i}: empirical {emp} vs exact {p}"
            )

    def test_uniform_three_bit_chi_square(self):
        """All 8 strings appear with probability 1/8 (chi-square over 1e5)."""
        rng = np.random.default_rng(7)
        state = DiagonalState(3)
        n = 100_000
        b = state.sample_base(rng, n).astype(int)
        words = (b[:, 0] << 2) | (b[:, 1] << 1) | b[:, 2]
        counts = np.bincount(words, minlength=8)
        chi2 = float(((counts - n / 8) ** 2 / (n / 8)).sum())
        # 7 degrees of freedom; 40 is far into the tail
        assert chi2 < 40.0, f"chi-square statistic {chi2} too large"

    def test_seeded_stream_is_deterministic(self):
        state = DiagonalState(5)
        a = state.sample_base(np.random.default_rng(3), 4)
        b = state.sample_base(np.random.default_rng(3), 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("probs", [None, [0.1, 0.5, 0.5, 0.9, 1.0]])
    def test_batched_draw_equals_the_per_draw_loop(self, probs):
        """One (count, n) block is byte-equal to count draws of n uniforms
        and leaves the generator in the same state."""
        state = DiagonalState(5, probs=probs)
        p = np.full(5, 0.5) if probs is None else np.asarray(probs)
        batched_rng = np.random.default_rng(19)
        loop_rng = np.random.default_rng(19)
        batch = state.sample_base(batched_rng, 1000)
        loop = np.stack([(loop_rng.random(5) < p).astype(np.int8)
                         for _ in range(1000)])
        assert batch.shape == (1000, 5) and batch.dtype == np.int8
        assert np.array_equal(batch, loop)
        assert batched_rng.random() == loop_rng.random()


class TestDenseState:
    def test_projector_on_ground_state(self):
        """|0><0| measured with the |0> projector gives exactly 1."""
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        obs = RankOneProjector(np.array([1.0, 0.0]))
        assert expectation(rho, obs) == pytest.approx(1.0, abs=1e-12)

    def test_identity_expectation_is_one(self):
        rng = np.random.default_rng(0)
        rho = _random_density(4, rng)
        assert expectation(rho, PauliString("II")) == pytest.approx(1.0, abs=1e-10)

    def test_validation_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            DenseState(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            DenseState(np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(ValueError):
            DenseState(np.diag([1.5, -0.5]))  # not PSD
        with pytest.raises(DimensionMismatch):
            DenseState(np.zeros((2, 3)))

    def test_expectation_matches_eigenbasis_sum(self):
        """tr(O rho) equals sum_k lambda_k <e_k|O|e_k> at d=8."""
        rng = np.random.default_rng(11)
        rho = _random_density(8, rng)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        obs_mat = (g + g.conj().T) / 2
        obs_mat /= np.abs(np.linalg.eigvalsh(obs_mat)).max() * 1.001
        obs = HermitianDense(obs_mat)
        lam, vecs = np.linalg.eigh(rho.matrix)
        brute = sum(
            lam[k] * np.real(vecs[:, k].conj() @ obs_mat @ vecs[:, k])
            for k in range(8)
        )
        assert expectation(rho, obs) == pytest.approx(brute, abs=1e-9)

    def test_n_qubits_requires_power_of_two(self):
        rho = DenseState(np.eye(3) / 3)
        with pytest.raises(DimensionMismatch):
            _ = rho.n_qubits


class TestObservables:
    def test_pauli_string_validation(self):
        with pytest.raises(ValueError):
            PauliString("XQ")
        with pytest.raises(ValueError):
            PauliString("")
        assert PauliString("XIZ").support == (0, 2)

    def test_projector_norm_validation(self):
        with pytest.raises(ValueError):
            RankOneProjector(np.array([1.0, 1.0]))

    def test_hermitian_dense_spectral_cap(self):
        with pytest.raises(ValueError):
            HermitianDense(np.diag([2.0, 0.0]))
        obs = HermitianDense(np.diag([1.0, -1.0]))
        assert obs.frobenius_sq() == pytest.approx(2.0)

    def test_zparity_sorts_and_dedups(self):
        assert ZParity((2, 0, 2)).bits == (0, 2)

    def test_dense_matrix_qubit_order(self):
        """Symbol k acts on qubit k; qubit 0 is the most significant bit."""
        zi = dense_matrix(PauliString("ZI"), 2)
        assert np.allclose(np.diag(zi), [1, 1, -1, -1])
        assert np.allclose(dense_matrix(SingleQubitZ(0), 2), zi)
        iz = dense_matrix(PauliString("IZ"), 2)
        assert np.allclose(np.diag(iz), [1, -1, 1, -1])
        zz = dense_matrix(ZParity((0, 1)), 2)
        assert np.allclose(np.diag(zz), [1, -1, -1, 1])


class TestTranscripts:
    def test_round_records_truth(self):
        r = Round(SingleQubitZ(0), 0.25, 0.5)
        assert r.truth == 0.5 and r.answer == 0.25


class TestMechanismConfig:
    def test_defaults_are_valid(self):
        cfg = MechanismConfig()
        assert cfg.N >= 1 and 0 < cfg.delta < 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"N": 0},
            {"M": 0},
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"delta": 0.0},
            {"delta": 1.0},
            {"B": -0.5},
            {"ell": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MechanismConfig(**kwargs)


class TestSpawnRngs:
    def test_deterministic_tree(self):
        a = spawn_rngs(123, 4)
        b = spawn_rngs(123, 4)
        for x, y in zip(a, b):
            assert x.integers(0, 1 << 30) == y.integers(0, 1 << 30)

    def test_streams_differ(self):
        rngs = spawn_rngs(5, 3)
        draws = {int(r.integers(0, 1 << 62)) for r in rngs}
        assert len(draws) == 3, "spawned generators must be independent"

    def test_prefix_stability(self):
        """The first k generators do not depend on how many were spawned."""
        a = spawn_rngs(9, 2)
        b = spawn_rngs(9, 6)
        assert a[0].integers(0, 1 << 30) == b[0].integers(0, 1 << 30)
        assert a[1].integers(0, 1 << 30) == b[1].integers(0, 1 << 30)


# one builder per session: (session, calls, expected (noise_scale,
# budget_remaining) per row, given the logged rows)

_E0 = RankOneProjector(np.array([1.0, 0.0]))


def _povm(count, seed):
    rng = np.random.default_rng(seed)
    rho = DenseState(np.diag([0.8, 0.2]).astype(complex))
    return collect_povm_snapshots(rho, count, rng), rng


def _dp_median_calls():
    ds, rng = _povm(64, 3)
    s = DpMedianSession(ds, MechanismConfig(N=64, M=3, epsilon=0.4, K=8), rng=rng)
    return s, [lambda: s.query(_E0)] * 3, lambda rows: [(5.0, 2), (5.0, 1), (5.0, 0)]


def _pmw_calls():
    """A repeat (cache hit) and a constant query log noise scale 0."""
    cfg = MechanismConfig(N=100, M=4, epsilon=1.0, ell=3)
    s = PmwSession(np.full(8, 1 / 8), 100, cfg, rng=np.random.default_rng(5))
    v = np.arange(8.0)
    queries = [v, v, np.ones(8), -v]

    def expected(rows):
        assert s.answered == 3 and s.updates == 0
        assert rows[1]["answer"] == rows[0]["answer"]
        return [(s.noise_scale, 3), (0.0, 3), (0.0, 3), (s.noise_scale, 3)]
    return s, [lambda q=q: s.query(q) for q in queries], expected


def _sq_calls():
    s = SqSession(np.ones(50), MechanismConfig(N=50, M=3, epsilon=0.5, delta=0.1))
    return (s, [lambda: s.query(np.ones(50))] * 3,
            lambda rows: [(s.sigma, 2), (s.sigma, 1), (s.sigma, 0)])


def _threshold_calls():
    ds, rng = _povm(2000, 7)
    cfg = MechanismConfig(N=2000, M=4, epsilon=0.3, B=3.0, ell=2)
    s = ShadowThresholdSession(ds, cfg, rng=rng)
    calls = [lambda t=t: s.ask(_E0, t) for t in (0.0, 1.2, 0.0)]

    def expected(rows):
        assert [r["answer"] for r in rows] == ["No", "Yes", "No"]
        return [(s.svt.noise_scale, b) for b in (2, 2, 1)]  # ell + 1 - no_count
    return s, calls, expected


def _teacher_calls():
    ds, rng = _povm(4000, 11)
    cfg = MechanismConfig(N=4000, M=4, epsilon=0.3, B=3.0, ell=3)
    s = ClosenessTeacher(ds, cfg, rng=rng)
    calls = [lambda g=g: s.check(_E0, g) for g in (0.8, 0.1, 0.8)]

    def expected(rows):
        assert [r["answer"] for r in rows] == ["Pass", "Mistake", "Pass"]
        return [(s.search.svt.noise_scale, b) for b in (3, 2, 2)]  # ell - mistakes
    return s, calls, expected


class TestQueryLog:
    """One ``RECORD_FIELDS`` row per call, whatever the session."""

    @pytest.mark.parametrize("build", [
        _dp_median_calls, _pmw_calls, _sq_calls, _threshold_calls,
        _teacher_calls,
    ], ids=["dp_median", "pmw", "sq", "threshold", "teacher"])
    def test_every_call_leaves_one_row(self, build, tmp_path):
        session, calls, expected = build()
        for call in calls:
            call()
        rows = session.log
        assert [r["query_id"] for r in rows] == list(range(len(calls)))
        assert [(r["noise_scale"], r["budget_remaining"])
                for r in rows] == expected(rows)
        path = tmp_path / "log.csv"
        write_csv(path, RECORD_FIELDS, rows)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == RECORD_FIELDS
            back = list(reader)
        assert back == [{k: str(v) for k, v in r.items()} for r in rows]


def _random_density(d: int, rng: np.random.Generator) -> DenseState:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DenseState(m / np.trace(m).real)
