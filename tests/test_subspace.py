"""Subspace bookkeeping and the mistake-bounded online learner."""

import math

import numpy as np
import pytest

from adaptive_shadows.core import (
    DenseState,
    HermitianDense,
    MechanismConfig,
    PauliString,
    RankOneProjector,
    expectation,
)
from adaptive_shadows.errors import (
    DimensionMismatch,
    MistakeBudgetExceeded,
    NegativeResidualTrace,
    UnsupportedPair,
)
from adaptive_shadows.subspace import (
    GS_CUTOFF,
    ExactTeacher,
    ExactTomograph,
    Subspace,
    frobenius_mistake_cap,
    low_rank_mistake_cap,
    pad_state,
    run_bounded_frobenius,
    run_low_rank,
    run_single_rank,
    single_rank_mistake_cap,
)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)


def _random_density(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DenseState(m / np.trace(m).real)


def _heavy_state(d, rng, weights):
    """Density matrix with the given leading eigenvalues in a random basis."""
    w = np.zeros(d)
    w[: len(weights)] = weights
    w[len(weights):] = (1.0 - sum(weights)) / (d - len(weights))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    return DenseState((q * w) @ q.conj().T), q


class TestSubspace:
    def test_project_splits_the_superposition(self):
        sub = Subspace(2).extend([E0])
        coords, perp = sub.project((E0 + E1) / np.sqrt(2))
        assert coords.shape == (1,)
        assert abs(coords[0] - 1 / np.sqrt(2)) < 1e-12
        assert abs(perp - 1 / np.sqrt(2)) < 1e-12

    def test_in_span_vector_has_no_remainder(self):
        sub = Subspace(2).extend([E0, E1])
        _, perp = sub.project((E0 - 1j * E1) / np.sqrt(2))
        assert perp < 1e-12

    def test_empty_subspace_projects_to_zero(self):
        sub = Subspace(4)
        coords, perp = sub.project(np.array([0, 0, 1, 0], dtype=complex))
        assert coords.shape == (0,)
        assert abs(perp - 1.0) < 1e-12

    def test_dependent_vector_does_not_grow_the_basis(self):
        sub = Subspace(2).extend([E0]).extend([E0])
        assert sub.k == 1

    def test_gram_schmidt_produces_the_orthogonal_complement(self):
        sub = Subspace(2).extend([E0]).extend([(E0 + E1) / np.sqrt(2)])
        assert sub.k == 2
        assert abs(abs(sub.basis[1] @ E1.conj()) - 1.0) < 1e-10

    def test_orthogonal_batch_extends_in_order(self):
        sub = Subspace(4).extend(np.eye(4, dtype=complex)[:3])
        assert sub.k == 3
        for i in range(3):
            assert abs(sub.basis[i][i] - 1.0) < 1e-12

    def test_basis_stays_orthonormal_under_random_extends(self):
        rng = np.random.default_rng(11)
        sub = Subspace(8)
        for _ in range(6):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            sub.extend([v / np.linalg.norm(v)])
        Phi = sub.basis_matrix()
        gram = Phi.conj() @ Phi.T
        assert np.abs(gram - np.eye(sub.k)).max() < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Subspace(2).project(np.ones(3, dtype=complex))
        with pytest.raises(DimensionMismatch):
            Subspace(2).extend([np.ones(3, dtype=complex)])


class TestPadState:
    def test_single_direction_pads_to_a_qubit(self):
        rho = DenseState(np.diag([0.3, 0.7]).astype(complex))
        sub = Subspace(2).extend([E0])
        padded = pad_state(sub, rho)
        assert padded.dim == 2
        assert np.allclose(padded.matrix, np.diag([0.3, 0.7]), atol=1e-12)
        assert padded.residual == pytest.approx(0.7, abs=1e-12)

    def test_full_span_leaves_zero_residual(self):
        rng = np.random.default_rng(13)
        rho = _random_density(2, rng)
        sub = Subspace(2).extend([E0, E1])
        padded = pad_state(sub, rho)
        assert padded.residual == pytest.approx(0.0, abs=1e-9)
        assert padded.dim == 4  # k=2 needs one extra slot, rounded to a register

    def test_padded_matrix_is_a_state(self):
        rng = np.random.default_rng(17)
        rho = _random_density(8, rng)
        sub = Subspace(8)
        for _ in range(3):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            sub.extend([v / np.linalg.norm(v)])
        padded = pad_state(sub, rho)
        w = np.linalg.eigvalsh(padded.matrix)
        assert w.min() > -1e-9
        assert np.trace(padded.matrix).real == pytest.approx(1.0, abs=1e-9)

    def test_block_identity_on_in_span_vectors(self):
        """Quadratic forms agree between rho and the padded state."""
        rng = np.random.default_rng(19)
        rho = _random_density(8, rng)
        sub = Subspace(8)
        for step in range(3):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            sub.extend([v / np.linalg.norm(v)])
            padded = pad_state(sub, rho)
            for _ in range(5):
                c = rng.normal(size=sub.k) + 1j * rng.normal(size=sub.k)
                c /= np.linalg.norm(c)
                psi = sub.basis_matrix().T @ c
                direct = np.real(psi.conj() @ rho.matrix @ psi)
                embedded = np.zeros(padded.dim, dtype=complex)
                embedded[: sub.k] = c
                via_pad = np.real(embedded.conj() @ padded.matrix @ embedded)
                assert abs(direct - via_pad) < 1e-9

    def test_broken_basis_is_detected(self):
        """A non-orthonormal basis inflates the block trace past 1."""
        rho = DenseState(np.diag([1.0, 0.0]).astype(complex))
        sub = Subspace(2)
        sub.basis = [E0, E0]  # corrupt on purpose
        with pytest.raises(NegativeResidualTrace):
            pad_state(sub, rho)

    def test_empty_subspace_rejected(self):
        with pytest.raises(ValueError):
            pad_state(Subspace(2), DenseState(np.eye(2, dtype=complex) / 2))


class TestMistakeCaps:
    def test_frozen_values(self):
        assert single_rank_mistake_cap(0.2) == 711
        assert low_rank_mistake_cap(0.3, 2) == 1264
        assert frobenius_mistake_cap(0.2, 1.0) == 284444

    def test_formula_shapes(self):
        assert low_rank_mistake_cap(0.2, 1) == single_rank_mistake_cap(0.2)
        assert frobenius_mistake_cap(0.3, 4.0) == int(
            4096.0 * 16.0 / (9.0 * 0.3**4)
        )


class TestSingleRankLearner:
    def test_repeated_projector_costs_at_most_one_mistake(self):
        rng = np.random.default_rng(23)
        rho = _random_density(4, rng)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        queries = [RankOneProjector(v)] * 6
        cfg = MechanismConfig(N=10, M=6, epsilon=0.25, seed=0)
        run = run_single_rank(rho, queries, cfg, ExactTeacher(rho, 0.25))
        assert run.ledger.mistake_count <= 1
        for r in run.transcript.rounds:
            assert abs(r.answer - r.truth) <= 0.25

    def test_flat_state_needs_no_mistakes(self):
        rng = np.random.default_rng(29)
        rho = DenseState(np.eye(8, dtype=complex) / 8)
        queries = []
        for _ in range(10):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            queries.append(RankOneProjector(v / np.linalg.norm(v)))
        cfg = MechanismConfig(N=10, M=10, epsilon=0.25, seed=1)
        run = run_single_rank(rho, queries, cfg, ExactTeacher(rho, 0.25))
        assert run.ledger.mistake_count == 0

    def test_heavy_direction_count_obeys_the_inverse_epsilon_cap(self):
        """Directions with mass above eps: at most 1/eps of them get added."""
        eps = 0.25
        rng = np.random.default_rng(31)
        rho, q = _heavy_state(8, rng, [0.3, 0.3, 0.3])
        queries = [RankOneProjector(q[:, j]) for j in range(8)]
        cfg = MechanismConfig(N=10, M=8, epsilon=eps, seed=2)
        run = run_single_rank(rho, queries, cfg, ExactTeacher(rho, eps))
        heavy = [w for w in run.ledger.witnesses if w is not None and w > eps]
        assert len(heavy) <= int(1.0 / eps)
        assert sum(w for w in run.ledger.witnesses if w) <= 1.0 + 1e-9

    def test_witness_masses_sum_below_the_trace(self):
        rng = np.random.default_rng(37)
        rho, q = _heavy_state(16, rng, [0.25, 0.2, 0.15, 0.1])
        queries = []
        for j in range(16):
            mix = q[:, j] + 0.2 * (rng.normal(size=16) + 1j * rng.normal(size=16))
            queries.append(RankOneProjector(mix / np.linalg.norm(mix)))
        cfg = MechanismConfig(N=10, M=16, epsilon=0.2, seed=3)
        run = run_single_rank(rho, queries, cfg, ExactTeacher(rho, 0.2))
        assert sum(w for w in run.ledger.witnesses if w) <= 1.0 + 1e-9

    def test_projector_queries_required(self):
        rho = DenseState(np.eye(2, dtype=complex) / 2)
        cfg = MechanismConfig(N=10, M=2, epsilon=0.25, seed=4)
        with pytest.raises(UnsupportedPair):
            run_single_rank(rho, [HermitianDense(np.eye(2) / 2)], cfg,
                            ExactTeacher(rho, 0.25))

    def test_budget_breach_raises(self):
        class _AlwaysWrong:
            def check(self, obs, guess):
                return "Mistake", None

        rng = np.random.default_rng(41)
        rho = _random_density(4, rng)
        queries = [RankOneProjector(np.eye(4, dtype=complex)[j]) for j in range(3)]
        cfg = MechanismConfig(N=10, M=3, epsilon=5.0, seed=5)  # cap = 1
        assert single_rank_mistake_cap(5.0) == 1
        with pytest.raises(MistakeBudgetExceeded):
            run_single_rank(rho, queries, cfg, _AlwaysWrong())


class TestFrobeniusLearner:
    def test_pure_state_purity_query(self):
        """O = rho itself with pure rho: truth 1, answered within eps."""
        rng = np.random.default_rng(47)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        rho = DenseState(np.outer(v, v.conj()))
        cfg = MechanismConfig(N=10, M=4, epsilon=0.3, B=1.0, seed=7)
        queries = [HermitianDense(rho.matrix)] * 4
        run = run_bounded_frobenius(rho, queries, cfg, ExactTeacher(rho, 0.3))
        for r in run.transcript.rounds:
            assert r.truth == pytest.approx(1.0, abs=1e-9)
            assert abs(r.answer - r.truth) <= 0.3

    def test_every_mistake_shows_a_large_projection_gap(self):
        """Witnesses on Mistake rounds exceed 3 eps^2 / 32B."""
        eps, B = 0.25, 1.0
        floor_gap = 3.0 * eps**2 / (32.0 * B)
        rng = np.random.default_rng(53)
        rho, q = _heavy_state(8, rng, [0.4, 0.25])
        queries = [HermitianDense(np.outer(q[:, j], q[:, j].conj()))
                   for j in range(8)]
        cfg = MechanismConfig(N=10, M=8, epsilon=eps, B=B, seed=8)
        run = run_bounded_frobenius(rho, queries, cfg, ExactTeacher(rho, eps))
        assert run.ledger.mistake_count >= 2, "stream was built to force mistakes"
        for w in run.ledger.witnesses:
            assert w is not None and w > floor_gap, f"witness {w}"
        for r in run.transcript.rounds:
            assert abs(r.answer - r.truth) <= eps

    def test_truncation_keeps_at_most_4b_over_eps_sq(self):
        rho = DenseState(np.eye(4, dtype=complex) / 4)
        cfg = MechanismConfig(N=10, M=1, epsilon=1.0, B=0.1, seed=9)
        spread = HermitianDense(np.diag([0.8, -0.8, 0.0, 0.0]))
        with pytest.raises(ValueError):
            run_bounded_frobenius(rho, [spread], cfg, ExactTeacher(rho, 1.0))


class TestLowRankLearner:
    def test_rank_one_specializes_to_single_rank(self):
        rng = np.random.default_rng(61)
        rho, q = _heavy_state(8, rng, [0.4, 0.3])
        vecs = [q[:, j] for j in range(5)]
        cfg = MechanismConfig(N=10, M=5, epsilon=0.25, seed=10)
        single = run_single_rank(
            rho, [RankOneProjector(v) for v in vecs], cfg,
            ExactTeacher(rho, 0.25))
        low = run_low_rank(
            rho, [HermitianDense(np.outer(v, v.conj())) for v in vecs], cfg,
            ExactTeacher(rho, 0.25), R=1)
        assert single.ledger.mistake_count == low.ledger.mistake_count
        for a, b in zip(single.transcript.rounds, low.transcript.rounds):
            assert abs(a.answer - b.answer) < 1e-9

    def test_rank_cap_is_validated(self):
        rho = DenseState(np.eye(4, dtype=complex) / 4)
        cfg = MechanismConfig(N=10, M=1, epsilon=0.3, seed=11)
        rank2 = HermitianDense(np.diag([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(ValueError):
            run_low_rank(rho, [rank2], cfg, ExactTeacher(rho, 0.3), R=1)

    def test_rank_two_stream_is_answered_within_eps(self):
        rng = np.random.default_rng(67)
        rho, q = _heavy_state(8, rng, [0.35, 0.3, 0.2])
        queries = []
        for j in range(0, 6, 2):
            m = 0.7 * np.outer(q[:, j], q[:, j].conj())
            m += 0.4 * np.outer(q[:, j + 1], q[:, j + 1].conj())
            queries.append(HermitianDense(m))
        cfg = MechanismConfig(N=10, M=3, epsilon=0.3, seed=12)
        run = run_low_rank(rho, queries, cfg, ExactTeacher(rho, 0.3), R=2)
        for r in run.transcript.rounds:
            assert abs(r.answer - r.truth) <= 0.3


class TestProjectionContraction:
    def test_frobenius_norm_never_grows(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            sub = Subspace(16)
            for _ in range(5):
                v = rng.normal(size=16) + 1j * rng.normal(size=16)
                sub.extend([v / np.linalg.norm(v)])
            Phi = sub.basis_matrix()
            P = Phi.T @ Phi.conj()
            a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            assert (np.linalg.norm(P @ a @ P) <=
                    np.linalg.norm(a) + 1e-9)


class TestEndToEnd:
    def test_adaptive_streams_stay_within_eps(self):
        """Answer-dependent probes at d=16: every answer within eps."""
        eps = 0.3
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            rho, q = _heavy_state(16, rng, [0.3, 0.25, 0.2])
            cfg = MechanismConfig(N=10, M=20, epsilon=eps, seed=seed)
            teacher = ExactTeacher(rho, eps)

            queries = []
            last_mistakes = 0

            def stream():
                nonlocal last_mistakes
                for k in range(20):
                    if teacher.mistakes > last_mistakes or not queries:
                        j = rng.integers(0, 16)  # jump after each correction
                        v = q[:, j] + 0.3 * (rng.normal(size=16)
                                             + 1j * rng.normal(size=16))
                    else:
                        v = queries[-1] + 0.1 * (rng.normal(size=16)
                                                 + 1j * rng.normal(size=16))
                    last_mistakes = teacher.mistakes
                    v = v / np.linalg.norm(v)
                    queries.append(v)
                    yield RankOneProjector(v)

            run = run_single_rank(rho, stream(), cfg, teacher)
            for r in run.transcript.rounds:
                assert abs(r.answer - r.truth) <= eps, f"seed {seed}"
            assert run.ledger.mistake_count <= single_rank_mistake_cap(eps)
