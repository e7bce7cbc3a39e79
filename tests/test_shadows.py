"""Snapshot generation, estimators, norm bounds, and serialization."""

import struct

import numpy as np
import pytest

from adaptive_shadows.core import (
    DenseState,
    DiagonalState,
    HermitianDense,
    PauliString,
    RankOneProjector,
    SingleQubitZ,
    ZParity,
    expectation,
)
from adaptive_shadows.errors import (
    DimensionMismatch,
    EmptyDataset,
    IndivisibleBatching,
    MalformedSnapshots,
    NonLocalObservable,
    UnsupportedPair,
)
from adaptive_shadows.mechanisms import query_value_table
from adaptive_shadows.shadows import (
    _PROJECTORS,
    PauliSnapshot,
    PovmSnapshot,
    ShadowDataset,
    _contract_symbols,
    collect_pauli_snapshots,
    collect_pauli_snapshots_dense,
    collect_povm_snapshots,
    empirical_mean,
    load_pauli_text,
    load_povm_binary,
    median_of_means,
    povm_moment_bound,
    povm_tail_bound,
    save_pauli_text,
    save_povm_binary,
    shadow_norm_bound,
    snapshot_values,
)

_EIG = {
    (0, 0): np.array([1, 1]) / np.sqrt(2),
    (0, 1): np.array([1, -1]) / np.sqrt(2),
    (1, 0): np.array([1, 1j]) / np.sqrt(2),
    (1, 1): np.array([1, -1j]) / np.sqrt(2),
    (2, 0): np.array([1, 0]),
    (2, 1): np.array([0, 1]),
}


def _random_density(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DenseState(m / np.trace(m).real)


# |e><e| per symbol id 2*basis + outcome
_REF_PROJECTORS = np.array([np.outer(_EIG[divmod(s, 2)], _EIG[divmod(s, 2)].conj())
                            for s in range(6)])


def _kron_reference(mat, n, table):
    """tr(M (x)_q table[s_q]) per code by explicit Kronecker products.

    Qubit 0 is the leading tensor factor and s_0 the least significant
    base-6 digit of the code.
    """
    out = np.empty(6**n, dtype=complex)
    for code in range(6**n):
        op = np.ones((1, 1), dtype=complex)
        for q in range(n):
            op = np.kron(op, table[(code // 6**q) % 6])
        out[code] = np.trace(mat @ op)
    return out


class TestPauliSnapshots:
    """Random-basis single-copy measurements."""

    def test_z_basis_reports_the_sampled_bit(self):
        """On a pinned diagonal state, every Z-basis cell shows the pinned bit."""
        state = DiagonalState(3, probs=[1.0, 0.0, 1.0])
        rng = np.random.default_rng(5)
        ds = collect_pauli_snapshots(state, 2000, rng)
        pinned = np.array([1, 0, 1], dtype=np.uint8)
        for q in range(3):
            mask = ds.bases[:, q] == 2
            assert mask.any()
            assert np.all(ds.outcomes[mask, q] == pinned[q]), (
                f"qubit {q}: Z outcomes must equal the pinned bit {pinned[q]}"
            )

    def test_basis_marginal_is_uniform(self):
        state = DiagonalState(2)
        rng = np.random.default_rng(17)
        ds = collect_pauli_snapshots(state, 30_000, rng)
        cells = ds.bases.size
        se = np.sqrt((1 / 3) * (2 / 3) / cells)
        for code in (0, 1, 2):
            frac = float((ds.bases == code).mean())
            assert abs(frac - 1 / 3) < 5 * se, f"basis {code} fraction {frac}"

    def test_plus_state_x_basis_is_deterministic(self):
        """X measurement of |+> gives outcome 0 every time."""
        plus = DenseState(np.full((2, 2), 0.5, dtype=complex))
        rng = np.random.default_rng(3)
        ds = collect_pauli_snapshots(plus, 300, rng)
        x_rows = ds.bases[:, 0] == 0
        assert x_rows.sum() > 50
        assert np.all(ds.outcomes[x_rows, 0] == 0)

    def test_dense_states_are_capped_at_seven_qubits(self):
        """The Born-table sampler enumerates 3^n bases; 8 qubits is refused."""
        rho = DenseState(np.eye(256, dtype=complex) / 256)
        with pytest.raises(DimensionMismatch):
            collect_pauli_snapshots(rho, 10, np.random.default_rng(4))

    def test_dense_batch_matches_exact_born_table(self):
        """Empirical (basis, outcome) cells match kron-built Born probabilities."""
        rng = np.random.default_rng(23)
        rho = _random_density(4, rng)
        n = 90_000
        ds = collect_pauli_snapshots_dense(rho, n, rng)
        for b0 in range(3):
            for b1 in range(3):
                for o0 in range(2):
                    for o1 in range(2):
                        v = np.kron(_EIG[(b0, o0)], _EIG[(b1, o1)])
                        p = np.real(v.conj() @ rho.matrix @ v) / 9.0
                        mask = (
                            (ds.bases[:, 0] == b0)
                            & (ds.bases[:, 1] == b1)
                            & (ds.outcomes[:, 0] == o0)
                            & (ds.outcomes[:, 1] == o1)
                        )
                        emp = mask.mean()
                        se = np.sqrt(max(p * (1 - p), 1e-12) / n)
                        assert abs(emp - p) < 5 * se + 1e-9, (
                            f"cell ({b0}{b1},{o0}{o1}): {emp} vs {p}"
                        )


def _one_snapshot_value(snap, obs) -> float:
    (value,) = snapshot_values(ShadowDataset.from_pauli([snap]), obs)
    return value


class TestSymbolContraction:
    """Per-qubit sweeps against the 6-symbol tables, checked by Kronecker products."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_query_value_table_matches_kron_reference(self, n):
        rng = np.random.default_rng(60 + n)
        g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        h = (g + g.conj().T) / 2
        obs = HermitianDense(h / np.abs(np.linalg.eigvalsh(h)).max())
        atoms = 3.0 * _REF_PROJECTORS - np.eye(2)
        ref = _kron_reference(obs.matrix, n, atoms)
        assert np.abs(query_value_table(obs, n) - ref).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projector_stack_matches_kron_reference(self, n):
        """The dense sampler's Born rows tr(rho (x)_q |e><e|), before reordering."""
        assert np.abs(_PROJECTORS - _REF_PROJECTORS).max() <= 1e-12
        rho = _random_density(2**n, np.random.default_rng(70 + n))
        t = _contract_symbols(rho.matrix, n, _PROJECTORS)
        got = t.transpose(tuple(reversed(range(n)))).reshape(-1)
        ref = _kron_reference(rho.matrix, n, _REF_PROJECTORS)
        assert np.abs(got - ref).max() <= 1e-12


class TestSnapshotExpectation:
    def test_matching_z_basis_gives_plus_three(self):
        snap = PauliSnapshot(
            np.array([2, 0], dtype=np.uint8), np.array([0, 1], dtype=np.uint8)
        )
        assert _one_snapshot_value(snap, SingleQubitZ(0)) == 3.0
        snap2 = PauliSnapshot(
            np.array([2], dtype=np.uint8), np.array([1], dtype=np.uint8)
        )
        assert _one_snapshot_value(snap2, SingleQubitZ(0)) == -3.0

    def test_mismatched_basis_is_fair_pm_three(self):
        """Non-Z cells contribute a +-3 coin with mean 0."""
        state = DiagonalState(1)
        rng = np.random.default_rng(29)
        ds = collect_pauli_snapshots(state, 100_000, rng)
        vals = snapshot_values(ds, SingleQubitZ(0))
        mismatch = vals[ds.bases[:, 0] != 2]
        assert set(np.unique(mismatch)) == {-3.0, 3.0}
        se = 3.0 / np.sqrt(len(mismatch))
        assert abs(mismatch.mean()) < 5 * se

    def test_identity_is_one(self):
        snap = PauliSnapshot(
            np.array([0, 1], dtype=np.uint8), np.array([1, 1], dtype=np.uint8)
        )
        assert _one_snapshot_value(snap, ZParity(())) == 1.0

    def test_magnitude_is_three_to_the_k(self):
        snap = PauliSnapshot(
            np.array([2, 2, 1], dtype=np.uint8),
            np.array([1, 0, 1], dtype=np.uint8),
        )
        val = _one_snapshot_value(snap, ZParity((0, 1, 2)))
        assert abs(val) == 27.0, f"3-local magnitude must be 27, got {val}"

    def test_support_beyond_the_locality_cap_is_refused(self):
        ds = collect_pauli_snapshots(DiagonalState(12), 4,
                                     np.random.default_rng(5))
        with pytest.raises(NonLocalObservable):
            snapshot_values(ds, ZParity(tuple(range(11))))

    def test_support_beyond_the_snapshot_width_is_refused(self):
        ds = collect_pauli_snapshots(DiagonalState(3), 4,
                                     np.random.default_rng(6))
        with pytest.raises(DimensionMismatch):
            snapshot_values(ds, ZParity((1, 3)))


class TestPovmSnapshots:
    def test_ground_state_direction_implied_matrix(self):
        snap = PovmSnapshot(np.array([1.0, 0.0], dtype=complex))
        assert np.allclose(snap.implied_matrix(), np.diag([2.0, -1.0]))

    def test_implied_trace_is_one(self):
        rng = np.random.default_rng(31)
        rho = _random_density(4, rng)
        for snap in collect_povm_snapshots(rho, 10, rng):
            assert np.trace(snap.implied_matrix()).real == pytest.approx(1.0)

    def test_mean_snapshot_reconstructs_the_state(self):
        """Entrywise unbiasedness of the implied matrices at d=4."""
        rng = np.random.default_rng(37)
        rho = _random_density(4, rng)
        ds = collect_povm_snapshots(rho, 30_000, rng)
        outer = np.einsum("bi,bj->bij", ds.vectors, ds.vectors.conj())
        implied = 5.0 * outer - np.eye(4)
        mean = implied.mean(axis=0)
        se = implied.std(axis=0) / np.sqrt(len(ds))
        assert np.all(np.abs(mean - rho.matrix) < 5 * se + 1e-9)

    def test_maximally_mixed_direction_is_haar(self):
        """For rho = I/d the accepted direction density is uniform."""
        rho = DenseState(np.eye(2, dtype=complex) / 2)
        rng = np.random.default_rng(41)
        ds = collect_povm_snapshots(rho, 20_000, rng)
        # |<v|0>|^2 is Uniform[0,1] under Haar at d=2: mean 1/2, var 1/12
        w = np.abs(ds.vectors[:, 0]) ** 2
        assert abs(w.mean() - 0.5) < 5 * np.sqrt(1 / 12 / len(ds))


class TestEstimators:
    def test_single_snapshot_mean(self):
        ds = ShadowDataset("povm", vectors=np.array([[1.0, 0.0]], dtype=complex))
        obs = RankOneProjector(np.array([1.0, 0.0]))
        assert empirical_mean(ds, obs) == pytest.approx(2.0)

    def test_identity_empirical_mean_is_exactly_one(self):
        state = DiagonalState(2)
        rng = np.random.default_rng(43)
        ds = collect_pauli_snapshots(state, 500, rng)
        assert empirical_mean(ds, ZParity(())) == 1.0

    def test_uniform_state_z_mean_is_near_zero(self):
        state = DiagonalState(2)
        rng = np.random.default_rng(47)
        ds = collect_pauli_snapshots(state, 100_000, rng)
        est = empirical_mean(ds, SingleQubitZ(0))
        assert abs(est) < 5 * 3.0 / np.sqrt(100_000), f"estimate {est}"

    def test_median_robust_to_outlier_batch(self):
        vectors = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
        ds = ShadowDataset("povm", vectors=vectors)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        # batch values are [2, 2, -1]; the median shrugs off the -1
        assert median_of_means(ds, obs, K=3) == pytest.approx(2.0)

    def test_even_batch_count_takes_lower_middle(self):
        vectors = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=complex)
        ds = ShadowDataset("povm", vectors=vectors)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        # batch means sorted [-1, -1, 2, 2]: lower middle is -1
        assert median_of_means(ds, obs, K=4) == pytest.approx(-1.0)

    def test_k_equals_one_is_empirical_mean(self):
        rng = np.random.default_rng(53)
        rho = _random_density(2, rng)
        ds = collect_povm_snapshots(rho, 64, rng)
        obs = RankOneProjector(np.array([1.0, 0.0]))
        assert median_of_means(ds, obs, K=1) == pytest.approx(
            empirical_mean(ds, obs)
        )

    def test_indivisible_batching_raises(self):
        vectors = np.array([[1, 0]] * 5, dtype=complex)
        ds = ShadowDataset("povm", vectors=vectors)
        with pytest.raises(IndivisibleBatching):
            median_of_means(ds, RankOneProjector(np.array([1.0, 0.0])), K=2)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            ShadowDataset("povm", vectors=np.zeros((0, 2), dtype=complex))


class TestNormBounds:
    def test_pauli_locality_bounds(self):
        assert shadow_norm_bound(SingleQubitZ(0), "pauli") == 4.0
        assert shadow_norm_bound(ZParity((0, 1)), "pauli") == 16.0
        assert shadow_norm_bound(PauliString("IZI"), "pauli") == 4.0
        assert shadow_norm_bound(ZParity(()), "pauli") == 0.0

    def test_povm_bounds(self):
        rng = np.random.default_rng(59)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert shadow_norm_bound(RankOneProjector(v), "povm") == 3.0
        obs = HermitianDense(np.diag([1.0, -1.0, 0.0, 0.0]))
        assert shadow_norm_bound(obs, "povm") == pytest.approx(6.0)
        identity = HermitianDense(np.eye(4))
        assert shadow_norm_bound(identity, "povm") == 0.0

    def test_unsupported_pairs(self):
        with pytest.raises(UnsupportedPair):
            shadow_norm_bound(HermitianDense(np.eye(2) * 0.5), "pauli")
        with pytest.raises(UnsupportedPair):
            shadow_norm_bound(SingleQubitZ(0), "povm")
        with pytest.raises(UnsupportedPair):
            shadow_norm_bound(SingleQubitZ(0), "clifford")

    def test_bound_formulas(self):
        tau, B = 0.5, 2.0
        expect = 2.0 * np.exp(-(tau**2) / (16 * B + 4 * np.sqrt(B) * tau))
        assert povm_tail_bound(tau, B) == pytest.approx(expect)
        assert povm_moment_bound(2, B) == pytest.approx(2 * 4 * B)
        assert povm_moment_bound(4, B) == pytest.approx(24 * (4 * B) ** 2)


class TestMomentProperty:
    def test_centered_moments_sit_below_the_bounds(self):
        """2nd and 4th moments of tr(O rho_hat) - tr(O rho), 3 sigma slack."""
        rng = np.random.default_rng(61)
        rho = _random_density(4, rng)
        g = rng.normal(size=(4, 4))
        m = (g + g.T) / 2
        m *= np.sqrt(1.9) / np.linalg.norm(m, "fro")
        if np.abs(np.linalg.eigvalsh(m)).max() > 1:
            m /= np.abs(np.linalg.eigvalsh(m)).max() * 1.01
        obs = HermitianDense(m)
        B = shadow_norm_bound(obs, "povm")
        ds = collect_povm_snapshots(rho, 20_000, rng)
        x = snapshot_values(ds, obs) - expectation(rho, obs)
        for k, bound in ((2, povm_moment_bound(2, B)), (4, povm_moment_bound(4, B))):
            emp = float(np.mean(x**k))
            slack = 3.0 * float(np.std(x**k)) / np.sqrt(len(x))
            assert emp < bound + slack, f"moment {k}: {emp} vs bound {bound}"


class TestSerialization:
    def test_pauli_text_round_trip(self, tmp_path):
        state = DiagonalState(4)
        rng = np.random.default_rng(67)
        ds = collect_pauli_snapshots(state, 50, rng)
        path = tmp_path / "snaps.txt"
        save_pauli_text(ds, path)
        back = load_pauli_text(path)
        assert np.array_equal(back.bases, ds.bases)
        assert np.array_equal(back.outcomes, ds.outcomes)
        lines = path.read_text().splitlines()
        assert len(lines) == 50
        assert set("".join(lines)) <= set("01+-rl")

    def test_pauli_encode_decode(self):
        snap = PauliSnapshot(
            np.array([0, 0, 1, 1, 2, 2], dtype=np.uint8),
            np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8),
        )
        assert snap.encode() == "+-rl01"
        back = PauliSnapshot.decode("+-rl01")
        assert np.array_equal(back.bases, snap.bases)
        assert np.array_equal(back.outcomes, snap.outcomes)

    def test_povm_binary_layout_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        rho = _random_density(4, rng)
        ds = collect_povm_snapshots(rho, 12, rng)
        path = tmp_path / "snaps.bin"
        save_povm_binary(ds, path)
        raw = path.read_bytes()
        assert raw[:4] == b"POVM"
        d, count = struct.unpack("<IQ", raw[4:16])
        assert (d, count) == (4, 12)
        assert len(raw) == 16 + 12 * 4 * 16  # complex128 entries
        back = load_povm_binary(path)
        assert np.array_equal(back.vectors, ds.vectors)

    def _povm_file(self, tmp_path, count=3):
        rng = np.random.default_rng(73)
        ds = collect_povm_snapshots(_random_density(2, rng), count, rng)
        path = tmp_path / "snaps.bin"
        save_povm_binary(ds, path)
        return path

    def test_truncated_povm_body_is_malformed(self, tmp_path):
        path = self._povm_file(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(MalformedSnapshots):
            load_povm_binary(path)

    def test_non_unit_povm_vector_is_malformed(self, tmp_path):
        path = tmp_path / "snaps.bin"
        vectors = np.array([[2.0, 0.0]], dtype=complex)
        save_povm_binary(ShadowDataset("povm", vectors=vectors), path)
        with pytest.raises(MalformedSnapshots):
            load_povm_binary(path)

    def test_bad_povm_magic_is_malformed(self, tmp_path):
        path = self._povm_file(tmp_path)
        path.write_bytes(b"MVOP" + path.read_bytes()[4:])
        with pytest.raises(MalformedSnapshots):
            load_povm_binary(path)

    def test_unknown_pauli_symbol_is_malformed(self, tmp_path):
        path = tmp_path / "snaps.txt"
        path.write_text("+-01\n+x01\n")
        with pytest.raises(MalformedSnapshots):
            load_pauli_text(path)

    def test_ragged_pauli_lines_are_malformed(self, tmp_path):
        path = tmp_path / "snaps.txt"
        path.write_text("+-01\n+-0\n")
        with pytest.raises(MalformedSnapshots):
            load_pauli_text(path)
