"""Adaptive attack, non-adaptive baseline, and the experiment grid."""

import csv
import math

import numpy as np
import pytest

from adaptive_shadows.attack import (
    GRID_FIELDS,
    MajorityState,
    attack_experiment,
    index_to_subset,
    or_rule_expectation,
    run_adaptive_attack,
    run_nonadaptive_baseline,
    selection_threshold,
    subset_to_index,
)
from adaptive_shadows.core import (
    DiagonalState,
    SingleQubitZ,
    expectation,
    write_csv,
)
from adaptive_shadows.errors import DimensionMismatch


def _exact_selection_probability(N: int) -> float:
    """P[a(Z_i) >= 9/sqrt(N)] where a = 3(N - 2S)/N, S ~ Bin(N, 1/2)."""
    cut = (N - 3.0 * math.sqrt(N)) / 2.0
    smax = math.floor(cut)
    total = sum(math.comb(N, s) for s in range(smax + 1))
    return total / 2.0**N


class TestOrRule:
    def test_frozen_values(self):
        assert or_rule_expectation(0) == 1.0
        assert or_rule_expectation(1) == 0.0
        assert or_rule_expectation(2) == -0.5
        assert or_rule_expectation(3) == pytest.approx(-0.75)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            or_rule_expectation(-1)


class TestSubsetIndexing:
    def test_round_trip(self):
        M = 6
        for subset in [(), (0,), (1, 2), (0, 3, 5)]:
            idx = subset_to_index(M, subset)
            assert index_to_subset(M, idx) == subset

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionMismatch):
            subset_to_index(4, [4])
        with pytest.raises(DimensionMismatch):
            index_to_subset(4, 3)


class TestMajorityState:
    def test_pair_coordinate_expectation(self):
        """OR of two fair coins: P(1) = 3/4, so the Z value is -1/2."""
        state = MajorityState(4)
        idx = subset_to_index(4, (1, 2))
        assert expectation(state, SingleQubitZ(idx)) == pytest.approx(-0.5)

    def test_empty_subset_coordinate_is_constant_zero(self):
        state = MajorityState(3)
        idx = subset_to_index(3, ())
        assert expectation(state, SingleQubitZ(idx)) == 1.0
        for base in state.sample_base(np.random.default_rng(2), 20):
            assert state.coordinate_bit(idx, base) == 0

    def test_singleton_coordinate_echoes_the_base_bit(self):
        state = MajorityState(3)
        idx = subset_to_index(3, (1,))
        for base in state.sample_base(np.random.default_rng(4), 50):
            assert state.coordinate_bit(idx, base) == base[1]

    def test_width_counts_every_subset(self):
        state = MajorityState(5)
        assert state.n_qubits == 5 + 32

    def test_fast_path_matches_enumeration(self):
        state = MajorityState(4)
        idx = subset_to_index(4, (0, 2, 3))
        fast = state.parity_expectation([idx])
        slow = DiagonalState.parity_expectation(state, [idx])
        assert fast == pytest.approx(slow, abs=1e-12)


class TestSelectionThreshold:
    def test_value(self):
        assert selection_threshold(10_000) == pytest.approx(0.09)


class TestAdaptiveAttack:
    def test_answer_statistics_match_binomial_oracle(self):
        """a(Z_i) has mean 0 and variance 9/N over fresh datasets."""
        rng = np.random.default_rng(8)
        N, M, runs = 400, 100, 60
        pool = np.concatenate(
            [run_adaptive_attack(N, M, rng).a_values for _ in range(runs)]
        )
        se_mean = 3.0 / np.sqrt(N) / np.sqrt(len(pool))
        assert abs(pool.mean()) < 5 * se_mean, f"mean {pool.mean()}"
        assert pool.var() == pytest.approx(9.0 / N, rel=0.1)

    def test_selection_rate_matches_exact_tail(self):
        """Fraction of selected coordinates concentrates on the exact tail."""
        p = _exact_selection_probability(400)
        rng = np.random.default_rng(16)
        runs, M = 150, 100
        hits = sum(
            len(run_adaptive_attack(400, M, rng).selected) for _ in range(runs)
        )
        n = runs * M
        se = math.sqrt(p * (1 - p) * n)
        assert abs(hits - p * n) < 5 * se, (
            f"selected {hits} of {n}, expected about {p * n:.1f}"
        )

    def test_bruteforce_and_sufficient_paths_agree(self):
        """Both sampling routes give the same selection rate and error level."""
        N, M, runs = 400, 50, 120
        rng_a = np.random.default_rng(32)
        rng_b = np.random.default_rng(33)
        sel = {"bruteforce": [], "sufficient": []}
        err = {"bruteforce": [], "sufficient": []}
        for method, rng in (("bruteforce", rng_a), ("sufficient", rng_b)):
            for _ in range(runs):
                res = run_adaptive_attack(N, M, rng, method=method)
                sel[method].append(len(res.selected))
                err[method].append(res.error)
        for tag, pools in (("selection", sel), ("error", err)):
            a, b = np.array(pools["bruteforce"]), np.array(pools["sufficient"])
            sigma = math.sqrt(a.var() / runs + b.var() / runs)
            assert abs(a.mean() - b.mean()) < 5 * sigma + 1e-9, (
                f"{tag}: {a.mean()} vs {b.mean()} (sigma {sigma})"
            )

    def test_large_budget_forces_a_big_error(self):
        rng = np.random.default_rng(64)
        res = run_adaptive_attack(10_000, 10_000, rng)
        assert res.error >= 0.9, f"adaptive error {res.error}"
        assert res.truth == 0.0

    def test_empty_selection_falls_back_to_the_constant_coordinate(self):
        """With a huge N the threshold excludes everything; truth becomes +1."""
        rng = np.random.default_rng(128)
        res = run_adaptive_attack(1_000_000, 4, rng)
        assert res.selected == ()
        assert res.truth == 1.0
        assert res.error < 0.05, f"null-attack error {res.error}"


class TestNonadaptiveBaseline:
    def test_large_n_error_is_small(self):
        rng = np.random.default_rng(256)
        res = run_nonadaptive_baseline(1_000_000, 10, rng)
        assert res.max_error <= 0.05, f"baseline error {res.max_error}"

    def test_seeded_repeat_is_identical(self):
        a = run_nonadaptive_baseline(5000, 20, np.random.default_rng(11))
        b = run_nonadaptive_baseline(5000, 20, np.random.default_rng(11))
        assert a.max_error == b.max_error


class TestAttackExperiment:
    def test_single_run_reports_zero_std(self):
        rows = attack_experiment(500, [100], runs=1, seed=3)
        assert all(r["error_std"] == 0.0 for r in rows)
        assert {r["mode"] for r in rows} == {"adaptive", "nonadaptive"}

    def test_csv_columns(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_csv(path, GRID_FIELDS,
                  attack_experiment(500, [100, 200], runs=2, seed=5))
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "M", "N", "runs", "mode", "error_mean", "error_std", "seed",
            ]
            rows = list(reader)
        assert len(rows) == 4  # two M values x two modes

    def test_disjoint_seeds_agree(self):
        """Means from independent seed ranges agree within 3 combined sigma."""
        runs = 40
        rows_a = attack_experiment(1000, [400], runs=runs, seed=100)
        rows_b = attack_experiment(1000, [400], runs=runs, seed=900)
        for mode in ("adaptive", "nonadaptive"):
            ra = next(r for r in rows_a if r["mode"] == mode)
            rb = next(r for r in rows_b if r["mode"] == mode)
            sigma = math.sqrt(
                ra["error_std"] ** 2 / runs + rb["error_std"] ** 2 / runs
            )
            gap = abs(ra["error_mean"] - rb["error_mean"])
            assert gap < 3 * sigma + 0.02, f"{mode}: gap {gap} vs sigma {sigma}"
