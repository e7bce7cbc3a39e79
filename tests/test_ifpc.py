"""One-time pad, tracing code, collusion games, and the two code attacks."""

import csv
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from adaptive_shadows.core import write_csv
from adaptive_shadows.errors import InvalidPair, LengthMismatch
from adaptive_shadows.ifpc import (
    GAME_LOG_FIELDS,
    ConstantMechanism,
    EchoAdversary,
    EmpiricalMeanMechanism,
    GameState,
    LocalLowerBoundState,
    LocalZQuery,
    MajorityAdversary,
    PauliLowerBoundState,
    PauliParityQuery,
    RandomBitAdversary,
    ScoreTracingCode,
    UserSample,
    otp_decrypt,
    otp_encrypt,
    parity_decrypt_identity,
    run_ifpc_game,
    run_local_attack,
    run_pauli_attack,
)


class TestOtp:
    def test_worked_example(self):
        """sk=001, m=101: XOR gives 100, doubling gives 100101."""
        assert otp_encrypt("001", "101") == "100101"

    def test_key_equal_to_message_gives_all_zero_pairs(self):
        assert otp_encrypt("1011", "1011") == "01" * 4

    def test_output_form_follows_the_message(self):
        as_str = otp_encrypt("01", "11")
        as_arr = otp_encrypt(np.array([0, 1]), np.array([1, 1]))
        assert isinstance(as_str, str)
        assert isinstance(as_arr, np.ndarray)
        assert as_str == "".join(str(b) for b in as_arr)

    def test_round_trip_exhaustive_d3(self):
        for sk_bits in itertools.product("01", repeat=3):
            sk = "".join(sk_bits)
            for m_bits in itertools.product("01", repeat=3):
                m = "".join(m_bits)
                assert otp_decrypt(sk, otp_encrypt(sk, m)) == m

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            otp_encrypt("01", "111")
        with pytest.raises(LengthMismatch):
            otp_decrypt("01", "010101")

    def test_malformed_pair_rejected(self):
        with pytest.raises(InvalidPair):
            otp_decrypt("01", "1101")  # first pair is 11

    def test_perfect_secrecy_by_enumeration(self):
        """Ciphertext multisets under uniform keys are message-independent."""
        d = 8
        m0 = "00000000"
        m1 = "10110001"
        keys = ["".join(bits) for bits in itertools.product("01", repeat=d)]
        dist0 = Counter(otp_encrypt(sk, m0) for sk in keys)
        dist1 = Counter(otp_encrypt(sk, m1) for sk in keys)
        assert dist0 == dist1
        assert all(count == 1 for count in dist0.values())

    def test_keypair_helper(self):
        """A generated array key round-trips an array message."""
        sk = np.random.default_rng(3).integers(0, 2, size=6, dtype=np.uint8)
        m = np.array([1, 0, 1, 1, 0, 0], dtype=np.uint8)
        assert otp_decrypt(sk, otp_encrypt(sk, m)).tolist() == [1, 0, 1, 1, 0, 0]


class TestParityIdentity:
    def test_table(self):
        assert parity_decrypt_identity(0, "10") == 1
        assert parity_decrypt_identity(0, "01") == 0
        assert parity_decrypt_identity(1, "10") == 0
        assert parity_decrypt_identity(1, "01") == 1

    def test_matches_direct_decryption(self):
        for sk in (0, 1):
            for pair in ("10", "01"):
                direct = otp_decrypt(str(sk), pair)
                assert parity_decrypt_identity(sk, pair) == int(direct)

    def test_validation(self):
        with pytest.raises(InvalidPair):
            parity_decrypt_identity(0, "11")
        with pytest.raises(ValueError):
            parity_decrypt_identity(2, "10")


class _ZeroAdversary:
    """Deterministic all-zeros answers; draws nothing from the rng."""

    def select_colluders(self, d, N, rng):
        return list(range(N))

    def respond(self, round_index, visible, rng):
        return 0


class TestScoreTracingCode:
    def test_challenge_answer_protocol_is_enforced(self):
        code = ScoreTracingCode(8)
        rng = np.random.default_rng(5)
        code.challenge(rng)
        with pytest.raises(RuntimeError):
            code.challenge(rng)
        code.observe(0)
        with pytest.raises(RuntimeError):
            code.observe(0)

    def test_theta_counts_exactly_the_all_one_columns(self):
        """Replaying the challenge stream gives an independent theta count."""
        d, M, seed = 6, 300, 11
        game = run_ifpc_game(ScoreTracingCode(d), _ZeroAdversary(),
                             N=2, d=d, M=M, rng=np.random.default_rng(seed))
        replay_code = ScoreTracingCode(d)
        replay_rng = np.random.default_rng(seed)
        expected = 0
        for _ in range(M):
            column = replay_code.challenge(replay_rng)
            replay_code.observe(0)
            if column.min() == 1:  # answer 0 matches no user
                expected += 1
        assert game.theta == expected
        assert expected > 0, "the stream should contain all-one columns"

    def test_echo_source_is_traced_without_inconsistency(self):
        rng = np.random.default_rng(13)
        adversary = EchoAdversary()
        code = ScoreTracingCode(500)
        game = run_ifpc_game(code, adversary, N=3, d=500, M=60, rng=rng)
        assert game.theta == 0
        assert game.psi == 0
        assert set(game.accused) <= set(game.colluders)
        assert len(game.accused) >= 1, "the echoed colluder must be caught"

    def test_random_answers_eventually_trip_theta(self):
        rng = np.random.default_rng(17)
        game = run_ifpc_game(ScoreTracingCode(20), RandomBitAdversary(),
                             N=4, d=20, M=400, rng=rng)
        assert game.theta > 0

    def test_majority_adversary_runs_clean(self):
        rng = np.random.default_rng(19)
        game = run_ifpc_game(ScoreTracingCode(100), MajorityAdversary(),
                             N=5, d=100, M=80, rng=rng)
        assert game.theta == 0  # majority answers always match some colluder

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ScoreTracingCode(0)
        with pytest.raises(ValueError):
            run_ifpc_game(ScoreTracingCode(4), _ZeroAdversary(), N=9, d=4,
                          M=1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_ifpc_game(ScoreTracingCode(4), _ZeroAdversary(), N=1, d=8,
                          M=1, rng=np.random.default_rng(0))


class TestGameState:
    def test_theta_needs_a_fully_mismatched_column(self):
        game = GameState(d=2, colluders=(0, 1))
        game.apply_round(np.array([0, 1], dtype=np.uint8), 1, [])
        assert game.theta == 0
        game.apply_round(np.array([0, 0], dtype=np.uint8), 1, [])
        assert game.theta == 1

    def test_accusations_update_the_counters(self):
        game = GameState(d=10, colluders=(2, 5))
        column = np.zeros(10, dtype=np.uint8)
        game.apply_round(column, 0, [5, 7])
        assert game.psi == 1  # user 7 is innocent
        assert game.remaining == [2]
        with pytest.raises(RuntimeError):
            game.apply_round(column, 0, [7])

    def test_log_round_trip(self, tmp_path):
        rows = []
        run_ifpc_game(ScoreTracingCode(16), _ZeroAdversary(), N=2, d=16,
                      M=30, rng=np.random.default_rng(23), log_rows=rows)
        assert len(rows) == 30
        path = tmp_path / "game.csv"
        write_csv(path, GAME_LOG_FIELDS, rows)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == GAME_LOG_FIELDS
            back = list(reader)
        assert [int(r["round"]) for r in back] == list(range(30))
        assert int(back[-1]["theta"]) == rows[-1]["theta"]


class TestLocalLowerBoundState:
    def test_every_pattern_lands_on_its_own_coordinate(self):
        d = 8
        state = LocalLowerBoundState(d, M=2, seed=31)
        patterns = list(itertools.product((0, 1), repeat=d))
        coords = {}
        for bits in patterns:
            q = np.array(bits, dtype=np.uint8)
            k = state.locate(0, q)
            assert state.locate(0, q) == k  # stable on re-query
            coords[k] = q
            for user in range(d):
                assert state.coordinate(user, 0, k) == q[user]
        assert len(coords) == len(patterns), "locate must be injective"

    def test_groups_are_independent(self):
        state = LocalLowerBoundState(4, M=3, seed=37)
        q = np.array([1, 0, 1, 1], dtype=np.uint8)
        ks = {state.locate(j, q) for j in range(3)}
        for j in range(3):
            assert state.coordinate(2, j, state.locate(j, q)) == 1

    def test_spot_check_at_large_d(self):
        d = 10_000
        state = LocalLowerBoundState(d, M=2, seed=41)
        rng = np.random.default_rng(43)
        for _ in range(5):
            q = rng.integers(0, 2, size=d, dtype=np.uint8)
            k = state.locate(1, q)
            for user in rng.integers(0, d, size=8):
                assert state.coordinate(int(user), 1, k) == q[user]

    def test_unassigned_coordinate_raises(self):
        state = LocalLowerBoundState(4, M=1, seed=47)
        with pytest.raises(KeyError):
            state.coordinate(0, 0, 12345)

    def test_qubit_accounting(self):
        state = LocalLowerBoundState(6, M=3, seed=53)
        assert state.n_qubits == 3 + 3 * 64


class TestPauliLowerBoundState:
    def test_keys_are_per_round_and_deterministic(self):
        state = PauliLowerBoundState(64, M=4, seed=59)
        k0 = state.secret_key(0)
        assert k0.shape == (64,)
        assert np.array_equal(k0, state.secret_key(0))
        assert not np.array_equal(k0, state.secret_key(1))

    def test_qubit_accounting(self):
        state = PauliLowerBoundState(16, M=3, seed=61)
        assert state.n_qubits == 4 + 2 * 16 * 3

    def test_every_user_decrypts_its_own_bit(self):
        """Exhaustive at d=8: the parity query returns 1 - 2 q_user."""
        d = 8
        state = PauliLowerBoundState(d, M=1, seed=67)
        sk = state.secret_key(0)
        for bits in itertools.product((0, 1), repeat=d):
            q = np.array(bits, dtype=np.uint8)
            query = PauliParityQuery(0, otp_encrypt(sk, q))
            for user in range(d):
                z = UserSample(state, user).z_value(query)
                assert z == 1.0 - 2.0 * q[user]

    def test_spot_check_at_large_d(self):
        d = 10_000
        state = PauliLowerBoundState(d, M=1, seed=71)
        rng = np.random.default_rng(73)
        q = rng.integers(0, 2, size=d, dtype=np.uint8)
        query = PauliParityQuery(0, otp_encrypt(state.secret_key(0), q))
        for user in rng.integers(0, d, size=10):
            assert UserSample(state, int(user)).z_value(query) == 1.0 - 2.0 * q[user]


class TestLocalQueries:
    def test_z_value_is_the_eigenvalue_of_the_stored_bit(self):
        state = LocalLowerBoundState(4, M=1, seed=79)
        q = np.array([1, 0, 0, 1], dtype=np.uint8)
        k = state.locate(0, q)
        sample = UserSample(state, 0)
        assert sample.z_value(LocalZQuery(0, k)) == -1.0
        assert UserSample(state, 1).z_value(LocalZQuery(0, k)) == 1.0

    def test_unknown_query_type_rejected(self):
        state = LocalLowerBoundState(4, M=1, seed=83)
        with pytest.raises(TypeError):
            UserSample(state, 0).z_value("not a query")


class TestAttacks:
    def test_local_attack_forces_a_large_error(self):
        forced = 0
        for seed in range(10):
            result = run_local_attack(EmpiricalMeanMechanism(), N=5, M=625,
                                      rng=np.random.default_rng(1000 + seed))
            forced += result.forced_error
            assert result.state.theta > 0 or not result.forced_error
        assert forced >= 8, f"forced error in only {forced}/10 local runs"

    def test_pauli_attack_forces_a_large_error(self):
        forced = 0
        for seed in range(10):
            result = run_pauli_attack(EmpiricalMeanMechanism(), N=5, M=625,
                                      rng=np.random.default_rng(2000 + seed))
            forced += result.forced_error
        assert forced >= 8, f"forced error in only {forced}/10 pauli runs"

    def test_qubit_accounting_matches_the_formulas(self):
        local = run_local_attack(ConstantMechanism(0.0), N=2, M=3,
                                 rng=np.random.default_rng(5))
        d = 2000 * 2
        assert local.n_qubits == math.ceil(math.log2(d)) + 3 * 2 ** d
        pauli = run_pauli_attack(ConstantMechanism(0.0), N=2, M=3,
                                 rng=np.random.default_rng(7))
        assert pauli.n_qubits == math.ceil(math.log2(d)) + 2 * d * 3

    def test_constant_mechanism_goes_inconsistent(self):
        result = run_local_attack(ConstantMechanism(0.0), N=2, M=300,
                                  rng=np.random.default_rng(11))
        assert result.state.theta > 0

    def test_rows_follow_the_log_schema(self):
        result = run_pauli_attack(EmpiricalMeanMechanism(), N=2, M=20,
                                  rng=np.random.default_rng(13))
        assert len(result.rows) == 20
        for row in result.rows:
            assert list(row) == GAME_LOG_FIELDS
        assert len(result.transcript) == 20

    def test_custom_code_is_honored(self):
        sleepy = ScoreTracingCode(2000 * 2, tau=1e9, invert_answers=True)
        result = run_local_attack(EmpiricalMeanMechanism(), N=2, M=100,
                                  rng=np.random.default_rng(17), code=sleepy)
        assert result.state.accused == []  # accusation threshold out of reach
        default = run_local_attack(EmpiricalMeanMechanism(), N=2, M=100,
                                   rng=np.random.default_rng(17))
        assert len(default.state.accused) > 0

    def test_real_and_simulated_answer_streams_match(self):
        """Same mechanism, real vs simulated runs: answer laws agree."""
        def stream(simulated):
            answers = []
            for seed in range(60):
                result = run_local_attack(
                    EmpiricalMeanMechanism(), N=3, M=40,
                    rng=np.random.default_rng(3000 + seed),
                    simulated=simulated)
                answers.extend(r.answer for r in result.transcript.rounds)
            return np.array(answers)

        real, sim = stream(False), stream(True)
        atoms = np.unique(np.concatenate([real, sim]))
        tv = 0.5 * sum(
            abs(np.mean(real == a) - np.mean(sim == a)) for a in atoms
        )
        assert tv < 0.05, f"total variation {tv}"
