"""Scheme generation and thresholded verification."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qmoney import (
    CapacityError,
    DenseMixedRegister,
    DimensionError,
    MoneyScheme,
    MoneyState,
    PauliOp,
    SchemeParams,
    SoundnessWarning,
    StabilizerState,
    completely_mixed_money,
    dense_statevector,
    gen_scheme,
    honest_money,
    measure_register,
    random_pauli,
    random_stabilizer_state,
    register_expectation,
    stab_expectation,
    verify,
)
from qmoney.money import BasisMixedRegister, completely_mixed_register


def make(n, m, l, eps, seed=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        return gen_scheme(SchemeParams(n, m, l, eps), np.random.default_rng(seed))


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(0, 4, 1, 0.5)
    with pytest.raises(ValueError):
        SchemeParams(4, 0, 1, 0.5)
    with pytest.raises(ValueError):
        SchemeParams(4, 4, 0, 0.5)
    with pytest.raises(ValueError):
        SchemeParams(4, 4, 1, 1.5)
    with pytest.raises(ValueError):
        SchemeParams(4, 4, 1, -0.1)


def test_soundness_warning_fires_exactly_when_underpowered():
    with pytest.warns(SoundnessWarning):
        gen_scheme(SchemeParams(16, 8, 1, 0.5), np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gen_scheme(SchemeParams(4, 8, 1, 0.5), np.random.default_rng(0))  # l/eps^2 = 4 >= n
        gen_scheme(SchemeParams(16, 8, 4, 0.0), np.random.default_rng(0))  # eps = 0 exempt


def test_epsilon_one_table_is_all_stabilizer_elements():
    secret, scheme = make(4, 32, 2, 1.0)
    for state, ops in zip(secret.states, scheme.table):
        for op in ops:
            assert stab_expectation(state, op) == 1
            assert not op.is_identity


def test_epsilon_zero_table_is_rarely_stabilizing():
    secret, scheme = make(6, 400, 1, 0.0)
    hits = sum(
        stab_expectation(secret.states[0], op) == 1 for op in scheme.table[0]
    )
    # random +-P stabilizes with prob ~ 2^-n * ... ; generous cap
    assert hits <= 12


def test_gen_scheme_epsilon_half_entry_split():
    secret, scheme = make(16, 1000, 1, 0.5, seed=3)
    members = sum(
        stab_expectation(secret.states[0], op) == 1 for op in scheme.table[0]
    )
    # Binomial(1000, 1/2) plus a ~2^-n trickle of lucky randoms; 5 sigma ~ 79
    assert abs(members - 500) < 80, members


def test_verify_threshold_is_exact_rational():
    # q = eps/2 exactly must accept (>= comparison), floats notwithstanding
    secret, scheme = make(4, 8, 10, 0.2, seed=1)
    # epsilon/2 = 0.1 -> need total >= 1 over l=10
    rng = np.random.default_rng(0)
    out = verify(scheme, honest_money(secret), rng)
    assert out.accepted == (Fraction(round(out.q_value * 10), 10) >= Fraction(1, 10))


def tie_verify(epsilon, l, total):
    """n=1 money stabilized by +Z, each register's table all +Z or all -Z.

    Every outcome is deterministic, so the register sum equals ``total``.
    """
    plus, minus = PauliOp.from_string("+Z"), PauliOp.from_string("-Z")
    table = tuple((plus if i < (l + total) // 2 else minus,) * 3 for i in range(l))
    scheme = MoneyScheme(SchemeParams(1, 3, l, epsilon), table)
    money = MoneyState((StabilizerState(1, (plus,)),) * l)
    out = verify(scheme, money, np.random.default_rng(0))
    assert out.q_value == total / l
    return out


@pytest.mark.parametrize("epsilon, l, tie", [(0.1, 40, 2), (0.2, 20, 2), (0.9, 40, 18)])
def test_verify_accepts_a_tie_with_the_decimal_epsilon(epsilon, l, tie):
    # total/l == epsilon/2 for the decimal epsilon, while the binary float
    # of each epsilon here is slightly larger than the decimal
    assert Fraction(tie, l) == Fraction(str(epsilon)) / 2 < Fraction(epsilon) / 2
    assert tie_verify(epsilon, l, tie).accepted
    assert not tie_verify(epsilon, l, tie - 2).accepted  # totals keep l's parity


def test_honest_money_mean_q_tracks_epsilon():
    secret, scheme = make(8, 64, 64, 0.25, seed=5)
    rng = np.random.default_rng(7)
    money = honest_money(secret)
    qs = [verify(scheme, money, rng).q_value for _ in range(300)]
    # E[q] = eps with std ~ sqrt(1/l)/sqrt(trials) ~ 0.007
    assert abs(np.mean(qs) - 0.25) < 0.04


def test_mixed_money_mean_q_near_zero():
    secret, scheme = make(8, 64, 64, 0.25, seed=6)
    rng = np.random.default_rng(8)
    mixed = completely_mixed_money(scheme.params)
    qs = [verify(scheme, mixed, rng).q_value for _ in range(300)]
    assert abs(np.mean(qs)) < 0.04


def test_completely_mixed_register_is_shared_and_uniform():
    a = completely_mixed_register(6)
    assert a is completely_mixed_register(6)  # cached, one copy in memory
    assert np.allclose(a.weights, 1 / 64)
    money = completely_mixed_money(SchemeParams(6, 4, 5, 0.5))
    assert all(reg is a for reg in money.registers)


def eye_register(n):
    """The completely mixed register as the explicit ensemble of basis vectors e_k."""
    dim = 1 << n
    return DenseMixedRegister(np.full(dim, 1.0 / dim), np.eye(dim, dtype=complex))


def test_completely_mixed_verify_matches_the_eye_ensemble():
    # criterion 02's shape and seeds: same q_values and the same generator state after
    _, scheme = make(8, 64, 1024, 0.25, seed=1002)
    params = scheme.params
    mixed = completely_mixed_money(params)
    assert isinstance(mixed.registers[0], BasisMixedRegister)
    oracle = MoneyState((eye_register(8),) * params.l)
    rng, replay = np.random.default_rng(2002), np.random.default_rng(2002)
    for _ in range(50):
        assert verify(scheme, mixed, rng) == verify(scheme, oracle, replay)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_basis_register_expectation_matches_the_eye_ensemble():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        basis, oracle = completely_mixed_register(n), eye_register(n)
        ops = [random_pauli(n, rng) for _ in range(60)]
        ops += [PauliOp(n, 0, int(rng.integers(1 << n)), 2 * int(rng.integers(2))) for _ in range(20)]
        for op in ops + [PauliOp.identity(n), -PauliOp.identity(n)]:
            if not op.is_hermitian:
                for reg in (basis, oracle):
                    with pytest.raises(ValueError):
                        register_expectation(reg, op)
                continue
            got, want = register_expectation(basis, op), register_expectation(oracle, op)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()  # signed zeros too
    with pytest.raises(DimensionError):
        register_expectation(completely_mixed_register(3), PauliOp.identity(4))
    with pytest.raises(DimensionError):
        measure_register(completely_mixed_register(3), PauliOp.identity(4), rng)


def test_basis_register_measures_each_basis_state_as_its_vector():
    rng = np.random.default_rng(12)
    for n in (1, 3, 5):
        dim = 1 << n
        for k in range(dim):
            one = BasisMixedRegister(np.eye(dim)[k])
            vec = DenseMixedRegister([1.0], np.eye(dim, dtype=complex)[k : k + 1])
            for _ in range(8):
                op = random_pauli(n, rng)
                op = PauliOp(n, op.x, op.z, op.phase & 2)
                assert register_expectation(one, op) == register_expectation(vec, op)
                seed = int(rng.integers(2**32))
                got = measure_register(one, op, np.random.default_rng(seed))
                assert got == measure_register(vec, op, np.random.default_rng(seed))


def test_completely_mixed_money_at_the_dense_limit_is_small():
    # n=12: the eye(2**12) ensemble was 256 MiB, kept for the life of the process
    completely_mixed_register.cache_clear()
    tracemalloc.start()
    try:
        money = completely_mixed_money(SchemeParams(12, 4, 8, 0.5))
        measure_register(money.registers[0], PauliOp.from_string("+" + "Z" * 12), np.random.default_rng(0))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert money.registers[0].n == 12


@pytest.mark.parametrize(
    "weights",
    [
        [0.5, 0.25],  # sums to 0.75
        [1.5, -0.5],  # negative
        [np.nan, 1.0],
        [np.inf, 1.0],
        [1 / 3] * 3,  # not a power of two
        [[0.5, 0.5]],  # not one axis
        np.full(1 << 13, 1.0 / (1 << 13)),  # beyond DENSE_LIMIT
    ],
)
def test_basis_register_validation(weights):
    with pytest.raises((ValueError, CapacityError)):
        BasisMixedRegister(np.array(weights))


def test_measure_register_stabilizer_vs_dense_agree_exactly():
    # same state as a stabilizer register and as a dense ensemble
    rng = np.random.default_rng(9)
    for _ in range(10):
        st = random_stabilizer_state(4, rng)
        vec = dense_statevector(st)
        dense = DenseMixedRegister(np.array([1.0]), vec[None, :])
        for _ in range(10):
            op = random_pauli(4, rng)
            e_stab = register_expectation(st, op)
            e_dense = register_expectation(dense, op)
            assert abs(e_stab - e_dense) < 1e-12


def test_measure_register_outcome_law():
    # Z on |0>: always +1; X on |0>: fair coin
    rng = np.random.default_rng(10)
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1.0
    reg = DenseMixedRegister(np.array([1.0]), vec[None, :])
    zs = [measure_register(reg, PauliOp.from_string("+ZI"), rng) for _ in range(200)]
    assert all(o == 1 for o in zs)
    xs = [measure_register(reg, PauliOp.from_string("+XI"), rng) for _ in range(4000)]
    assert abs(np.mean(xs)) < 0.1


def test_dense_register_validation():
    good = np.zeros((1, 4), dtype=complex)
    good[0, 0] = 1.0
    with pytest.raises(ValueError):
        DenseMixedRegister(np.array([0.5]), good)  # weights must sum to 1
    with pytest.raises(ValueError):
        DenseMixedRegister(np.array([1.0]), 2 * good)  # components must be unit
    with pytest.raises(ValueError):
        DenseMixedRegister(np.array([1.0]), np.ones((1, 3), dtype=complex) / np.sqrt(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_register_refuses_nonfinite_weights(bad):
    with pytest.raises(ValueError, match="weights"):
        DenseMixedRegister(np.array([bad, 1.0]), np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="weights"):
        DenseMixedRegister(np.array([bad, -bad]), np.eye(2, dtype=complex))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf * 0 in norm
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_dense_register_refuses_nonfinite_vectors(bad):
    # measure_register would read -1 off a NaN vector: expectation clamps NaN to -1
    with pytest.raises(ValueError, match="unit norm"):
        DenseMixedRegister(np.array([1.0]), np.array([[bad, 0]]))
    with pytest.raises(ValueError, match="unit norm"):
        DenseMixedRegister(np.array([0.5, 0.5]), np.array([[1, 0], [1, bad]]))


def test_scheme_table_validation():
    params = SchemeParams(2, 2, 1, 0.5)
    ok = (PauliOp.from_string("+XX"), PauliOp.from_string("-ZZ"))
    MoneyScheme(params, (ok,))
    with pytest.raises(ValueError):
        MoneyScheme(params, ((PauliOp.from_string("+XX"), PauliOp.from_string("+II")),))
    with pytest.raises(ValueError):
        MoneyScheme(params, ((PauliOp.from_string("+XX"), PauliOp.from_string("+iZZ")),))
    with pytest.raises(ValueError):
        MoneyScheme(params, (ok, ok))  # l mismatch


def test_verify_rejects_shape_mismatch():
    secret, scheme = make(4, 8, 2, 0.5)
    other_secret, _ = make(4, 8, 3, 0.5, seed=2)
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError):
        verify(scheme, honest_money(other_secret), rng)


def test_verify_uses_one_column_draw_per_register():
    # replay: one column draw for all l registers, then one uniform per register
    secret, scheme = make(4, 8, 6, 0.5, seed=4)
    rng, replay = np.random.default_rng(3), np.random.default_rng(3)
    out = verify(scheme, honest_money(secret), rng)
    chosen = replay.integers(0, 8, size=6)
    total = 0
    for state, register, j in zip(secret.states, scheme.table, chosen):
        e = float(stab_expectation(state, register[j]))
        total += 1 if replay.random() < (1.0 + e) / 2.0 else -1
    assert out.q_value == total / 6
    assert rng.random() == replay.random()
