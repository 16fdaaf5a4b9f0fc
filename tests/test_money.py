"""Scheme generation and thresholded verification."""

import dataclasses
import math
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
    forge_low_eps_with_records,
    gen_scheme,
    honest_money,
    measure_register,
    random_pauli,
    random_stabilizer_state,
    register_hamiltonian,
    stab_expectation,
    verify,
)
import qmoney.money as money_module
import qmoney.pauli as pauli_module
import qmoney.stabilizer as stabilizer_module
import qmoney.phase as phase_module
from qmoney.money import CompletelyMixedRegister, _basis_expectation
from qmoney.pauli import _random_bits
from oracles import dense_statevector, random_stabilizer_element, register_expectation


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
    # l/eps^2 = 4 >= n, but mixed money may pass with probability exp(-1/32)
    with pytest.warns(SoundnessWarning, match=r"exp\(-l\*epsilon\^2/8\) = 0\.969"):
        gen_scheme(SchemeParams(4, 8, 1, 0.5), np.random.default_rng(0))
    # the clique-attack shape: l/eps^2 = 128 >= n, and mixed money passes
    # with probability P(Bin(32, 1/2) >= 20) = 0.1077 <= exp(-1)
    with pytest.warns(SoundnessWarning, match=r"= 0\.368"):
        gen_scheme(SchemeParams(50, 400, 32, 0.5), np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gen_scheme(SchemeParams(4, 8, 256, 0.5), np.random.default_rng(0))  # bound e^-8
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


@pytest.mark.parametrize("shape", [(1, 8, 3, 0.5), (6, 64, 16, 1 / 128), (12, 40, 4, 0.9)])
def test_gen_scheme_builds_what_the_public_constructors_accept(shape):
    secret, scheme = make(*shape, seed=4)
    again = MoneyScheme(scheme.params, scheme.table)
    assert again == scheme
    for state in secret.states:
        assert StabilizerState(state.n, state.generators).generators == state.generators


def test_gen_scheme_epsilon_half_entry_split():
    secret, scheme = make(16, 1000, 1, 0.5, seed=3)
    members = sum(
        stab_expectation(secret.states[0], op) == 1 for op in scheme.table[0]
    )
    # Binomial(1000, 1/2) plus a ~2^-n trickle of lucky randoms; 5 sigma ~ 79
    assert abs(members - 500) < 80, members


def per_entry_gen_scheme(params, rng):
    """gen_scheme as one PauliOp per entry: the packed draw's oracle.

    (secret states, table of PauliOps); each entry draws as the packed
    draw must, through random_stabilizer_element (resampling the
    identity) or random_pauli without the identity.
    """
    states, table = [], []
    for _ in range(params.l):
        state = random_stabilizer_state(params.n, rng)
        register = []
        for _ in range(params.m):
            if rng.random() < params.epsilon:
                op = random_stabilizer_element(state, rng)
                while op.is_identity:
                    op = random_stabilizer_element(state, rng)
            else:
                op = random_pauli(params.n, rng, allow_identity=False)
            register.append(op)
        states.append(state)
        table.append(tuple(register))
    return states, tuple(table)


def same_state(a, b) -> bool:
    """Bit generator states equal, arrays (SFC64's and Philox's words) compared by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def assert_draw_is_the_per_entry_draw(params, ours, theirs):
    """gen_scheme(params, ours) draws what per_entry_gen_scheme(params, theirs) draws.

    The table, the secret states and the generator's final state.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        secret, scheme = gen_scheme(params, ours)
    states, table = per_entry_gen_scheme(params, theirs)
    assert scheme.table == table
    assert [s.generators for s in secret.states] == [s.generators for s in states]
    # the whole state: the 64-bit word buffer (has_uint32, uinteger) included
    assert same_state(ours.bit_generator.state, theirs.bit_generator.state)
    return scheme, table


# n = 1 and 2 redraw often, 31-33 put a key or an operator across uint32s,
# and 65 and 100 take two words; seeds 7 and 31 were not used in tuning
@pytest.mark.parametrize("seed", [0, 1, 2, 7, 31])
@pytest.mark.parametrize("epsilon", [0.0, 1 / 128, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 6, 31, 32, 33, 50, 64, 65, 100])
def test_packed_draw_equals_the_per_entry_draw(n, epsilon, seed):
    params = SchemeParams(n, 24, 3, epsilon)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    scheme, table = assert_draw_is_the_per_entry_draw(params, ours, theirs)
    words = (n + 63) // 64
    block = scheme.block
    assert block.x.shape == block.z.shape == (3, 24, words) and block.phases.shape == (3, 24)
    mask = (1 << 64) - 1
    for i, register in enumerate(table):
        for j, op in enumerate(register):
            assert block.x[i, j].tolist() == [(op.x >> (64 * w)) & mask for w in range(words)]
            assert block.z[i, j].tolist() == [(op.z >> (64 * w)) & mask for w in range(words)]
            assert block.phases[i, j] == op.phase
    assert not any(a.flags.writeable for a in (block.x, block.z, block.phases))


@pytest.mark.parametrize("n", [1, 33, 65])
@pytest.mark.parametrize(
    "bitgen", [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox]
)
def test_packed_draw_replays_each_word_stream_generator(bitgen, n):
    params = SchemeParams(n, 40, 3, 0.5)
    ours, theirs = np.random.Generator(bitgen(5)), np.random.Generator(bitgen(5))
    assert_draw_is_the_per_entry_draw(params, ours, theirs)


@pytest.mark.parametrize("n", [1, 2, 6, 33])
def test_packed_draw_starts_from_a_buffered_half(n):
    # one uint32 draw leaves half of a 64-bit word buffered, then a double
    # moves past the next word with the half still buffered
    params = SchemeParams(n, 32, 2, 0.5)
    ours, theirs = np.random.default_rng(n), np.random.default_rng(n)
    for rng in (ours, theirs):
        rng.integers(2**32, dtype=np.uint32)
        rng.random()
    assert ours.bit_generator.state["has_uint32"] == 1
    assert_draw_is_the_per_entry_draw(params, ours, theirs)
    # and from an empty buffer that still holds the last half it gave out
    for rng in (ours, theirs):
        rng.integers(2**32, dtype=np.uint32)
        if rng.bit_generator.state["has_uint32"]:
            rng.integers(2**32, dtype=np.uint32)
    state = ours.bit_generator.state
    assert state["has_uint32"] == 0 and state["uinteger"] != 0
    assert_draw_is_the_per_entry_draw(params, ours, theirs)


def test_packed_draw_redraws_a_zero_key_shorter_than_an_operator():
    # at n=16 a key is one uint32 and an operator two; seed 40 draws a zero
    # key at entry 728, so its redraw reads one more uint32, not two
    rng = np.random.default_rng(40)
    random_stabilizer_state(16, rng)
    zero_keys = []
    for j in range(800):
        rng.random()
        while not _random_bits(rng, 16):
            zero_keys.append(j)
    assert zero_keys == [728]
    params = SchemeParams(16, 800, 1, 1.0)
    assert_draw_is_the_per_entry_draw(params, np.random.default_rng(40), np.random.default_rng(40))


@pytest.mark.parametrize("n", [1, 2])
def test_packed_draw_redraws_a_registers_only_entry(n):
    # at n=1 about 3 in 8 entries draw again; with one entry per register
    # the entry that does is the first, and the last, that its walk reads
    params = SchemeParams(n, 1, 64, 0.5)
    assert_draw_is_the_per_entry_draw(params, np.random.default_rng(n), np.random.default_rng(n))


def test_packed_draw_walks_each_register_at_most_twice_however_many_redraw(monkeypatch):
    # at n=1 a third of the entries draw again; each walk reads every
    # entry once, and a register is walked once without its redraws and
    # once with them (twice more only if its words run out)
    walks = []
    walk_steps = pauli_module._walk_steps

    def counted(step, s, count, top):
        walks.append(count)
        return walk_steps(step, s, count, top)

    monkeypatch.setattr(pauli_module, "_walk_steps", counted)
    params = SchemeParams(1, 3000, 2, 0.5)
    assert_draw_is_the_per_entry_draw(params, np.random.default_rng(3), np.random.default_rng(3))
    assert walks == [3000] * len(walks) and 2 * params.l <= len(walks) <= 4 * params.l


def test_gen_scheme_refuses_mt19937():
    # its doubles read two 32-bit outputs, not one 64-bit word
    rng = np.random.Generator(np.random.MT19937(0))
    state = rng.bit_generator.state
    with pytest.raises(TypeError, match="MT19937"):
        gen_scheme(SchemeParams(4, 8, 2, 0.5), rng)
    assert same_state(rng.bit_generator.state, state)  # refused before any draw


class _PCG64WithoutBuffer(np.random.PCG64):
    """A PCG64 whose state dict lacks the uint32 buffer's value."""

    @property
    def state(self):
        state = super().state
        del state["uinteger"]
        return state


def test_gen_scheme_names_the_stream_fields_its_bit_generator_lacks():
    rng = np.random.Generator(_PCG64WithoutBuffer(0))
    with pytest.raises(TypeError, match="has_uint32 and uinteger.*has no uinteger$"):
        gen_scheme(SchemeParams(4, 8, 256, 0.5), rng)


def test_gen_scheme_builds_no_subset_products(monkeypatch):
    built = []
    init = stabilizer_module._SubsetProducts.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(stabilizer_module._SubsetProducts, "__init__", counted)
    secret, scheme = make(6, 64, 8, 1.0)
    assert built == []
    stab_expectation(secret.states[0], scheme.register(0).ops()[0])
    assert built  # a query builds its table, and the count sees it


def test_secret_states_keep_no_draw_table_from_gen_scheme():
    secret, scheme = make(6, 64, 8, 1.0)
    for state, ops in zip(secret.states, scheme.table):
        assert all(stab_expectation(state, op) == 1 for op in ops)
    assert all("_draw_table" not in vars(state) for state in secret.states)
    random_stabilizer_element(secret.states[0], np.random.default_rng(0))
    assert "_draw_table" in vars(secret.states[0])  # the oracle draw keeps its table on the state


def test_drawn_scheme_keeps_packed_words_at_the_bench_shape():
    # n=6, m=64, l=512: a PauliOp per entry kept 2.27 MiB, the packed table about 0.55 MiB
    make(6, 64, 4, 1 / 128)  # warm up
    tracemalloc.start()
    try:
        scheme = make(6, 64, 512, 1 / 128, seed=1)[1]
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert scheme.params.l == 512
    assert kept <= 0.75 * 2**20, kept


def test_scheme_tables_are_written_in_place():
    # each register goes straight into the (l, m) block: no list of register blocks to stack
    make(6, 64, 4, 1 / 128)  # warm up
    other = make(6, 64, 512, 1 / 128, seed=2)[1]
    table = other.table
    for build in (lambda: make(6, 64, 512, 1 / 128, seed=1), lambda: (None, MoneyScheme(other.params, table))):
        tracemalloc.start()
        try:
            built = build()  # the secret too: it is alive at the peak
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built[1].block.x.shape == (512, 64, 1)
        assert peak - kept <= 0.1 * 2**20, (peak, kept)


def test_schemes_differing_in_one_high_word_bit_are_unequal():
    _, scheme = make(65, 8, 2, 0.5)
    table = [list(register) for register in scheme.table]
    op = table[1][3]
    table[1][3] = PauliOp(65, op.x ^ (1 << 64), op.z, op.phase)
    other = MoneyScheme(scheme.params, table)
    assert other != scheme and other.register(0).ops() == scheme.register(0).ops()
    assert MoneyScheme(scheme.params, scheme.table) == scheme
    assert hash(MoneyScheme(scheme.params, scheme.table)) == hash(scheme)


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


def test_completely_mixed_money_is_one_register_of_n_alone():
    money = completely_mixed_money(SchemeParams(6, 4, 5, 0.5))
    a = money.registers[0]
    assert all(reg is a for reg in money.registers)
    assert a == CompletelyMixedRegister(6) and dataclasses.astuple(a) == (6,)
    with pytest.raises(ValueError):
        CompletelyMixedRegister(0)


def eye_register(n):
    """The completely mixed register as the explicit ensemble of basis vectors e_k."""
    dim = 1 << n
    return DenseMixedRegister(np.full(dim, 1.0 / dim), np.eye(dim, dtype=complex))


def test_completely_mixed_verify_matches_the_eye_ensemble():
    # criterion 02's shape and seeds: same q_values and the same generator state after
    _, scheme = make(8, 64, 1024, 0.25, seed=1002)
    params = scheme.params
    mixed = completely_mixed_money(params)
    assert isinstance(mixed.registers[0], CompletelyMixedRegister)
    oracle = MoneyState((eye_register(8),) * params.l)
    rng, replay = np.random.default_rng(2002), np.random.default_rng(2002)
    for _ in range(50):
        assert verify(scheme, mixed, rng) == verify(scheme, oracle, replay)
    assert rng.bit_generator.state == replay.bit_generator.state


def test_basis_register_expectation_matches_the_eye_ensemble():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        basis, oracle = CompletelyMixedRegister(n), eye_register(n)
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
    for n in (53, 54):
        register = CompletelyMixedRegister(n)
        assert register_expectation(register, -PauliOp.identity(n)) == -1.0
        op = random_pauli(n, rng, allow_identity=False)
        assert register_expectation(register, op) == 0.0
    with pytest.raises(DimensionError):
        register_expectation(CompletelyMixedRegister(3), PauliOp.identity(4))
    with pytest.raises(DimensionError):
        measure_register(CompletelyMixedRegister(3), PauliOp.identity(4), rng)


def test_basis_register_measures_each_basis_state_as_its_vector():
    # the uniform u draws basis state k = floor(u * 2**n); at both ends of
    # k's interval the register reads <k|op|k> off e_k exactly
    rng = np.random.default_rng(12)
    for n in (1, 3, 5):
        dim = 1 << n
        register = CompletelyMixedRegister(n)
        for k in range(dim):
            vec = DenseMixedRegister([1.0], np.eye(dim, dtype=complex)[k : k + 1])
            for u in (k / dim, np.nextafter((k + 1) / dim, 0)):
                for _ in range(8):
                    op = random_pauli(n, rng)
                    op = PauliOp(n, op.x, op.z, op.phase & 2)
                    want = register_expectation(vec, op)
                    assert register.expectation(op, u) == _basis_expectation(op, k) == want
    for n in (1, 3, 5, 53):
        register = CompletelyMixedRegister(n)
        for i in range(64):
            op = random_pauli(n, rng)
            op = PauliOp(n, op.x if i % 2 else 0, op.z, op.phase & 2)  # half of them diagonal
            seed = int(rng.integers(2**32))
            k = int(np.random.default_rng(seed).random() * 2**n)  # the component's uniform
            if n <= 5:
                vec = DenseMixedRegister([1.0], np.eye(1 << n, dtype=complex)[k : k + 1])
                got = measure_register(register, op, np.random.default_rng(seed))
                assert got == measure_register(vec, op, np.random.default_rng(seed))
            e = _basis_expectation(op, k)
            outcome = np.random.default_rng(seed)
            outcome.random()
            want = 1 if outcome.random() < (1.0 + e) / 2.0 else -1
            assert measure_register(register, op, np.random.default_rng(seed)) == want


@pytest.mark.parametrize("n", [12, 64, 1000])
def test_completely_mixed_money_is_small_at_every_n(n):
    # n=12: the eye(2**12) ensemble was 256 MiB, kept for the life of the process
    tracemalloc.start()
    try:
        money = completely_mixed_money(SchemeParams(n, 4, 8, 0.5))
        measure_register(money.registers[0], PauliOp.from_string("+" + "Z" * n), np.random.default_rng(0))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert money.registers[0].n == n


# The uniform ensemble over the basis as a dense register, with the weight
# validation it shares with every DenseMixedRegister.
@pytest.mark.parametrize(
    "weights",
    [
        [0.5, 0.25],  # sums to 0.75
        [1.5, -0.5],  # negative
        [np.nan, 1.0],
        [np.inf, 1.0],
        [1 / 3] * 3,  # not a power of two
        [[0.5, 0.5]],  # not one axis
    ],
)
def test_basis_register_validation(weights):
    w = np.array(weights)
    with pytest.raises(ValueError):
        DenseMixedRegister(w, np.eye(w.shape[-1], dtype=complex))


def test_dense_register_refuses_more_than_the_dense_limit():
    vector = np.zeros((1, 1 << 13), dtype=complex)
    vector[0, 0] = 1.0
    with pytest.raises(CapacityError):
        DenseMixedRegister([1.0], vector)


# n <= 53 draws the basis state from all of u's bits; above, u is too short
# and the register reads Tr[op I/2**n].  Either way each outcome is a fair
# coin: with N = 20,000 draws the +1 count has sigma = sqrt(N)/2 ~ 70.7, and
# it must lie within 4.5 sigma of N/2 (a false failure once in ~150,000 runs).
_FAIR_DRAWS = 20_000
_FAIR_BOUND = 4.5 * math.sqrt(_FAIR_DRAWS) / 2


@pytest.mark.parametrize("n", [53, 54, 64, 65])
def test_completely_mixed_z_outcomes_are_fair_coins_beyond_53_qubits(n):
    register = CompletelyMixedRegister(n)
    rng = np.random.default_rng(n)
    for qubit in (0, n - 1):
        z = PauliOp(n, 0, 1 << qubit, 0)
        plus = sum(measure_register(register, z, rng) == 1 for _ in range(_FAIR_DRAWS))
        assert abs(plus - _FAIR_DRAWS / 2) <= _FAIR_BOUND, (qubit, plus)
    # +-I keeps its sign with probability 1
    for sign, op in ((1, PauliOp.identity(n)), (-1, -PauliOp.identity(n))):
        assert {measure_register(register, op, rng) for _ in range(1000)} == {sign}


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


def per_register_verify(scheme, money, rng):
    """verify as one measure_register call per register: the one-pass verify's oracle."""
    p = scheme.params
    chosen = rng.integers(0, p.m, size=p.l)
    total = sum(
        measure_register(reg, row[j], rng)
        for reg, row, j in zip(money.registers, scheme.table, chosen)
    )
    return total / p.l, Fraction(total, p.l) >= Fraction(str(p.epsilon)) / 2


def forged_money(scheme, rng, monkeypatch=None):
    """Sample-mode low-eps forgery; given monkeypatch, every register falls back."""
    hams = [register_hamiltonian(ops) for ops in scheme.table]
    if monkeypatch is None:
        return forge_low_eps_with_records(hams, rng)[0]
    with monkeypatch.context() as patch:
        # phase 0 lies below the accept window, so every draw misses it
        patch.setattr(phase_module, "pe_sample", lambda phi, q, rng: 0)
        return forge_low_eps_with_records(hams, rng)[0]


# (n, m, l): l = 37 is no multiple of the dense blocks (16 registers at n=6)
_ONE_PASS_SHAPES = [(3, 16, 37), (6, 64, 37), (1, 8, 5)]


@pytest.mark.parametrize("entries", [None, 1, 3 << 6])
@pytest.mark.parametrize("n, m, l", _ONE_PASS_SHAPES)
def test_one_pass_verify_equals_the_per_register_loop(n, m, l, entries, monkeypatch):
    if entries is not None:  # one register per block, and 3 per block at n=6
        monkeypatch.setattr(money_module, "_VERIFY_ENTRIES", entries)
    secret, scheme = make(n, m, l, 0.25, seed=n)
    rng = np.random.default_rng(n + 1)
    forged = forged_money(scheme, rng)
    fallback = forged_money(scheme, rng, monkeypatch)
    analysis = forge_low_eps_with_records(
        [register_hamiltonian(ops) for ops in scheme.table], mode="analysis"
    )[0]
    assert any(len(reg.weights) == 1 for reg in forged.registers)
    assert all(len(reg.weights) == 1 << n for reg in fallback.registers)
    kinds = [honest_money(secret), completely_mixed_money(scheme.params), forged, fallback]
    interleaved = MoneyState(
        tuple(kinds[i % 4].registers[i] if i % 5 else analysis.registers[i] for i in range(l))
    )
    for money in (*kinds, analysis, interleaved):
        for seed in range(4):
            ours, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            out = verify(scheme, money, ours)
            assert (out.q_value, out.accepted) == per_register_verify(scheme, money, loop)
            assert ours.bit_generator.state == loop.bit_generator.state


def test_verify_queries_each_stabilizer_register_once(monkeypatch):
    # the benchmark's self-test pins clique-attack's stab_expectation calls at 2*l*m + trials*l
    calls = []
    original = money_module.stab_expectation
    monkeypatch.setattr(
        money_module, "stab_expectation", lambda *args: calls.append(args) or original(*args)
    )
    secret, scheme = make(4, 8, 9, 0.5, seed=6)
    honest = honest_money(secret)
    verify(scheme, honest, np.random.default_rng(0))
    assert [state for state, _ in calls] == list(secret.states)
    calls.clear()
    mixed = completely_mixed_money(scheme.params)
    money = MoneyState(tuple((honest, mixed)[i % 2].registers[i] for i in range(9)))
    verify(scheme, money, np.random.default_rng(0))
    assert [state for state, _ in calls] == list(secret.states[::2])


def test_verify_builds_only_the_chosen_entry_of_each_register(monkeypatch):
    # a whole register per verify would be l*m PauliOps, 327,680 per low-eps-forgery run
    secret, scheme = make(4, 8, 9, 0.5, seed=6)
    money = honest_money(secret)
    built = []
    original = PauliOp._trusted.__func__

    def counted(cls, *args):
        op = original(cls, *args)
        built.append(op)
        return op

    table = scheme.table
    with monkeypatch.context() as patch:
        patch.setattr(PauliOp, "_trusted", classmethod(counted))
        verify(scheme, money, np.random.default_rng(0))
    chosen = np.random.default_rng(0).integers(0, 8, size=9)
    assert built == [table[i][j] for i, j in enumerate(chosen)]


def test_verify_transient_memory_is_a_block_at_the_bench_shape():
    # low-eps-forgery's shape: n=6, l=512 dense registers, single vectors and fallbacks
    _, scheme = make(6, 8, 512, 1 / 128, seed=7)
    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(512, 64)) + 1j * rng.normal(size=(512, 64))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    uniform = DenseMixedRegister(np.full(64, 1 / 64), np.linalg.qr(vectors[:64].T)[0].T)
    money = MoneyState(
        tuple(
            uniform if i % 8 == 0 else DenseMixedRegister([1.0], v[None])
            for i, v in enumerate(vectors)
        )
    )
    verify(scheme, money, np.random.default_rng(0))  # warm up: imports and each register's cumsum
    tracemalloc.start()
    try:
        verify(scheme, money, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**19, peak
