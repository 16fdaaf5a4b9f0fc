"""Pauli algebra against dense-matrix oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmoney import (
    DimensionError,
    PauliOp,
    apply_pauli,
    commutation_matrix,
    commutes,
    dense_matrix,
    expectation,
    pauli_mul,
    random_pauli,
    symplectic_ip,
)
from qmoney.errors import CapacityError
from qmoney.pauli import PauliBlock, _random_bits, random_pauli_block

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
MATS = {"I": I2.astype(complex), "X": X, "Y": Y, "Z": Z}


def dense_oracle(op: PauliOp) -> np.ndarray:
    """kron over qubits, qubit 0 = least significant axis."""
    out = np.array([[1j ** op.phase]])
    for j in range(op.n):
        xb, zb = (op.x >> j) & 1, (op.z >> j) & 1
        letter = "IXZY"[xb + 2 * zb] if xb + 2 * zb != 3 else "Y"
        single = MATS[letter]
        if xb and zb:
            single = 1j * X @ Z  # Y = iXZ, matches the phase convention
        elif xb:
            single = X
        elif zb:
            single = Z
        else:
            single = I2.astype(complex)
        out = np.kron(single, out)
    return out


def test_single_qubit_multiplication_table():
    letters = ["I", "X", "Y", "Z"]
    for a in letters:
        for b in letters:
            pa, pb = PauliOp.from_string("+" + a), PauliOp.from_string("+" + b)
            got = dense_matrix(pauli_mul(pa, pb))
            want = MATS[a] @ MATS[b]
            assert np.allclose(got, want), (a, b)


def test_signed_single_qubit_identities():
    cases = [
        ("+X", "+Z", "-iY"),
        ("+Z", "+X", "+iY"),
        ("+X", "+Y", "+iZ"),
        ("+Y", "+X", "-iZ"),
        ("+Z", "+Y", "-iX"),
        ("+Y", "+Z", "+iX"),
        ("+Y", "+Y", "+I"),
        ("-X", "+X", "-I"),
    ]
    for a, b, want in cases:
        got = pauli_mul(PauliOp.from_string(a), PauliOp.from_string(b))
        assert got == PauliOp.from_string(want), (a, b, str(got))


def test_random_products_vs_dense():
    rng = np.random.default_rng(10)
    for _ in range(300):
        a, b = random_pauli(3, rng), random_pauli(3, rng)
        assert np.allclose(
            dense_matrix(pauli_mul(a, b)), dense_matrix(a) @ dense_matrix(b)
        )


def test_dense_matrix_matches_kron_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        op = random_pauli(4, rng)
        assert np.allclose(dense_matrix(op), dense_oracle(op))


def test_square_is_plus_or_minus_identity():
    rng = np.random.default_rng(12)
    for _ in range(200):
        op = random_pauli(4, rng)
        square = pauli_mul(op, op)
        # P^2 = +-I always; = +I exactly when the phase is 0 or 2 (Hermitian)
        assert square.is_identity
        if op.is_hermitian:
            assert square == PauliOp.identity(op.n)


def test_string_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(100):
        op = random_pauli(6, rng)
        assert PauliOp.from_string(op.to_string()) == op
    assert PauliOp.from_string("+XIZ").x == 0b001
    assert PauliOp.from_string("+XIZ").z == 0b100  # letter j acts on qubit j
    assert str(PauliOp.from_string("-iYX")) == "-iYX"


def test_from_string_rejects_garbage():
    for bad in ["", "+", "XQ", "+XQ", "++X", "Xi"]:
        with pytest.raises(ValueError):
            PauliOp.from_string(bad)


def test_commutes_vs_dense():
    rng = np.random.default_rng(14)
    for _ in range(300):
        a, b = random_pauli(3, rng), random_pauli(3, rng)
        da, db = dense_matrix(a), dense_matrix(b)
        dense_commute = np.allclose(da @ db, db @ da)
        assert commutes(a, b) == dense_commute
        assert symplectic_ip(a, b) == (0 if dense_commute else 1)


def test_commutation_matrix_matches_pairwise():
    rng = np.random.default_rng(15)
    # n=70 forces multi-word packing
    ops = [random_pauli(70, rng) for _ in range(40)]
    mat = commutation_matrix(ops)
    assert mat.dtype == np.uint8
    for i in range(40):
        for j in range(40):
            assert mat[i, j] == (1 if commutes(ops[i], ops[j]) else 0)


def test_apply_pauli_vs_dense():
    rng = np.random.default_rng(16)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    for _ in range(100):
        op = random_pauli(4, rng)
        assert np.allclose(apply_pauli(op, v), dense_matrix(op) @ v)


def test_expectation_vs_dense():
    rng = np.random.default_rng(17)
    for _ in range(100):
        op = random_pauli(4, rng)
        if not op.is_hermitian:
            op = PauliOp(op.n, op.x, op.z, op.phase + 1)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v /= np.linalg.norm(v)
        want = (v.conj() @ dense_matrix(op) @ v).real
        assert abs(expectation(op, v) - want) < 1e-12


def test_expectation_requires_hermitian():
    v = np.zeros(2, dtype=complex)
    v[0] = 1.0
    with pytest.raises(ValueError):
        expectation(PauliOp.from_string("+iX"), v)


def test_random_pauli_is_roughly_uniform():
    rng = np.random.default_rng(18)
    counts = {}
    draws = 16000
    for _ in range(draws):
        op = random_pauli(2, rng)
        assert op.is_hermitian  # sampler draws measurement operators: +-P only
        counts[(op.x, op.z, op.phase)] = counts.get((op.x, op.z, op.phase), 0) + 1
    assert len(counts) == 32  # 16 bases x 2 signs
    # chi-square against uniform; 99.9th percentile of chi2(31) is ~61
    expected = draws / 32
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 65, chi2


def test_random_pauli_allow_identity_flag():
    rng = np.random.default_rng(19)
    for _ in range(500):
        assert not random_pauli(2, rng, allow_identity=False).is_identity


def _footprint(make, fields):
    """Bytes tracemalloc sees kept by the operators made from fields."""
    tracemalloc.start()
    ops = [make(*f) for f in fields]
    kept, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(ops) == len(fields)
    return kept


def test_trusted_ops_equal_public_ops_and_take_the_same_memory():
    rng = np.random.default_rng(20)
    fields = []
    for n in (1, 2, 6, 50, 64, 65, 128):
        for _ in range(300):
            fields.append((n, _random_bits(rng, n), _random_bits(rng, n), int(rng.integers(4))))
    for f in fields:
        fast, public = PauliOp._trusted(*f), PauliOp(*f)
        assert fast == public and hash(fast) == hash(public) and str(fast) == str(public)
    for n in (1, 7, 50, 128):
        op = random_pauli(n, rng)
        public = PauliOp(op.n, op.x, op.z, op.phase)
        assert op == public and hash(op) == hash(public) and str(op) == str(public)
    for op in (PauliOp._trusted(*fields[0]), PauliOp(*fields[0])):
        assert not hasattr(op, "__dict__")  # slots: no dict per operator
    _footprint(PauliOp, fields)  # warm up
    public, fast = _footprint(PauliOp, fields), _footprint(PauliOp._trusted, fields)
    assert fast <= public * 1.01, (fast, public)


def test_random_pauli_rejects_zero_qubits():
    with pytest.raises(ValueError):
        random_pauli(0, np.random.default_rng(21))


@pytest.mark.parametrize("nbits", [0, 1, 13, 31, 32, 33, 64, 65, 96, 101, 129])
def test_random_bits_reads_the_rng_bytes_stream(nbits):
    # Every width gives the draw, and leaves the generator state, of both
    # older paths: rng.bytes, and uint32 words from rng.integers.  The draws
    # are interleaved with the generator's other draws, including single
    # uint32 words, which PCG64 serves from half of a buffered 64-bit output.
    fast = np.random.default_rng(51)
    by_bytes, by_words = np.random.default_rng(51), np.random.default_rng(51)
    mask = (1 << nbits) - 1
    for _ in range(200):
        want = int.from_bytes(by_bytes.bytes((nbits + 7) // 8), "little") & mask if nbits else 0
        words = [int(by_words.integers(2**32, dtype=np.uint32)) for _ in range(0, nbits, 32)]
        assert sum(w << (32 * i) for i, w in enumerate(words)) & mask == want
        assert _random_bits(fast, nbits) == want
        assert fast.random() == by_bytes.random() == by_words.random()
        word = int(fast.integers(2**32, dtype=np.uint32))
        assert word == int(by_bytes.integers(2**32, dtype=np.uint32))
        assert word == int(by_words.integers(2**32, dtype=np.uint32))
        assert fast.bit_generator.state == by_bytes.bit_generator.state
        assert fast.bit_generator.state == by_words.bit_generator.state


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("count", [1, 50])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 63, 64, 65, 100])
def test_random_pauli_block_is_the_random_pauli_loop(n, count, buffered):
    # The block draw reads the loop's uint32 words and drops its +-I rows,
    # also when the generator holds half of a 64-bit output from one prior
    # uint32 draw; the operators and the generator state after the draw are
    # the loop's.
    seed = 1000 * n + count
    loop, block_rng, words = (np.random.default_rng(seed) for _ in range(3))
    if buffered:
        for rng in (loop, block_rng, words):
            rng.integers(2**32, dtype=np.uint32)
    ops = [random_pauli(n, loop, allow_identity=False) for _ in range(count)]
    block = random_pauli_block(n, count, block_rng)
    want = PauliBlock.of(ops)
    nwords = (n + 63) // 64
    assert block.n == n and len(block) == count
    assert block.x.shape == block.z.shape == (count, nwords) and block.x.dtype == np.uint64
    assert block.phases.dtype == np.uint8
    for got, ref in ((block.x, want.x), (block.z, want.z), (block.phases, want.phases)):
        assert np.array_equal(got, ref)
    assert block_rng.bit_generator.state == loop.bit_generator.state
    # at n=1 a row is +-I a quarter of the time: 50 operators took redraws
    words.integers(2**32, size=count * ((2 * n + 32) // 32), dtype=np.uint32)
    if n == 1 and count == 50:
        assert words.bit_generator.state != loop.bit_generator.state


def test_pauli_block_of_needs_operators_on_one_qubit_count():
    with pytest.raises(DimensionError):
        PauliBlock.of([PauliOp.identity(2), PauliOp.identity(3)])
    with pytest.raises(ValueError):
        PauliBlock.of([])
    block = random_pauli_block(5, 3, np.random.default_rng(0))
    assert PauliBlock.of(block) is block
    with pytest.raises(ValueError):
        random_pauli_block(0, 3, np.random.default_rng(0))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_pauli_block_ops_are_the_packed_operators(n):
    rng = np.random.default_rng(n)
    full = (1 << n) - 1
    ops = [random_pauli(n, rng) for _ in range(40)]
    ops += [PauliOp(n, full, full, 1), PauliOp(n, 1 << (n - 1), 0, 3), PauliOp.identity(n)]
    assert PauliBlock.of(ops).ops() == tuple(ops)


def test_pauli_block_indexes_and_writes_its_leading_axes():
    rng = np.random.default_rng(3)
    table = [[random_pauli(65, rng) for _ in range(5)] for _ in range(4)]
    block = PauliBlock.zeros(65, (4, 5))
    assert block.x.shape == block.z.shape == (4, 5, 2) and block.phases.shape == (4, 5)
    assert block[0].ops() == (PauliOp.identity(65),) * 5
    for i, register in enumerate(table):
        block[i] = PauliBlock.of(register)

    def assert_same(got, want):
        assert got.n == want.n
        for a, b in ((got.x, want.x), (got.z, want.z), (got.phases, want.phases)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    for i, register in enumerate(table):
        assert_same(block[i], PauliBlock.of(register))
        assert block[i].ops() == tuple(register)
    rows, cols = np.arange(4), np.array([4, 0, 2, 2])
    chosen = [table[i][j] for i, j in zip(rows, cols)]
    assert_same(block[rows, cols], PauliBlock.of(chosen))
    assert block[rows, cols].ops() == tuple(chosen)


def test_pauli_blocks_do_not_compare_by_value():
    ops = [PauliOp.from_string("+XZ"), PauliOp.from_string("-YI")]
    block = PauliBlock.of(ops)
    with pytest.raises(TypeError):
        block == PauliBlock.of(ops)
    with pytest.raises(TypeError):
        block != block
    assert block.ops() == PauliBlock.of(ops).ops()


def test_dense_capacity_guard():
    with pytest.raises(CapacityError):
        dense_matrix(PauliOp.identity(13))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        pauli_mul(PauliOp.identity(2), PauliOp.identity(3))


def test_is_identity_ignores_the_sign():
    assert not PauliOp.from_string("-IXIZ").is_identity
    assert PauliOp.from_string("-IIII").is_identity  # sign ignored for base test


@st.composite
def pauli_triples(draw):
    """Three phased Paulis on the same n <= 3 qubits."""
    n = draw(st.integers(1, 3))
    op = st.builds(PauliOp, st.just(n), st.integers(0, (1 << n) - 1),
                   st.integers(0, (1 << n) - 1), st.integers(0, 3))
    return draw(op), draw(op), draw(op)


@settings(deadline=None, max_examples=150)
@given(pauli_triples())
def test_pauli_mul_is_associative_and_matches_dense_property(ops):
    a, b, c = ops
    assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))
    assert np.allclose(dense_matrix(pauli_mul(a, b)), dense_oracle(a) @ dense_oracle(b))
