"""Signed n-qubit Pauli operators as packed GF(2) bit vectors.

A ``PauliOp`` stores ``(n, x, z, phase)`` where ``x`` and ``z`` are ints
holding one bit per qubit.  Bit ``j`` of ``x`` is set iff the tensor factor
on qubit ``j`` is X or Y; bit ``j`` of ``z`` is set iff it is Y or Z.  The
operator denoted is

    i**phase * (A_{n-1} (x) ... (x) A_1 (x) A_0),

with every ``A_j`` in {I, X, Y, Z} (the Hermitian single-qubit letters) and
``phase`` an exponent of i modulo 4.  Hermitian operators therefore carry
phase 0 (``+``) or 2 (``-``).

Qubit ``j`` corresponds to bit ``j`` of a basis-state index (little
endian), so the dense matrix of an operator is ``kron(A_{n-1}, ..., A_0)``.

Two operators commute iff their symplectic inner product
``popcount(x1 & z2) + popcount(z1 & x2)`` is even.  Products are computed
without ever touching a matrix: the accumulated power of i follows from
four popcounts (see ``pauli_mul``).

A ``PauliBlock`` holds an array of operators as packed words and is the
one code that knows that layout (a scheme's table is an (l, m) block).
``random_pauli_block`` draws one with the draws of a ``random_pauli``
loop, and the commutation kernel reads the words in blocks of rows for
``commutation_matrix`` and the eigenvalue check's sign matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, DimensionError

__all__ = [
    "DENSE_LIMIT",
    "PauliOp",
    "PauliBlock",
    "symplectic_ip",
    "commutes",
    "pauli_mul",
    "random_pauli",
    "random_pauli_block",
    "dense_matrix",
    "apply_pauli",
    "expectation",
    "commutation_matrix",
]

# Largest qubit count for which 2**n-sized dense objects may be built.
DENSE_LIMIT = 12

_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_PHASE = {"+": 0, "": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}

_DENSE_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True, slots=True)
class PauliOp:
    """A signed (more generally, i-power-phased) Pauli operator on n qubits."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        mask = (1 << self.n) - 1
        if not 0 <= self.x <= mask or not 0 <= self.z <= mask:
            raise ValueError("x/z bits out of range for n qubits")
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def _trusted(cls, n: int, x: int, z: int, phase: int) -> "PauliOp":
        """An operator whose fields already pass __post_init__, not checked again.

        n >= 1, 0 <= x, z < 2**n and phase in 0..3.  The fields are slots,
        set with object.__setattr__ as the frozen dataclass __init__ sets
        them.
        """
        op = object.__new__(cls)
        object.__setattr__(op, "n", n)
        object.__setattr__(op, "x", x)
        object.__setattr__(op, "z", z)
        object.__setattr__(op, "phase", phase)
        return op

    @classmethod
    def identity(cls, n: int) -> "PauliOp":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_string(cls, text: str) -> "PauliOp":
        """Parse ``[+|-|+i|-i]LLL...`` where letter ``j`` acts on qubit ``j``."""
        body = text.lstrip("+-i")
        prefix = text[: len(text) - len(body)]
        if prefix not in _PREFIX_PHASE:
            raise ValueError(f"bad phase prefix {prefix!r} in {text!r}")
        if not body:
            raise ValueError(f"no Pauli letters in {text!r}")
        x = z = 0
        for j, ch in enumerate(body):
            if ch not in _LETTER_BITS:
                raise ValueError(f"bad Pauli letter {ch!r} in {text!r}")
            xb, zb = _LETTER_BITS[ch]
            x |= xb << j
            z |= zb << j
        return cls(len(body), x, z, _PREFIX_PHASE[prefix])

    def to_string(self) -> str:
        letters = "".join(
            _BITS_LETTER[(self.x >> j) & 1, (self.z >> j) & 1] for j in range(self.n)
        )
        return _PHASE_PREFIX[self.phase] + letters

    def __str__(self) -> str:
        return self.to_string()

    @property
    def row(self) -> int:
        """The 2n-bit GF(2) row [x | z] (z in the high half)."""
        return self.x | (self.z << self.n)

    @property
    def is_identity(self) -> bool:
        """True iff every tensor factor is I (the sign is ignored)."""
        return (self.x | self.z) == 0

    @property
    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    def __neg__(self) -> "PauliOp":
        return PauliOp(self.n, self.x, self.z, self.phase + 2)

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        return pauli_mul(self, other)


def _check_same_n(a: PauliOp, b: PauliOp) -> None:
    if a.n != b.n:
        raise DimensionError(f"operand qubit counts differ: {a.n} != {b.n}")


def symplectic_ip(a: PauliOp, b: PauliOp) -> int:
    """Symplectic inner product of the GF(2) vectors; 0 iff the pair commutes."""
    _check_same_n(a, b)
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1


def commutes(a: PauliOp, b: PauliOp) -> bool:
    return symplectic_ip(a, b) == 0


def pauli_mul(a: PauliOp, b: PauliOp) -> PauliOp:
    """Product ``a * b`` with the exact power of i.

    Per qubit, writing the Hermitian letters as i**(x*z) X**x Z**z, the
    product picks up i**(za*xb) twice (from commuting Z past X) plus the
    difference of the letters' own i**(x*z) normalisations; summed over
    qubits that is four popcounts.
    """
    _check_same_n(a, b)
    x = a.x ^ b.x
    z = a.z ^ b.z
    g = (a.x & a.z).bit_count() + (b.x & b.z).bit_count() + 2 * (a.z & b.x).bit_count()
    return PauliOp(a.n, x, z, a.phase + b.phase + g - (x & z).bit_count())


def _random_bits(rng: np.random.Generator, nbits: int) -> int:
    """nbits uniform bits: ceil(nbits/32) uint32 words, little endian.

    The words come straight from the bit generator's C next_uint32, with
    none of the array setup that rng.bytes pays per call.
    Generator.bytes and Generator.integers(2**32, dtype=uint32) read the
    same words, so the bits, and the generator state after the draw, are
    theirs.  Zero bits draw nothing.
    """
    bitgen = rng.bit_generator.ctypes
    next_uint32, state = bitgen.next_uint32, bitgen.state
    bits = 0
    for shift in range(0, nbits, 32):
        bits |= next_uint32(state) << shift
    return bits & ((1 << nbits) - 1)


def random_pauli(
    n: int, rng: np.random.Generator, *, allow_identity: bool = True
) -> PauliOp:
    """Uniform signed Hermitian Pauli on n qubits (2 * 4**n choices).

    With ``allow_identity=False`` the two operators +-I are excluded by
    resampling, leaving the uniform distribution on the rest.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    while True:
        bits = _random_bits(rng, 2 * n + 1)
        x = bits & ((1 << n) - 1)
        z = (bits >> n) & ((1 << n) - 1)
        if x | z or allow_identity:
            return PauliOp._trusted(n, x, z, 2 * (bits >> (2 * n)))


def _check_capacity(n: int) -> None:
    if n > DENSE_LIMIT:
        raise CapacityError(f"dense objects limited to {DENSE_LIMIT} qubits, got n={n}")


def dense_matrix(op: PauliOp) -> np.ndarray:
    """The 2**n x 2**n complex matrix of ``op`` (little-endian qubit order)."""
    _check_capacity(op.n)
    out = np.array([[1j ** op.phase]])
    for j in reversed(range(op.n)):
        letter = _BITS_LETTER[(op.x >> j) & 1, (op.z >> j) & 1]
        out = np.kron(out, _DENSE_1Q[letter])
    return out


def apply_pauli(op: PauliOp, vec: np.ndarray) -> np.ndarray:
    """Apply ``op`` to a statevector without building the matrix.

    ``op|b> = i**(phase + popcount(x & z)) * (-1)**popcount(z & b) |b ^ x>``.
    """
    _check_capacity(op.n)
    size = 1 << op.n
    vec = np.asarray(vec)
    if vec.shape != (size,):
        raise DimensionError(f"expected a vector of length {size}, got {vec.shape}")
    idx = np.arange(size, dtype=np.uint64)
    parities = np.bitwise_count(idx & np.uint64(op.z)).astype(np.int8) & 1
    coeff = 1j ** ((op.phase + (op.x & op.z).bit_count()) % 4)
    out = np.empty(size, dtype=complex)
    out[idx ^ np.uint64(op.x)] = coeff * (1 - 2 * parities) * vec
    return out


def expectation(op: PauliOp, vec: np.ndarray) -> float:
    """<v|op|v> for a Hermitian op and a (normalised) statevector."""
    if not op.is_hermitian:
        raise ValueError("expectation defined for Hermitian operators only")
    val = np.vdot(vec, apply_pauli(op, vec)).real
    return float(min(1.0, max(-1.0, val)))


# Words per uint64 temporary of the commutation kernel: 512 KiB, so a block
# of rows stays in cache (32 rows at m=2000).
_BLOCK_WORDS = 1 << 16


def _pack_words(vals: list[int], nwords: int) -> np.ndarray:
    """(nwords, len(vals)) uint64: row w holds word w of every value."""
    mask = (1 << 64) - 1
    words = [[(v >> (64 * w)) & mask for v in vals] for w in range(nwords)]
    return np.array(words, dtype=np.uint64)


def _ints(words: np.ndarray) -> list[int]:
    """The ints of (k, W) uint64 words, word 0 the lowest: one tolist per word column."""
    vals = words[:, 0].tolist()
    for w in range(1, words.shape[1]):
        vals = [v | u << (64 * w) for v, u in zip(vals, words[:, w].tolist())]
    return vals


@dataclass(frozen=True, eq=False)
class PauliBlock:
    """Signed Paulis on n qubits as packed words, in an array of leading shape S.

    The operator at index s has x bits x[s] and z bits z[s], W = ceil(n/64)
    uint64 words each (word 0 the lowest), and phase phases[s] (uint8):
    x and z are S + (W,) and phases is S.  block[key] indexes the leading
    axes, so a 2-D table's block[i] is its row i and block[rows, cols]
    one entry of each chosen row; block[key] = other writes other's
    words there.  Blocks do not compare by value: == raises TypeError, and
    ops() gives the value form.
    """

    n: int
    x: np.ndarray
    z: np.ndarray
    phases: np.ndarray

    def __len__(self) -> int:
        return len(self.phases)

    def __getitem__(self, key) -> PauliBlock:
        return PauliBlock(self.n, self.x[key], self.z[key], self.phases[key])

    def __setitem__(self, key, value: PauliBlock) -> None:
        self.x[key], self.z[key], self.phases[key] = value.x, value.z, value.phases

    def __eq__(self, other):
        raise TypeError("PauliBlocks do not compare by value; compare their ops()")

    @classmethod
    def zeros(cls, n: int, shape: tuple[int, ...]) -> PauliBlock:
        """A block of leading shape S, all words and phases 0, to be written in place."""
        words = shape + ((n + 63) // 64,)
        x, z = np.zeros(words, np.uint64), np.zeros(words, np.uint64)
        return cls(n, x, z, np.zeros(shape, np.uint8))

    @classmethod
    def _pack(cls, n: int, xs: Sequence[int], zs: Sequence[int], phases: Sequence[int]) -> PauliBlock:
        """The 1-D block of operators (n, xs[k], zs[k], phases[k]), fields unchecked."""
        nwords = (n + 63) // 64
        # (count, W) views of (W, count) arrays, which the kernel reads unchanged
        x, z = _pack_words(xs, nwords).T, _pack_words(zs, nwords).T
        return cls(n, x, z, np.array(phases, dtype=np.uint8))

    @classmethod
    def of(cls, ops: Sequence[PauliOp] | PauliBlock) -> PauliBlock:
        """A block as it is, or a nonempty list of operators packed once."""
        if isinstance(ops, PauliBlock):
            return ops
        if not ops:
            raise ValueError("need at least one operator")
        n = ops[0].n
        if any(op.n != n for op in ops):
            raise DimensionError("operators act on different qubit counts")
        return cls._pack(n, [op.x for op in ops], [op.z for op in ops], [op.phase for op in ops])

    def ops(self) -> tuple[PauliOp, ...]:
        """The PauliOps of a 1-D block."""
        return tuple(
            PauliOp._trusted(self.n, x, z, p)
            for x, z, p in zip(_ints(self.x), _ints(self.z), self.phases.tolist())
        )


def random_pauli_block(n: int, count: int, rng: np.random.Generator) -> PauliBlock:
    """count draws of random_pauli(n, rng, allow_identity=False), as packed words.

    Each operator reads k = ceil((2n+1)/32) uint32 words, little endian:
    x is bits 0..n-1, z bits n..2n-1 and the sign bit 2n.  All rows come
    from rng.integers(2**32, uint32), which reads the words _random_bits
    reads; a +-I row is dropped and one more row drawn after the rest, as
    the scalar loop redraws it.  So the operators, and the generator state
    after the draw, are the loop's.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    k = (2 * n + 32) // 32
    bits = np.empty((0, 32 * k), dtype=np.uint8)
    while len(bits) < count:
        words = rng.integers(2**32, size=(count - len(bits), k), dtype=np.uint32)
        drawn = np.unpackbits(words.astype("<u4", copy=False).view(np.uint8), axis=1, bitorder="little")
        bits = np.concatenate([bits, drawn[drawn[:, : 2 * n].any(axis=1)]])
    nbytes = 8 * ((n + 63) // 64)

    def words_of(columns: np.ndarray) -> np.ndarray:
        out = np.zeros((count, nbytes), dtype=np.uint8)
        packed = np.packbits(columns, axis=1, bitorder="little")
        out[:, : packed.shape[1]] = packed
        return out.view("<u8").astype(np.uint64)

    return PauliBlock(n, words_of(bits[:, :n]), words_of(bits[:, n : 2 * n]), 2 * bits[:, 2 * n])


def _anticommuting_rows(block: PauliBlock) -> Iterator[tuple[int, int, np.ndarray]]:
    """(lo, hi, parity) per block of rows: parity[i - lo, j] is 1 iff ops i and j anticommute.

    The symplectic product's parity is the parity of one popcount: the XOR,
    over the 64-bit words, of (x_i & z_j) ^ (z_i & x_j).  Rows go in blocks
    of at most _BLOCK_WORDS / m, so the temporaries are a block, not
    m x m; parity is a (hi - lo, m) uint8 buffer that the next block
    overwrites.  Cost O(m**2 * n / 64).
    """
    m = len(block)
    xs, zs = np.ascontiguousarray(block.x.T), np.ascontiguousarray(block.z.T)
    rows = max(1, min(m, _BLOCK_WORDS // m))
    acc = np.empty((rows, m), dtype=np.uint64)
    tmp = np.empty_like(acc)
    parity = np.empty((rows, m), dtype=np.uint8)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        a, t, p = acc[: hi - lo], tmp[: hi - lo], parity[: hi - lo]
        a.fill(0)
        for w in range(len(xs)):
            np.bitwise_and(xs[w, lo:hi, None], zs[w], out=t)
            a ^= t
            np.bitwise_and(zs[w, lo:hi, None], xs[w], out=t)
            a ^= t
        np.bitwise_count(a, out=p)
        p &= 1
        yield lo, hi, p


def commutation_matrix(ops: Sequence[PauliOp] | PauliBlock) -> np.ndarray:
    """Symmetric 0/1 matrix: entry (i, j) is 1 iff ops[i] and ops[j] commute.

    Each block of the commutation kernel's parities is written straight
    into the uint8 result.
    """
    if len(ops) == 0:
        return np.zeros((0, 0), dtype=np.uint8)
    block = PauliBlock.of(ops)
    out = np.empty((len(block), len(block)), dtype=np.uint8)
    for lo, hi, parity in _anticommuting_rows(block):
        np.bitwise_xor(parity, 1, out=out[lo:hi])  # parity 0 means the pair commutes
    return out
