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
    "pauli_mul",
    "random_pauli",
    "random_pauli_block",
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
    def _of_bits(cls, x: np.ndarray, z: np.ndarray, phases: np.ndarray) -> PauliBlock:
        """The 1-D block of (count, n) 0/1 uint8 x and z bits (bit j: qubit j) and uint8 phases."""
        count, n = x.shape
        nbytes = 8 * ((n + 63) // 64)

        def words_of(columns: np.ndarray) -> np.ndarray:
            out = np.zeros((count, nbytes), dtype=np.uint8)
            packed = np.packbits(columns, axis=1, bitorder="little")
            out[:, : packed.shape[1]] = packed
            return out.view("<u8").astype(np.uint64)

        return cls(n, words_of(x), words_of(z), phases)

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
    return PauliBlock._of_bits(bits[:, :n], bits[:, n : 2 * n], 2 * bits[:, 2 * n])


# The bit generators whose draws read one stream of 64-bit words by one
# rule: a double takes a whole word w as (w >> 11) * 2**-53, and
# next_uint32 returns the buffered high half if there is one, else a new
# word's low half, buffering its high half.  MT19937's doubles read two
# 32-bit outputs.
_WORD_STREAMS = (np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox)


class _EntryReplay:
    """Batches of a scheme's entry draws, read from the generator's raw words.

    An entry draws u = rng.random(), then, if u < p, an n-bit key by
    _random_bits(rng, n), redrawn while it is 0, and otherwise the 2n+1
    bits of random_pauli(n, rng, allow_identity=False).  ``entries`` finds
    a batch's draws in the words that random_raw reads from a copy of the
    bit generator (made once), then moves the generator past the words
    they use and sets its uint32 buffer as they leave it, so the
    generator's whole state is the draws'.

    Word 0 holds the buffered half, if any, as its high half, and the
    generator's next words follow.  Half h is the low (h even) or high
    (h odd) 32 bits of word h // 2.  An entry that starts at cursor s
    (s = 2p - has_uint32, p the next unread word) takes word (s + 1) // 2
    for its double and reads its uint32s from halves s + 2, s + 3, ...,
    except that the first is the buffered half s when s is odd.  After
    T uint32s the next entry starts at s + T + 2, and a redraw reads the
    T halves from there.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, _WORD_STREAMS):
            raise TypeError(
                "the scheme draw replays the words of PCG64, PCG64DXSM, SFC64 or "
                f"Philox, not of {type(bitgen).__name__}"
            )
        state = bitgen.state
        missing = [key for key in ("has_uint32", "uinteger") if key not in state]
        if missing:
            raise TypeError(
                "the scheme draw reads and sets the uint32 buffer fields has_uint32 and "
                f"uinteger of the bit generator's state; {type(bitgen).__name__}'s state "
                f"has no {' or '.join(missing)}"
            )
        self.bitgen, self.copy, self.n = bitgen, type(bitgen)(), n
        k_op = (2 * n + 32) // 32
        self.sizes = k_op, (n + 31) // 32  # uint32s per operator and per key draw
        # the bits of each uint32 that hold an operator's x and z (row 0) or
        # a key (row 1): a draw whose bits there are all 0 is drawn again
        self.masks = np.array(
            [[(1 << min(max(bits - 32 * j, 0), 32)) - 1 for j in range(k_op)] for bits in (2 * n, n)],
            dtype=np.uint32,
        )

    def entries(self, count: int, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(keyed, bits): keyed[t] is entry t's u < p, and bits[t] its last draw's bits.

        bits is (count, 2n + 1) uint8, little endian.  A keyed entry's key
        is bits[t, :n], and the rest of its row is not its draw; any other
        entry's operator has x bits[t, :n], z bits[t, n:2n] and sign bit
        bits[t, 2n].
        """
        state = self.bitgen.state
        # an entry reads at most sizes[0] + 2 halves unless it redraws, which
        # about one in 2**n does; a walk that runs out reads twice the words
        nwords = (count * (self.sizes[0] + 2) + (count >> (self.n - 1))) // 2 + 4
        while (walk := self._walk(count, p, state, nwords)) is None:
            nwords *= 2
        keyed, vals, end, last = walk
        self.bitgen.random_raw((end + 1) // 2 - 1)
        state = self.bitgen.state
        state["has_uint32"], state["uinteger"] = end & 1, last
        self.bitgen.state = state
        bits = np.unpackbits(vals.view(np.uint8), axis=1, count=2 * self.n + 1, bitorder="little")
        return keyed, bits

    def _walk(self, count: int, p: float, state: dict, nwords: int):
        """(keyed, vals, end, last) of count entries over nwords words, or None if they need more.

        vals[t] holds the uint32s of entry t's last draw, and as many more
        halves as an operator draw reads.  end is the cursor after the
        last entry, and last the uint32 buffer's value there: the buffered
        half if end is odd, else the last half read, which numpy leaves in
        place.  The entries are walked over each cursor's step to the next
        entry as if it drew once.  If a walked entry may have drawn zero,
        every cursor's step is found again with its redraws, which read the
        next T halves in turn, and the entries are walked again: a walk is
        one lookup per entry, however many entries redraw.
        """
        k_op, k_key = self.sizes
        self.copy.state = state
        top = 2 * nwords + 2  # the halves read: word 0's high half and nwords words
        words = np.zeros(nwords + k_op + 2, dtype="<u8")  # room for an operator's halves past top
        words[0] = state["uinteger"] << 32
        words[1 : nwords + 1] = self.copy.random_raw(nwords)
        halves = words.view("<u4")
        keyed = np.repeat((words >> np.uint64(11)) * 2.0**-53 < p, 2)[1 : top + 1]
        size = np.where(keyed, k_key, k_op)
        step = size + 2
        s0 = 2 - state["has_uint32"]
        if (walked := _walk_steps(step, s0, count, top)) is None:
            return None
        # a draw is zero only if its first uint32 is: half s + 2, or s if s is odd
        head = np.empty(top, dtype=np.uint32)
        head[0::2], head[1::2] = halves[2 : top + 2 : 2], halves[1:top:2]
        may_redraw = (head & np.where(keyed, *self.masks[::-1, 0])) == 0
        if may_redraw[walked[:-1]].any():
            redraw = np.flatnonzero(may_redraw)
            at = redraw[:, None] + np.arange(2, k_op + 2)
            at[:, 0] -= (redraw & 1) << 1
            while redraw.size:
                zero = ~(halves[at] & self.masks[keyed[redraw].view(np.uint8)]).any(axis=1)
                redraw = redraw[zero & (redraw + step[redraw] <= top)]
                at = (redraw + step[redraw])[:, None] + np.arange(k_op)
                step[redraw] += size[redraw]
            if (walked := _walk_steps(step, s0, count, top)) is None:
                return None
        first, s = walked[:-1], walked[-1]
        size, step = size[first], step[first]
        at = (first + step - size)[:, None] + np.arange(k_op)  # each entry's last draw
        at[:, 0] -= (first & 1 & (step == size + 2)) << 1  # an odd start that drew once
        vals = halves[at]
        last = halves[s] if s & 1 else vals[-1, size[-1] - 1]
        return keyed[first], vals, s, int(last)


def _walk_steps(step: np.ndarray, s: int, count: int, top: int) -> np.ndarray | None:
    """The starts of count entries from cursor s, each step[start] after the last, and their end.

    None if an entry starts at top or later, or the last ends past top.
    """
    steps, cursors = step.tolist(), [s]
    try:
        for _ in range(count):
            s += steps[s]
            cursors.append(s)
    except IndexError:
        return None
    return np.array(cursors) if s <= top else None


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
