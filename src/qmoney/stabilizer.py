"""Stabilizer states as sets of n independent commuting signed Paulis.

A state is stored by generators; the stabilizer group is their span.  All
group arithmetic runs on plain ints.  An operator is held as ``(x, z, q)``
with the folded phase ``q = phase + popcount(x & z)``, i.e. the operator
i**q X**x Z**z with every X left of every Z, so multiplying two costs one
popcount.  Reducing an operator against a signed echelon (the rowsum of
Aaronson-Gottesman, quant-ph/0406196), whose element j is zero at the
lowest set bit (pivot) of every element before it, leaves i**k * I exactly
when the operator is +-(a span element), with the sign in i**k.

Queries read a lazily built table instead of walking all n elements
("Four Russians" subset products, Arlazarov et al., 1970).  The query
table holds the fully reduced echelon (no element touches another's
pivot), grouped by pivot into chunks of _CHUNK bits of the row [x | z]:
for each chunk, the product of every subset of its elements.  An
operator's chunks of bits select one entry each; the entries' rows XOR to
the operator's own row iff it is +-(a group element), and the entries also
carry what the sign needs (see ``_SubsetProducts``).  The table is built
on first query, so states that are never queried pay nothing.  gen_scheme
builds no table: it computes a register's drawn elements all at once, as
GF(2) matrix products of the generators (``_signed_products``), each the
exact ordered product of the generators its key selects.  The symplectic
inner product of rows v, w is popcount(v & swap_halves(w)) mod 2, so "all
operators commuting with a set" is a GF(2) null space.

Work is done once per group.  Sampled and completed states are built
commuting and independent, so they skip the constructor's checks
(``StabilizerState._trusted``); the public constructor keeps them.  The
fully reduced signed echelon is unique to the group, so its query table
is too: greedy_consistent_subset, once it keeps n ops, builds the table
from its own echelon and reads every later op by lookup, and the
completed state takes that table over; a state found equal to another
(every generator a +1 member of the other's group) can share its table.

Sampling is uniform over the full stabilizer-state set: at each step the
next generator is drawn uniformly from the symplectic complement of the
rows so far (minus their span, by rejection), then given a uniform sign.
Every state admits the same number of ordered generator sequences, so the
induced distribution is exactly uniform; the n=1 and n=2 state counts
(6 and 60) are checked in the tests by enumeration.  Sampling and
completion keep the RREF of the swapped rows up to date as each row is
added, so a step costs no fresh null space or solve; the RREF is
canonical, so each draw is the null-space vector ``gf2.nullspace`` gives.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .errors import DimensionError, InconsistentGeneratorsError
from .pauli import PauliOp, _random_bits

__all__ = [
    "StabilizerState",
    "random_stabilizer_state",
    "stab_expectation",
    "greedy_consistent_subset",
    "complete_to_stabilizer_state",
]


def _swap_halves(row: int, n: int) -> int:
    """[x | z] -> [z | x]; AND + popcount against these gives the symplectic form."""
    mask = (1 << n) - 1
    return (row >> n) | ((row & mask) << n)


def _op_from_row(row: int, n: int, phase: int = 0) -> PauliOp:
    """The operator i**phase of a row below 2**(2n), n >= 1; built unchecked."""
    mask = (1 << n) - 1
    return PauliOp._trusted(n, row & mask, (row >> n) & mask, phase & 3)


# An echelon element: pivot x mask, pivot z mask, x, z, folded phase.
_Element = tuple[int, int, int, int, int]


def _reduce(basis: list[_Element], x: int, z: int, q: int) -> tuple[int, int, int]:
    """Multiply i**q X**x Z**z, in basis order, by each echelon element whose pivot it holds.

    The phase q is folded as in the module docstring, so multiplying by
    i**bq X**bx Z**bz on the right adds bq + 2*popcount(z & bx), from
    moving Z**z past X**bx.  The result is (0, 0, k) iff the row is in the
    basis span; then the operator is i**k * (product of the used elements).
    """
    for px, pz, bx, bz, bq in basis:
        if x & px or z & pz:
            q += bq + 2 * (z & bx).bit_count()
            x ^= bx
            z ^= bz
    return x, z, q & 3


def _element(x: int, z: int, q: int) -> _Element:
    """Echelon entry of a nonzero remainder; its pivot is the lowest bit of [x | z]."""
    if x:
        return x & -x, 0, x, z, q
    return 0, z & -z, x, z, q


def _folded(op: PauliOp) -> tuple[int, int, int]:
    return op.x, op.z, op.phase + (op.x & op.z).bit_count()


# Key bits one table lookup reads.  A chunk's table has 2**_CHUNK entries,
# each a packed int of 3n to 4n bits.  At n=50 a state's two tables take
# about 25 KiB with 4-bit chunks and 61 KiB with 6-bit ones, which read 9
# chunks per lookup instead of 13.
_CHUNK = 6
_CHUNK_MASK = (1 << _CHUNK) - 1


def _row_bits(rows: list[int], n: int) -> np.ndarray:
    """(len(rows), 2n) uint8: bit b of each row [x | z], little endian."""
    nbytes = (2 * n + 7) // 8
    raw = b"".join(r.to_bytes(nbytes, "little") for r in rows)
    data = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(data, axis=1, count=2 * n, bitorder="little")


def _cross_parities(bits: np.ndarray, n: int) -> np.ndarray:
    """Entry (k, j) is <z_k, x_j> mod 2 for k < j and 0 otherwise, over float row bits (k, 2n)."""
    return np.triu((bits[:, n:] @ bits[:, :n].T).astype(np.int64) & 1, 1)


def _cross_masks(rows: list[int], n: int) -> list[int]:
    """Per row k of [x | z], the mask of rows j > k with <z_k, x_j> odd.

    One GF(2) matrix product instead of a popcount per pair: the rows'
    bits are unpacked, z @ x.T is taken in float64 (exact for integers
    this small) and reduced mod 2, and its strict upper triangle is packed
    back into ints.
    """
    odd = _cross_parities(_row_bits(rows, n).astype(np.float64), n)
    packed = np.packbits(odd.astype(np.uint8), axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[k:k + width], "little") for k in range(0, len(data), width)]


class _SubsetProducts:
    """Products of subsets of commuting elements, read by chunk lookup.

    Key bit k selects the folded element (row, q) in slot k, if any.  The
    product's row is the XOR of the selected rows.  Multiplying them in
    slot order, the folded phase is sum q_k + 2*sum_{k<j} <z_k, x_j>
    (mod 4; <z, x> is popcount(z & x), and z_k & x_j is (row_k >> n) &
    row_j).  The parity of that double sum is <XOR_k u_k, key>, where the
    cross mask u_k holds the slots j > k with <z_k, x_j> odd, so a product
    needs no pass in order; sum q_k (mod 4) counts the selected slots whose
    q_k has bit 0 set (``odd``), plus twice those with bit 1 set (``twos``).
    Slot k's element is packed as u_k | row_k << key_bits, key_bits =
    len(slots), and entry v of a chunk is the XOR of the packed elements
    that v selects; chunks with no element are left out.  Keys are below
    2**key_bits, so ``acc & key`` reads only the cross masks.
    """

    __slots__ = ("n", "key_bits", "odd", "twos", "chunks")

    def __init__(self, slots: list[tuple[int, int] | None], n: int):
        self.n, self.key_bits = n, len(slots)
        used = [(k, *slot) for k, slot in enumerate(slots) if slot]
        self.odd = sum(1 << k for k, _, q in used if q & 1)
        self.twos = sum(1 << k for k, _, q in used if q & 2)
        rows = [slot[0] if slot else 0 for slot in slots]
        packed = [u | r << self.key_bits for u, r in zip(_cross_masks(rows, n), rows)]
        self.chunks: list[tuple[int, list[int]]] = []
        for shift in range(0, len(slots), _CHUNK):
            part = packed[shift:shift + _CHUNK]
            if any(part):
                entries = [0]
                for e in part:
                    entries += [v ^ e for v in entries] if e else entries
                self.chunks.append((shift, entries))

    def lookup(self, key: int) -> int:
        """The packed XOR of the key's entries: the product's row is it >> key_bits."""
        acc = 0
        for shift, entries in self.chunks:
            acc ^= entries[(key >> shift) & _CHUNK_MASK]
        return acc

    def phase(self, key: int, acc: int) -> int:
        """Folded phase (mod 4, unreduced) of the product that key selects; acc is lookup(key)."""
        return (
            2 * (key & self.twos).bit_count()
            + (key & self.odd).bit_count()
            + 2 * (acc & key).bit_count()
        )


def _signed_products(
    state: StabilizerState, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, z, phases) of the generator products that the rows of keys select.

    keys is (count, n) 0/1 uint8: bit k of a row selects generator k, as a
    key of _SubsetProducts over the generators does, and each product is
    that table's, sign included.  Its row is the XOR of the selected rows,
    and with s the key's bits its folded phase is sum_k s_k q_k + 2 s^T U s
    (mod 4), U the cross masks as a matrix: U[k, j] = <z_k, x_j> mod 2 for
    k < j.  One float32 product s @ [rows | U | q] gives all three for
    every key; its sums are at most 3n, so exact.  x and z are (count, n)
    uint8 bits and phases (count,) uint8.
    """
    n, gens = state.n, state.generators
    table = np.empty((n, 3 * n + 1), dtype=np.float32)
    table[:, : 2 * n] = _row_bits([g.row for g in gens], n)
    table[:, 2 * n : 3 * n] = _cross_parities(table[:, : 2 * n], n)
    table[:, 3 * n] = [_folded(g)[2] for g in gens]
    sums = (keys.astype(np.float32) @ table).astype(np.int64)
    parities = sums[:, : 3 * n].astype(np.uint8) & 1
    x, z, su = parities[:, :n], parities[:, n : 2 * n], parities[:, 2 * n :]
    cross = np.count_nonzero(su & keys, axis=1)  # s^T U s mod 2
    phases = (sums[:, 3 * n] + 2 * cross - np.count_nonzero(x & z, axis=1)) & 3
    return x, z, phases.astype(np.uint8)


def _echelon_table(basis: list[_Element], n: int) -> _SubsetProducts:
    """The query table of a group from a signed echelon of its n elements; reduces basis in place.

    Back-substitution clears each element at every later pivot, so no
    element touches another's pivot.  Element j holds a later pivot only
    above its own lowest bit, so its pivot stays.  An operator is then
    +-(a group element) iff it is the product of the elements whose pivots
    it holds, that is, iff the rows its chunks select XOR to its own row.
    This fully reduced signed echelon is unique to the group, and so is
    the table.
    """
    slots: list[tuple[int, int] | None] = [None] * (2 * n)
    for j in reversed(range(n)):
        x, z, q = _reduce(basis[j + 1:], *basis[j][2:])
        basis[j] = _element(x, z, q)
        row = x | z << n
        slots[gf2._lowest_bit(row)] = (row, q)
    return _SubsetProducts(slots, n)


def _expectation(table: _SubsetProducts, op: PauliOp) -> int:
    """+1/-1 if +-op is in the query table's group, with op's own sign; else 0."""
    x, z = op.x, op.z
    row = x | z << op.n
    acc = table.lookup(row)
    if acc >> table.key_bits != row:
        return 0
    return 1 if (op.phase + (x & z).bit_count() - table.phase(row, acc)) & 3 == 0 else -1


def _anticommuting(x: int, z: int, others: list[tuple[int, int]]) -> int | None:
    """Index of the first (x, z) pair in ``others`` that anticommutes with (x, z)."""
    for i, (ox, oz) in enumerate(others):
        if ((x & oz).bit_count() + (z & ox).bit_count()) & 1:
            return i
    return None


class _Extension:
    """Independent commuting rows, kept ready to be extended by one more.

    Holds the RREF of the swapped rows as (pivot, row) pairs, and the
    pivots in ascending order; the other columns are the free ones.  A
    vector commutes with every row iff it has even overlap with each RREF
    row, and lies in the rows' span iff its swap reduces to zero against
    them.  The null-space basis vector of free column f is e_f plus e_p for
    each RREF row (pivot p) holding bit f, as ``gf2.nullspace`` builds it,
    so the XOR of those over a set F of free columns is F plus e_p for each
    row with odd overlap with F.
    """

    def __init__(self, n: int, rows: list[int]):
        self.n = n
        self.rref: list[tuple[int, int]] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(self.residue(row))

    def residue(self, row: int) -> int:
        """The swapped row reduced against the RREF: zero iff the row is in the span."""
        c = _swap_halves(row, self.n)
        for p, r in self.rref:
            if (c >> p) & 1:
                c ^= r
        return c

    def add(self, c: int) -> None:
        """Add the row whose residue (nonzero) is c."""
        p = gf2._lowest_bit(c)
        self.rref = [(q, r ^ c if (r >> p) & 1 else r) for q, r in self.rref] + [(p, c)]
        bisect.insort(self.pivots, p)

    def vector(self, mask: int) -> int:
        """XOR of the null-space basis vectors that mask selects (bit j: the j-th free column)."""
        # Bit j of mask moves to the j-th free column: open a zero bit at
        # each pivot, lowest first, so each later pivot is already in place.
        chosen = mask
        for p in self.pivots:
            chosen = (chosen & ((1 << p) - 1)) | (chosen >> p) << (p + 1)
        v = chosen
        for p, r in self.rref:
            if (r & chosen).bit_count() & 1:
                v |= 1 << p
        return v


@dataclass(frozen=True)
class StabilizerState:
    """n independent, pairwise commuting, signed (Hermitian) generators."""

    n: int
    generators: tuple[PauliOp, ...]

    def __post_init__(self):
        if len(self.generators) != self.n:
            raise ValueError(
                f"need exactly n={self.n} generators, got {len(self.generators)}"
            )
        for g in self.generators:
            if g.n != self.n:
                raise DimensionError(f"generator on {g.n} qubits in an n={self.n} state")
            if not g.is_hermitian:
                raise ValueError(f"generator {g} is not Hermitian")
        xz = [(g.x, g.z) for g in self.generators]
        for j, (x, z) in enumerate(xz):
            i = _anticommuting(x, z, xz[:j])
            if i is not None:
                raise InconsistentGeneratorsError(
                    f"{self.generators[i]} and {self.generators[j]} anticommute"
                )
        if gf2.rank(self.rows) != self.n:
            raise ValueError("generators are not independent")

    @classmethod
    def _trusted(
        cls,
        n: int,
        generators: tuple[PauliOp, ...],
        query_table: _SubsetProducts | None = None,
    ) -> StabilizerState:
        """A state of generators that already pass __post_init__'s checks, not checked again.

        random_stabilizer_state and complete_to_stabilizer_state build
        theirs independent and commuting.  query_table, if given, must be
        the group's (``_echelon_table``); otherwise it is built on first use.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "n", n)
        object.__setattr__(state, "generators", generators)
        if query_table is not None:
            object.__setattr__(state, "_query_table", query_table)
        return state

    @property
    def rows(self) -> tuple[int, ...]:
        return tuple(g.row for g in self.generators)

    @cached_property
    def _query_table(self) -> _SubsetProducts:
        """Subset products of the group's fully reduced signed echelon; built on first query."""
        basis: list[_Element] = []
        for g in self.generators:
            basis.append(_element(*_reduce(basis, *_folded(g))))
        return _echelon_table(basis, self.n)


def random_stabilizer_state(n: int, rng: np.random.Generator) -> StabilizerState:
    """Uniformly random stabilizer state on n qubits.

    Step t draws uniformly from the 2**(2n-t) - 2**t vectors that commute
    with the rows so far but are outside their span; rejection against the
    span succeeds with probability >= 3/4 per draw.
    """
    if n < 0:
        raise ValueError(f"need n >= 0 qubits, got n={n}")
    gens: list[PauliOp] = []
    ext = _Extension(n, [])
    while len(gens) < n:
        while True:
            v = ext.vector(_random_bits(rng, 2 * n - len(gens)))
            c = ext.residue(v)
            if c:
                break
        gens.append(_op_from_row(v, n, 2 * _random_bits(rng, 1)))
        ext.add(c)
    return StabilizerState._trusted(n, tuple(gens))


def stab_expectation(state: StabilizerState, op: PauliOp) -> int:
    """<op> in the stabilizer state: +1/-1 if +-op is in the group, else 0."""
    if op.n != state.n:
        raise DimensionError(f"operator on {op.n} qubits vs state on {state.n}")
    if not op.is_hermitian:
        raise ValueError("expectation defined for Hermitian operators only")
    return _expectation(state._query_table, op)


def _share_query_table(source: StabilizerState, target: StabilizerState) -> None:
    """Give target source's query table if the two are the same state.

    n lookups, none through stab_expectation: if every target generator is
    a +1 member of source's group, the groups (2**n elements each) are
    equal, and so are their tables.
    """
    table = source._query_table
    if target.n == source.n and all(_expectation(table, g) == 1 for g in target.generators):
        object.__setattr__(target, "_query_table", table)


def greedy_consistent_subset(
    ops: list[PauliOp] | tuple[PauliOp, ...],
    *,
    _tables: list[_SubsetProducts] | None = None,
) -> tuple[list[int], list[tuple[int, str]]]:
    """Largest-prefix scan keeping ops that extend a consistent signed group.

    Returns (kept, dropped); ``dropped`` holds (index, reason) pairs with
    reason "anticommutes" or "sign".  Ops already implied with the correct
    sign are absorbed silently (kept contains only an independent set).

    n kept ops span a maximal commuting set, so each later op is +-(a
    member) or anticommutes with a kept op.  Those ops are read by lookup
    in the kept group's query table, built from the kept echelon when the
    first of them arrives; ``_tables``, if given, receives that table.
    """
    if not ops:
        return [], []
    n = ops[0].n
    kept: list[int] = []
    kept_xz: list[tuple[int, int]] = []
    basis: list[_Element] = []
    dropped: list[tuple[int, str]] = []
    table: _SubsetProducts | None = None
    for idx, op in enumerate(ops):
        if op.n != n:
            raise DimensionError("operators act on different qubit counts")
        if not op.is_hermitian:
            raise ValueError(f"operator {op} is not Hermitian")
        if len(kept) == n:
            if table is None:
                table = _echelon_table(basis, n)
            e = _expectation(table, op)
            if e != 1:
                dropped.append((idx, "anticommutes" if e == 0 else "sign"))
            continue
        # A member of the kept span commutes with every kept op, so only
        # the rest need the anticommutation scan.
        x, z, q = _reduce(basis, *_folded(op))
        if not (x or z):
            if q:
                dropped.append((idx, "sign"))
        elif _anticommuting(op.x, op.z, kept_xz) is not None:
            dropped.append((idx, "anticommutes"))
        else:
            kept.append(idx)
            kept_xz.append((op.x, op.z))
            basis.append(_element(x, z, q))
    if table is not None and _tables is not None:
        _tables.append(table)
    return kept, dropped


def complete_to_stabilizer_state(
    ops: list[PauliOp] | tuple[PauliOp, ...],
) -> tuple[StabilizerState, list[tuple[int, str]]]:
    """Extend the ops greedy_consistent_subset keeps to a full stabilizer state.

    Returns (state, dropped), with ``dropped`` as greedy_consistent_subset
    reports it.  Extension generators are chosen deterministically (first
    admissible null-space basis vector, sign +).  If greedy kept n ops and
    read more by lookup, the state comes with the query table it built.
    """
    if not ops:
        raise ValueError("need at least one operator")
    n = ops[0].n
    tables: list[_SubsetProducts] = []
    kept, dropped = greedy_consistent_subset(ops, _tables=tables)
    gens = [ops[k] for k in kept]
    if len(gens) == n:
        return StabilizerState._trusted(n, tuple(gens), *tables), dropped
    ext = _Extension(n, [g.row for g in gens])
    while len(gens) < n:
        for j in range(2 * n - len(gens)):
            v = ext.vector(1 << j)
            c = ext.residue(v)
            if c:
                gens.append(_op_from_row(v, n))
                ext.add(c)
                break
        else:  # complement dim 2n-t always exceeds span dim t for t < n
            raise AssertionError("symplectic complement exhausted early")
    return StabilizerState._trusted(n, tuple(gens)), dropped
