"""Stabilizer states as sets of n independent commuting signed Paulis.

A state is stored by generators; the stabilizer group is their span.  Group
membership and sign are answered by one reduction (the rowsum of
Aaronson-Gottesman, quant-ph/0406196), done on plain ints: the generators
are reduced against each other once into a signed echelon, whose element j
is zero at the lowest set bit (pivot) of every element before it.  An
element is held as ``(x, z, q)`` with the folded phase ``q = phase +
popcount(x & z)``, i.e. the operator i**q X**x Z**z with every X left of
every Z, so multiplying by it costs one popcount.  Multiplying an operator
by each echelon element whose pivot it holds, in order, leaves i**k * I
exactly when the operator is +-(a group element), and the phase i**k gives
the sign; no ``PauliOp`` is built on the way.  The echelon is built on the
first query, so states that are never queried pay nothing.  The symplectic
inner product of rows v, w is popcount(v & swap_halves(w)) mod 2, so "all
operators commuting with a set" is a GF(2) null space.

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .errors import CapacityError, DimensionError, InconsistentGeneratorsError
from .pauli import DENSE_LIMIT, PauliOp, _mul, _random_bits, dense_matrix

__all__ = [
    "StabilizerState",
    "random_stabilizer_state",
    "random_stabilizer_element",
    "stab_expectation",
    "greedy_consistent_subset",
    "complete_to_stabilizer_state",
    "dense_projector",
    "dense_statevector",
]


def _swap_halves(row: int, n: int) -> int:
    """[x | z] -> [z | x]; AND + popcount against these gives the symplectic form."""
    mask = (1 << n) - 1
    return (row >> n) | ((row & mask) << n)


def _op_from_row(row: int, n: int, phase: int = 0) -> PauliOp:
    mask = (1 << n) - 1
    return PauliOp(n, row & mask, (row >> n) & mask, phase)


def _subset_product(ops: list[PauliOp] | tuple[PauliOp, ...], mask: int, n: int) -> PauliOp:
    acc = (0, 0, 0)
    j = 0
    while mask:
        if mask & 1:
            acc = _mul(acc, (ops[j].x, ops[j].z, ops[j].phase))
        mask >>= 1
        j += 1
    return PauliOp(n, *acc)


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


def _anticommuting(x: int, z: int, others: list[tuple[int, int]]) -> int | None:
    """Index of the first (x, z) pair in ``others`` that anticommutes with (x, z)."""
    for i, (ox, oz) in enumerate(others):
        if ((x & oz).bit_count() + (z & ox).bit_count()) & 1:
            return i
    return None


class _Extension:
    """Independent commuting rows, kept ready to be extended by one more.

    Holds the RREF of the swapped rows as (pivot, row) pairs.  A vector
    commutes with every row iff it has even overlap with each RREF row, and
    lies in the rows' span iff its swap reduces to zero against them.  The
    null-space basis vector of free column f is e_f plus e_p for each RREF
    row (pivot p) holding bit f, as ``gf2.nullspace`` builds it, so the XOR
    of those over a set F of free columns is F plus e_p for each row with
    odd overlap with F.
    """

    def __init__(self, n: int, rows: list[int]):
        self.n = n
        self.rref: list[tuple[int, int]] = []
        for row in rows:
            self.add(row)

    def _residue(self, row: int) -> int:
        c = _swap_halves(row, self.n)
        for p, r in self.rref:
            if (c >> p) & 1:
                c ^= r
        return c

    def add(self, row: int) -> None:
        c = self._residue(row)
        p = gf2._lowest_bit(c)
        self.rref = [(q, r ^ c if (r >> p) & 1 else r) for q, r in self.rref] + [(p, c)]

    def spans(self, row: int) -> bool:
        return self._residue(row) == 0

    def vector(self, mask: int) -> int:
        """XOR of the null-space basis vectors that mask selects (bit j: the j-th free column)."""
        pivots = {p for p, _ in self.rref}
        free = [f for f in range(2 * self.n) if f not in pivots]
        chosen = sum(1 << f for j, f in enumerate(free) if (mask >> j) & 1)
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

    @property
    def rows(self) -> tuple[int, ...]:
        return tuple(g.row for g in self.generators)

    @cached_property
    def _echelon(self) -> list[_Element]:
        """Signed echelon spanning the group, as ``_reduce`` reads it; built on first query."""
        basis: list[_Element] = []
        for g in self.generators:
            basis.append(_element(*_reduce(basis, *_folded(g))))
        return basis

    def canonical_generators(self) -> tuple[PauliOp, ...]:
        """Signed RREF of the generator rows; unique per group.

        Two states are equal as states iff this tuple matches, regardless
        of which generating set they were built from.
        """
        rows, _ = gf2.rref(self.rows)
        ops = [_op_from_row(r, self.n) for r in rows]
        return tuple(
            PauliOp(self.n, op.x, op.z, _reduce(self._echelon, *_folded(op))[2]) for op in ops
        )

    def group_equal(self, other: "StabilizerState") -> bool:
        return self.n == other.n and self.canonical_generators() == other.canonical_generators()


def random_stabilizer_state(n: int, rng: np.random.Generator) -> StabilizerState:
    """Uniformly random stabilizer state on n qubits.

    Step t draws uniformly from the 2**(2n-t) - 2**t vectors that commute
    with the rows so far but are outside their span; rejection against the
    span succeeds with probability >= 3/4 per draw.
    """
    gens: list[PauliOp] = []
    ext = _Extension(n, [])
    while len(gens) < n:
        while True:
            v = ext.vector(_random_bits(rng, 2 * n - len(gens)))
            if not ext.spans(v):
                break
        gens.append(_op_from_row(v, n, 2 * _random_bits(rng, 1)))
        ext.add(v)
    return StabilizerState(n, tuple(gens))


def random_stabilizer_element(state: StabilizerState, rng: np.random.Generator) -> PauliOp:
    """Uniform element of the 2**n-element stabilizer group (sign included)."""
    mask = _random_bits(rng, state.n)
    return _subset_product(state.generators, mask, state.n)


def stab_expectation(state: StabilizerState, op: PauliOp) -> int:
    """<op> in the stabilizer state: +1/-1 if +-op is in the group, else 0."""
    if op.n != state.n:
        raise DimensionError(f"operator on {op.n} qubits vs state on {state.n}")
    if not op.is_hermitian:
        raise ValueError("expectation defined for Hermitian operators only")
    x, z, q = _reduce(state._echelon, *_folded(op))
    if x or z:
        return 0
    return 1 if q == 0 else -1


def greedy_consistent_subset(
    ops: list[PauliOp] | tuple[PauliOp, ...],
) -> tuple[list[int], list[tuple[int, str]]]:
    """Largest-prefix scan keeping ops that extend a consistent signed group.

    Returns (kept, dropped); ``dropped`` holds (index, reason) pairs with
    reason "anticommutes" or "sign".  Ops already implied with the correct
    sign are absorbed silently (kept contains only an independent set).
    """
    if not ops:
        return [], []
    n = ops[0].n
    kept: list[int] = []
    kept_xz: list[tuple[int, int]] = []
    basis: list[_Element] = []
    dropped: list[tuple[int, str]] = []
    for idx, op in enumerate(ops):
        if op.n != n:
            raise DimensionError("operators act on different qubit counts")
        if not op.is_hermitian:
            raise ValueError(f"operator {op} is not Hermitian")
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
    return kept, dropped


def complete_to_stabilizer_state(
    ops: list[PauliOp] | tuple[PauliOp, ...],
) -> tuple[StabilizerState, list[tuple[int, str]]]:
    """Extend the ops greedy_consistent_subset keeps to a full stabilizer state.

    Returns (state, dropped), with ``dropped`` as greedy_consistent_subset
    reports it.  Extension generators are chosen deterministically (first
    admissible null-space basis vector, sign +).
    """
    if not ops:
        raise ValueError("need at least one operator")
    n = ops[0].n
    kept, dropped = greedy_consistent_subset(ops)
    gens = [ops[k] for k in kept]
    ext = _Extension(n, [g.row for g in gens])
    while len(gens) < n:
        for j in range(2 * n - len(gens)):
            v = ext.vector(1 << j)
            if not ext.spans(v):
                gens.append(_op_from_row(v, n))
                ext.add(v)
                break
        else:  # complement dim 2n-t always exceeds span dim t for t < n
            raise AssertionError("symplectic complement exhausted early")
    return StabilizerState(n, tuple(gens)), dropped


def dense_projector(state: StabilizerState) -> np.ndarray:
    """Rank-1 projector onto the stabilized state, as a dense matrix."""
    if state.n > DENSE_LIMIT:
        raise CapacityError(f"dense projector limited to {DENSE_LIMIT} qubits")
    dim = 1 << state.n
    proj = np.eye(dim, dtype=complex)
    for g in state.generators:
        proj = proj @ (np.eye(dim, dtype=complex) + dense_matrix(g)) / 2
    return proj


def dense_statevector(state: StabilizerState) -> np.ndarray:
    """A statevector of the stabilized state (global phase unspecified)."""
    proj = dense_projector(state)
    col = int(np.argmax(np.linalg.norm(proj, axis=0)))
    vec = proj[:, col]
    return vec / np.linalg.norm(vec)
