"""Stabilizer states as sets of n independent commuting signed Paulis.

A state is stored by generators; the stabilizer group is their span.  Group
membership and sign are answered by one reduction (the standard form of
Aaronson-Gottesman, quant-ph/0406196): the generators are reduced against
each other once into a signed echelon, whose element j is zero at the
lowest set bit (pivot) of every element before it.  Multiplying an
operator by each echelon element whose pivot it holds, in order, leaves
i**k * I exactly when the operator is +-(a group element), and the phase
i**k gives the sign.  The echelon is built on the first query, so states
that are never queried pay nothing.  The symplectic inner product of rows
v, w is popcount(v & swap_halves(w)) mod 2, so "all operators commuting
with a set" is a GF(2) null space.

Sampling is uniform over the full stabilizer-state set: at each step the
next generator is drawn uniformly from the symplectic complement of the
rows so far (minus their span, by rejection), then given a uniform sign.
Every state admits the same number of ordered generator sequences, so the
induced distribution is exactly uniform; the n=1 and n=2 state counts
(6 and 60) are checked in the tests by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .errors import (
    CapacityError,
    DimensionError,
    GroupContradictionError,
    InconsistentGeneratorsError,
)
from .pauli import DENSE_LIMIT, PauliOp, _random_bits, commutes, dense_matrix, pauli_mul

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
    out = PauliOp.identity(n)
    j = 0
    while mask:
        if mask & 1:
            out = pauli_mul(out, ops[j])
        mask >>= 1
        j += 1
    return out


def _reduce(basis: list[tuple[int, PauliOp]], op: PauliOp) -> PauliOp:
    """Multiply op, in basis order, by each echelon element whose pivot op holds.

    ``basis`` holds (pivot, element) pairs.  The result is i**k * I iff op's
    row is in the basis span; then op = i**k * (product of the used elements).
    """
    row = op.row
    for piv, b in basis:
        if (row >> piv) & 1:
            op = pauli_mul(op, b)
            row = op.row
    return op


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
        for i, a in enumerate(self.generators):
            for b in self.generators[i + 1 :]:
                if not commutes(a, b):
                    raise InconsistentGeneratorsError(f"{a} and {b} anticommute")
        if gf2.rank(self.rows) != self.n:
            raise ValueError("generators are not independent")

    @property
    def rows(self) -> tuple[int, ...]:
        return tuple(g.row for g in self.generators)

    @cached_property
    def _echelon(self) -> list[tuple[int, PauliOp]]:
        """(pivot, element) pairs spanning the group; built on first query."""
        basis: list[tuple[int, PauliOp]] = []
        for g in self.generators:
            r = _reduce(basis, g)
            basis.append((gf2._lowest_bit(r.row), r))
        return basis

    def canonical_generators(self) -> tuple[PauliOp, ...]:
        """Signed RREF of the generator rows; unique per group.

        Two states are equal as states iff this tuple matches, regardless
        of which generating set they were built from.
        """
        rows, _ = gf2.rref(self.rows)
        return tuple(
            _op_from_row(r, self.n, _reduce(self._echelon, _op_from_row(r, self.n)).phase)
            for r in rows
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
    rows: list[int] = []
    while len(gens) < n:
        constraints = [_swap_halves(r, n) for r in rows]
        basis = gf2.nullspace(constraints, 2 * n)
        while True:
            mask = _random_bits(rng, len(basis))
            v = 0
            for j, b in enumerate(basis):
                if (mask >> j) & 1:
                    v ^= b
            if v and not gf2.in_rowspan(rows, v):
                break
        gens.append(_op_from_row(v, n, 2 * _random_bits(rng, 1)))
        rows.append(v)
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
    rest = _reduce(state._echelon, op)
    if not rest.is_identity:
        return 0
    return 1 if rest.phase == 0 else -1


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
    basis: list[tuple[int, PauliOp]] = []
    dropped: list[tuple[int, str]] = []
    for idx, op in enumerate(ops):
        if op.n != n:
            raise DimensionError("operators act on different qubit counts")
        if not op.is_hermitian:
            raise ValueError(f"operator {op} is not Hermitian")
        if any(not commutes(op, ops[k]) for k in kept):
            dropped.append((idx, "anticommutes"))
            continue
        rest = _reduce(basis, op)
        if not rest.is_identity:
            kept.append(idx)
            basis.append((gf2._lowest_bit(rest.row), rest))
        elif rest.phase != 0:
            dropped.append((idx, "sign"))
    return kept, dropped


def complete_to_stabilizer_state(ops: list[PauliOp] | tuple[PauliOp, ...]) -> StabilizerState:
    """Extend commuting signed ops to a full stabilizer state containing them.

    The input group must be consistent; extension generators are chosen
    deterministically (first admissible null-space basis vector, sign +).
    """
    if not ops:
        raise ValueError("need at least one operator")
    n = ops[0].n
    kept, dropped = greedy_consistent_subset(ops)
    for idx, reason in dropped:
        if reason == "anticommutes":
            raise InconsistentGeneratorsError(f"operator {idx} anticommutes with the set")
        raise GroupContradictionError(
            f"operator {idx} is implied with the opposite sign (-I in the group)"
        )
    gens = [ops[k] for k in kept]
    rows = [g.row for g in gens]
    while len(gens) < n:
        constraints = [_swap_halves(r, n) for r in rows]
        for v in gf2.nullspace(constraints, 2 * n):
            if not gf2.in_rowspan(rows, v):
                gens.append(_op_from_row(v, n))
                rows.append(v)
                break
        else:  # complement dim 2n-t always exceeds span dim t for t < n
            raise AssertionError("symplectic complement exhausted early")
    return StabilizerState(n, tuple(gens))


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
