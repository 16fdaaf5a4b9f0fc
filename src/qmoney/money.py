"""Stabilizer money: secret states, public measurement tables, verification.

A scheme is an l x m table of signed Paulis, stored as one (l, m)
PauliBlock of packed words; a register is its row, a 1-D block, and
PauliOps are built only where they are read.  Entry (i, j) stabilizes the
i-th secret state with probability epsilon and is otherwise uniformly
random, so measuring a random column against honest money averages to
epsilon.  The verifier draws one operator per register, averages the +-1
outcomes into q_value, and accepts iff q_value >= epsilon/2; the threshold
comparison is done in exact rationals because q_value is a multiple of 1/l.

A money register is one of:

- a StabilizerState: its generators, for exact group queries at any n;
- a DenseMixedRegister: weights and an explicit (k, 2**n) array of
  statevectors, n <= DENSE_LIMIT;
- a BasisMixedRegister: weights over the computational basis only, a
  diagonal density matrix.  Nothing of size 2**n x 2**n is stored:
  <b|P|b> is 0 when P flips a bit, and otherwise its sign times
  (-1)**popcount(z & b), the exact value a statevector e_b gives.  The
  completely mixed register is one.

Measuring a mixed register samples a component first; the marginal
outcome law is exactly (1 + Tr[P rho])/2 either way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import CapacityError, DimensionError, SoundnessWarning
from .pauli import (
    DENSE_LIMIT,
    PauliBlock,
    PauliOp,
    _random_bits,
    expectation as vector_expectation,
)
from .stabilizer import StabilizerState, random_stabilizer_state, stab_expectation

__all__ = [
    "SchemeParams",
    "SecretKey",
    "MoneyScheme",
    "DenseMixedRegister",
    "BasisMixedRegister",
    "MoneyState",
    "VerificationOutcome",
    "gen_scheme",
    "honest_money",
    "completely_mixed_register",
    "completely_mixed_money",
    "measure_register",
    "register_expectation",
    "verify",
]


@dataclass(frozen=True)
class SchemeParams:
    n: int
    m: int
    l: int
    epsilon: float

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.l < 1:
            raise ValueError("n, m, l must all be >= 1")
        if not 0 <= self.epsilon <= 1:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class SecretKey:
    states: tuple[StabilizerState, ...]

    @property
    def l(self) -> int:
        return len(self.states)


@dataclass(frozen=True, init=False, eq=False)
class MoneyScheme:
    """The public table: l registers of m signed Paulis on n qubits.

    block is the table as one read-only (l, m) PauliBlock: entry (i, j)
    is block[i, j], with phase 0 (+) or 2 (-).  register(i) is the block
    of register i; table builds all l*m entries as PauliOps.
    """

    params: SchemeParams
    block: PauliBlock

    def __init__(self, params: SchemeParams, table: Sequence[Sequence[PauliOp]]):
        p = params
        if len(table) != p.l:
            raise ValueError(f"table has {len(table)} registers, expected l={p.l}")
        for register in table:
            if len(register) != p.m:
                raise ValueError(f"register has {len(register)} entries, expected m={p.m}")
            for op in register:
                if op.n != p.n:
                    raise DimensionError(f"table entry on {op.n} qubits, expected n={p.n}")
                if not op.is_hermitian:
                    raise ValueError(f"table entry {op} is not Hermitian")
                if op.is_identity:
                    raise ValueError("table entries may not be +-identity")
        block = PauliBlock.zeros(p.n, (p.l, p.m))
        for i, register in enumerate(table):
            block[i] = PauliBlock.of(register)
        self._set(p, block)

    @classmethod
    def _trusted(cls, params: SchemeParams, block: PauliBlock) -> MoneyScheme:
        """A scheme of an (l, m) block whose entries already pass __init__'s checks.

        gen_scheme draws every entry Hermitian, non-identity and on n qubits.
        """
        scheme = object.__new__(cls)
        scheme._set(params, block)
        return scheme

    def _set(self, params: SchemeParams, block: PauliBlock) -> None:
        for array in (block.x, block.z, block.phases):
            array.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "block", block)

    def _key(self) -> tuple:
        # equal params give equal shapes and dtypes, so equal bytes are equal entries
        b = self.block
        return self.params, b.x.tobytes(), b.z.tobytes(), b.phases.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MoneyScheme):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def register(self, i: int) -> PauliBlock:
        """Register i's m entries, a 1-D block: == on blocks raises, its ops() compare by value."""
        return self.block[i]

    @property
    def table(self) -> tuple[tuple[PauliOp, ...], ...]:
        """Every register's entries: l*m PauliOps, built on each read."""
        return tuple(self.register(i).ops() for i in range(self.params.l))


def _check_dimension(dim: int) -> None:
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"vector length {dim} is not a power of two")
    if n > DENSE_LIMIT:
        raise CapacityError(f"dense registers limited to {DENSE_LIMIT} qubits")


def _check_weights(w: np.ndarray) -> None:
    # written so that NaN, for which every comparison is False, fails it
    if not (np.all(w >= -1e-9) and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("weights must be nonnegative and sum to 1")


class _Ensemble:
    """Draws component k with probability weights[k]."""

    weights: np.ndarray

    @cached_property
    def _cumweights(self) -> np.ndarray:
        return np.cumsum(self.weights)

    def component(self, u: float) -> int:
        """The component that the uniform u in [0, 1) draws."""
        last = len(self.weights) - 1
        if not last:
            # the search gives 0 or 1, clamped to 0; most forged registers have one vector
            return 0
        return min(int(np.searchsorted(self._cumweights, u, side="right")), last)


@dataclass(frozen=True, eq=False)
class DenseMixedRegister(_Ensemble):
    """Ensemble sum_k weights[k] |vectors[k]><vectors[k]| on n qubits."""

    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or w.shape != (v.shape[0],):
            raise ValueError("need weights (k,) matching vectors (k, 2**n)")
        _check_dimension(v.shape[1])
        _check_weights(w)
        if not np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-9):
            raise ValueError("component statevectors must have unit norm")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", v)

    @classmethod
    def _trusted(cls, weights: np.ndarray, vectors: np.ndarray) -> DenseMixedRegister:
        """A register of arrays that already pass __post_init__'s checks, not checked again.

        weights: float64, nonnegative, summing to 1; vectors: read-only
        complex128 unit rows.  The forger builds its registers this way from
        eigenvectors that register_hamiltonian has checked.
        """
        reg = object.__new__(cls)
        weights.setflags(write=False)
        object.__setattr__(reg, "weights", weights)
        object.__setattr__(reg, "vectors", vectors)
        return reg

    @property
    def n(self) -> int:
        return self.vectors.shape[1].bit_length() - 1


@dataclass(frozen=True, eq=False)
class BasisMixedRegister(_Ensemble):
    """Ensemble sum_b weights[b] |b><b| over the 2**n computational basis states."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("need weights (2**n,)")
        _check_dimension(len(w))
        _check_weights(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return len(self.weights).bit_length() - 1


Register = StabilizerState | DenseMixedRegister | BasisMixedRegister


@dataclass(frozen=True)
class MoneyState:
    registers: tuple[Register, ...]

    def __post_init__(self):
        if not self.registers:
            raise ValueError("money needs at least one register")
        n = self.registers[0].n
        for reg in self.registers:
            if reg.n != n:
                raise DimensionError("registers have mixed qubit counts")

    @property
    def l(self) -> int:
        return len(self.registers)

    @property
    def n(self) -> int:
        return self.registers[0].n


@dataclass(frozen=True)
class VerificationOutcome:
    q_value: float
    accepted: bool


def gen_scheme(
    params: SchemeParams, rng: np.random.Generator
) -> tuple[SecretKey, MoneyScheme]:
    """Draw the secret states and the public table.

    Each entry is a fresh Bernoulli(epsilon) choice: a uniform stabilizer
    element of its register's state (resampled if +I, the group's only
    identity) or a uniform non-identity signed Pauli.  The draws are
    random_stabilizer_element's and random_pauli(..., allow_identity=False)'s,
    made in the same order from the same generator, but each register's
    entries are packed as ints into the table's block, not built as
    PauliOps.  A register's element draws read a draw table made for it
    and dropped after it, not one cached on the secret state.
    """
    if params.epsilon > 0 and params.l / params.epsilon**2 < params.n:
        warnings.warn(
            f"l/epsilon^2 = {params.l / params.epsilon ** 2:.3g} < n = {params.n}; "
            "verification statistics are too weak for soundness",
            SoundnessWarning,
            stacklevel=2,
        )
    n = params.n
    mask, row_bits = (1 << n) - 1, 2 * n
    block = PauliBlock.zeros(n, (params.l, params.m))
    states = []
    for i in range(params.l):
        state = random_stabilizer_state(n, rng)
        draws = None  # the state's draw table, made at its first element draw
        entries = []
        for _ in range(params.m):
            row = 0  # the identity row, resampled on either side
            if rng.random() < params.epsilon:
                if draws is None:
                    draws = state._draw_products()
                while not row:
                    row, phase = draws.signed_row(_random_bits(rng, n))
            else:
                while not row:
                    bits = _random_bits(rng, row_bits + 1)
                    row = bits & ((1 << row_bits) - 1)
                phase = 2 * (bits >> row_bits)
            entries.append((row & mask, row >> n, phase))
        block[i] = PauliBlock._pack(n, *zip(*entries))
        states.append(state)
    return SecretKey(tuple(states)), MoneyScheme._trusted(params, block)


def honest_money(secret: SecretKey) -> MoneyState:
    return MoneyState(secret.states)


@lru_cache(maxsize=None)
def completely_mixed_register(n: int) -> BasisMixedRegister:
    """I/2**n as a uniform ensemble over the computational basis (shared, read-only)."""
    if n > DENSE_LIMIT:
        raise CapacityError(f"dense registers limited to {DENSE_LIMIT} qubits")
    dim = 1 << n
    return BasisMixedRegister(np.full(dim, 1.0 / dim))


def completely_mixed_money(params: SchemeParams) -> MoneyState:
    reg = completely_mixed_register(params.n)
    return MoneyState((reg,) * params.l)


def _check_mixed_query(register: Register, op: PauliOp) -> None:
    if op.n != register.n:
        raise DimensionError(f"operator on {op.n} qubits vs register on {register.n}")
    if not op.is_hermitian:
        raise ValueError("expectation defined for Hermitian operators only")


def measure_register(register: Register, op: PauliOp, rng: np.random.Generator) -> int:
    """One +-1 measurement of op on the register's state."""
    if isinstance(register, StabilizerState):
        e = float(stab_expectation(register, op))
    else:
        _check_mixed_query(register, op)
        k = register.component(rng.random())
        if isinstance(register, DenseMixedRegister):
            e = vector_expectation(op, register.vectors[k])
        else:
            e = _basis_expectation(op, k)
    return 1 if rng.random() < (1.0 + e) / 2.0 else -1


def _basis_expectation(op: PauliOp, b: int) -> float:
    """<b|op|b> for a Hermitian op: 0 if op flips a bit, else its sign times (-1)**popcount(z & b)."""
    if op.x:
        return 0.0
    # i**phase is 1 - phase: a Hermitian phase is 0 or 2
    return float((1 - op.phase) * (1 - 2 * ((op.z & b).bit_count() & 1)))


# Entries of verify's (registers, 2**n) complex temporaries per block of
# dense registers: 16 KiB each, so n=6 takes 16 registers per block and
# n >= 10 one.
_VERIFY_ENTRIES = 1 << 10


def _dense_outcome_sum(block: list[tuple[np.ndarray, PauliOp, float]]) -> int:
    """Sum of the +-1 outcomes of measuring op on each vector, given its outcome's uniform.

    op|v> is built for the whole block at once by apply_pauli's formula:
    its coefficients are +-1 and +-i, so every product is exact.  Each
    <v|op|v> is then its own np.vdot, clipped to [-1, 1], which is
    pauli.expectation bit for bit.
    """
    if not block:
        return 0
    vectors, ops, uniforms = zip(*block)
    v = np.stack(vectors)
    col = np.arange(v.shape[1], dtype=np.uint64)
    x = np.array([op.x for op in ops], dtype=np.uint64)[:, None]
    z = np.array([op.z for op in ops], dtype=np.uint64)[:, None]
    coeff = np.array([1j ** ((op.phase + (op.x & op.z).bit_count()) % 4) for op in ops])
    parities = np.bitwise_count(col & z).astype(np.int8) & 1
    out = np.empty_like(v)
    np.put_along_axis(out, col ^ x, coeff[:, None] * (1 - 2 * parities) * v, axis=1)
    total = 0
    for a, b, u in zip(v, out, uniforms):
        e = float(min(1.0, max(-1.0, np.vdot(a, b).real)))
        total += 1 if u < (1.0 + e) / 2.0 else -1
    return total


def register_expectation(register: Register, op: PauliOp) -> float:
    """Exact Tr[P rho] for the register (no sampling)."""
    if isinstance(register, StabilizerState):
        return float(stab_expectation(register, op))
    _check_mixed_query(register, op)
    if isinstance(register, DenseMixedRegister):
        return float(
            sum(
                w * vector_expectation(op, v)
                for w, v in zip(register.weights, register.vectors)
            )
        )
    if op.x:
        return 0.0
    basis = np.arange(len(register.weights), dtype=np.int64)
    signs = (1 - op.phase) * (1.0 - 2.0 * (np.bitwise_count(basis & op.z) & 1))
    return float(register.weights @ signs)


def verify(
    scheme: MoneyScheme, money: MoneyState, rng: np.random.Generator
) -> VerificationOutcome:
    """Measure one uniformly chosen table operator per register and threshold.

    One pass, drawing what a measure_register call per register would draw:
    the l column choices, whose entries alone are built as PauliOps, then
    one block of uniforms in which each mixed register takes its
    component's uniform and then its outcome's, and each stabilizer
    register its outcome's.  Stabilizer registers are queried by
    stab_expectation, one call each, and dense registers are measured in
    blocks of _VERIFY_ENTRIES vector entries (_dense_outcome_sum).

    Accepts iff the outcome average is >= epsilon/2; the comparison is done
    with Fractions (q_value is a multiple of 1/l) against the decimal that
    epsilon prints as, so a tie with the typed epsilon is accepted and not
    flipped by the binary float's rounding.
    """
    p = scheme.params
    if money.l != p.l:
        raise DimensionError(f"money has {money.l} registers, scheme wants l={p.l}")
    if money.n != p.n:
        raise DimensionError(f"money on {money.n} qubits, scheme wants n={p.n}")
    chosen = scheme.block[np.arange(p.l), rng.integers(0, p.m, size=p.l)].ops()
    mixed = sum(not isinstance(reg, StabilizerState) for reg in money.registers)
    uniforms = iter(rng.random(p.l + mixed).tolist())
    block_size = max(1, _VERIFY_ENTRIES >> p.n)
    block = []  # dense registers' (vector, op, outcome uniform), measured a block at a time
    total = 0
    for reg, op in zip(money.registers, chosen):
        if isinstance(reg, StabilizerState):
            e = float(stab_expectation(reg, op))
        else:
            k = reg.component(next(uniforms))
            if isinstance(reg, DenseMixedRegister):
                block.append((reg.vectors[k], op, next(uniforms)))
                if len(block) == block_size:
                    total += _dense_outcome_sum(block)
                    block = []
                continue
            e = _basis_expectation(op, k)
        total += 1 if next(uniforms) < (1.0 + e) / 2.0 else -1
    total += _dense_outcome_sum(block)
    accepted = Fraction(total, p.l) >= Fraction(str(p.epsilon)) / 2
    return VerificationOutcome(total / p.l, bool(accepted))
