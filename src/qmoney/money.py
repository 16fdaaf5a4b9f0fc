"""Stabilizer money: secret states, public measurement tables, verification.

A scheme is an l x m table of signed Paulis.  Entry (i, j) stabilizes the
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

import numpy as np

from .errors import CapacityError, DimensionError, SoundnessWarning
from .pauli import DENSE_LIMIT, PauliOp, expectation as vector_expectation, random_pauli
from .stabilizer import (
    StabilizerState,
    random_stabilizer_element,
    random_stabilizer_state,
    stab_expectation,
)

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


@dataclass(frozen=True)
class MoneyScheme:
    params: SchemeParams
    table: tuple[tuple[PauliOp, ...], ...]

    def __post_init__(self):
        p = self.params
        if len(self.table) != p.l:
            raise ValueError(f"table has {len(self.table)} registers, expected l={p.l}")
        for register in self.table:
            if len(register) != p.m:
                raise ValueError(f"register has {len(register)} entries, expected m={p.m}")
            for op in register:
                if op.n != p.n:
                    raise DimensionError(f"table entry on {op.n} qubits, expected n={p.n}")
                if not op.is_hermitian:
                    raise ValueError(f"table entry {op} is not Hermitian")
                if op.is_identity:
                    raise ValueError("table entries may not be +-identity")


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

    def sample_component(self, rng: np.random.Generator) -> int:
        k = int(np.searchsorted(self._cumweights, rng.random(), side="right"))
        return min(k, len(self.weights) - 1)


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
    identity) or a uniform non-identity signed Pauli.
    """
    if params.epsilon > 0 and params.l / params.epsilon**2 < params.n:
        warnings.warn(
            f"l/epsilon^2 = {params.l / params.epsilon ** 2:.3g} < n = {params.n}; "
            "verification statistics are too weak for soundness",
            SoundnessWarning,
            stacklevel=2,
        )
    states = []
    table = []
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
    return SecretKey(tuple(states)), MoneyScheme(params, tuple(table))


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
        k = register.sample_component(rng)
        if isinstance(register, DenseMixedRegister):
            e = vector_expectation(op, register.vectors[k])
        elif op.x:
            e = 0.0
        else:  # i**phase is 1 - phase: a Hermitian phase is 0 or 2
            e = float((1 - op.phase) * (1 - 2 * ((op.z & k).bit_count() & 1)))
    return 1 if rng.random() < (1.0 + e) / 2.0 else -1


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
    chosen = rng.integers(0, p.m, size=p.l).tolist()
    total = sum(
        measure_register(money.registers[i], scheme.table[i][j], rng)
        for i, j in enumerate(chosen)
    )
    accepted = Fraction(total, p.l) >= Fraction(str(p.epsilon)) / 2
    return VerificationOutcome(total / p.l, bool(accepted))
