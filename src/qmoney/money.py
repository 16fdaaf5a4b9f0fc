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
- a CompletelyMixedRegister: I/2**n, stored as n alone, at any n.  Up
  to 53 qubits a measurement draws a basis state b and reads <b|P|b>:
  0 when P flips a bit, and otherwise its sign times
  (-1)**popcount(z & b), the exact value a statevector e_b gives.  Above
  53 qubits it reads Tr[P I/2**n] instead.

Measuring a mixed register draws a component's uniform first; the
marginal outcome law is exactly (1 + Tr[P rho])/2 either way.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CapacityError, DimensionError, SoundnessWarning
from .pauli import (
    DENSE_LIMIT,
    PauliBlock,
    PauliOp,
    _EntryReplay,
    expectation as vector_expectation,
)
from .stabilizer import (
    StabilizerState,
    _signed_products,
    random_stabilizer_state,
    stab_expectation,
)

__all__ = [
    "SchemeParams",
    "SecretKey",
    "MoneyScheme",
    "DenseMixedRegister",
    "CompletelyMixedRegister",
    "MoneyState",
    "VerificationOutcome",
    "gen_scheme",
    "honest_money",
    "completely_mixed_money",
    "measure_register",
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


@dataclass(frozen=True, eq=False)
class DenseMixedRegister:
    """Ensemble sum_k weights[k] |vectors[k]><vectors[k]| on n qubits."""

    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or w.shape != (v.shape[0],):
            raise ValueError("need weights (k,) matching vectors (k, 2**n)")
        n = v.shape[1].bit_length() - 1
        if 1 << n != v.shape[1]:
            raise ValueError(f"vector length {v.shape[1]} is not a power of two")
        if n > DENSE_LIMIT:
            raise CapacityError(f"dense registers limited to {DENSE_LIMIT} qubits")
        # written so that NaN, for which every comparison is False, fails it
        if not (np.all(w >= -1e-9) and abs(w.sum() - 1.0) <= 1e-9):
            raise ValueError("weights must be nonnegative and sum to 1")
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

    @cached_property
    def _cumweights(self) -> np.ndarray:
        return np.cumsum(self.weights)

    def component(self, u: float) -> int:
        """The component k that the uniform u in [0, 1) draws, with probability weights[k]."""
        last = len(self.weights) - 1
        if not last:
            # the search gives 0 or 1, clamped to 0; most forged registers have one vector
            return 0
        return min(int(np.searchsorted(self._cumweights, u, side="right")), last)


# Bits of a float uniform from rng.random(): a multiple of 2**-53.
_UNIFORM_BITS = sys.float_info.mant_dig


@dataclass(frozen=True)
class CompletelyMixedRegister:
    """I/2**n on n qubits, stored as n alone."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1 qubits, got {self.n}")

    def expectation(self, op: PauliOp, u: float) -> float:
        """<k|op|k> for the basis state k = floor(u * 2**n) that the uniform u in [0, 1) draws.

        Up to 53 qubits k is exact, and it is the draw of the uniform
        ensemble over the basis: every partial sum of its weights, k/2**n,
        is exact.  Above 53 qubits u has too few bits for k, whose low bits
        would always be 0, so the value is Tr[op I/2**n] instead; the
        outcome's own uniform then makes a non-identity op's +-1 the fair
        coin that it is on I/2**n.
        """
        if self.n > _UNIFORM_BITS:
            return _mixed_trace(op)
        return _basis_expectation(op, int(u * (1 << self.n)))


Register = StabilizerState | DenseMixedRegister | CompletelyMixedRegister


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


# Largest pass probability of completely mixed money that gen_scheme
# accepts without a SoundnessWarning.
_MIXED_PASS_LIMIT = 0.01


def gen_scheme(
    params: SchemeParams, rng: np.random.Generator
) -> tuple[SecretKey, MoneyScheme]:
    """Draw the secret states and the public table.

    Each entry is a fresh Bernoulli(epsilon) choice: a uniform stabilizer
    element of its register's state, the ordered product of the
    generators that n uniform key bits select (redrawn while the key is 0,
    the group's only identity +I), or a uniform non-identity signed Pauli,
    random_pauli(..., allow_identity=False)'s draw.  The draws are made in
    that order from the one generator, and the generator's state after
    them is theirs.  A register's m entries are found in one pass over the
    generator's raw words (pauli._EntryReplay), its element draws are
    computed together as products of its state's generators
    (stabilizer._signed_products), and its entries are written into the
    table's block as packed words; no entry is built as a PauliOp and no
    secret state builds a table.  The bit generator must be PCG64,
    PCG64DXSM, SFC64 or Philox (TypeError otherwise, before any draw).

    Completely mixed money passes verify with probability
    P(Bin(l, 1/2) >= l(1 + epsilon/2)/2), at most exp(-l epsilon**2/8) by
    Hoeffding.  SoundnessWarning flags a scheme whose bound exceeds
    _MIXED_PASS_LIMIT, or with l/epsilon**2 < n; epsilon = 0 is exempt.
    """
    eps, l = params.epsilon, params.l
    bound = math.exp(-l * eps**2 / 8)  # Hoeffding's, on mixed money's pass probability
    if eps > 0 and (bound > _MIXED_PASS_LIMIT or l / eps**2 < params.n):
        warnings.warn(
            f"completely mixed money passes with probability up to exp(-l*epsilon^2/8) = "
            f"{bound:.3g} (flagged above {_MIXED_PASS_LIMIT}), and "
            f"l/epsilon^2 = {l / eps**2:.3g} against n = {params.n}; "
            "verification statistics are too weak for soundness",
            SoundnessWarning,
            stacklevel=2,
        )
    n = params.n
    replay = _EntryReplay(rng, n)
    block = PauliBlock.zeros(n, (params.l, params.m))
    states = []
    for i in range(params.l):
        state = random_stabilizer_state(n, rng)
        keyed, bits = replay.entries(params.m, params.epsilon)
        x, z, phases = bits[:, :n], bits[:, n : 2 * n], 2 * bits[:, 2 * n]
        if keyed.any():
            x[keyed], z[keyed], phases[keyed] = _signed_products(state, bits[keyed, :n])
        block[i] = PauliBlock._of_bits(x, z, phases)
        states.append(state)
    return SecretKey(tuple(states)), MoneyScheme._trusted(params, block)


def honest_money(secret: SecretKey) -> MoneyState:
    return MoneyState(secret.states)


def completely_mixed_money(params: SchemeParams) -> MoneyState:
    """I/2**n in every register: l references to one CompletelyMixedRegister, at any n."""
    return MoneyState((CompletelyMixedRegister(params.n),) * params.l)


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
        u = rng.random()
        if isinstance(register, DenseMixedRegister):
            e = vector_expectation(op, register.vectors[register.component(u)])
        else:
            e = register.expectation(op, u)
    return 1 if rng.random() < (1.0 + e) / 2.0 else -1


def _basis_expectation(op: PauliOp, b: int) -> float:
    """<b|op|b> for a Hermitian op: 0 if op flips a bit, else its sign times (-1)**popcount(z & b)."""
    if op.x:
        return 0.0
    # i**phase is 1 - phase: a Hermitian phase is 0 or 2
    return float((1 - op.phase) * (1 - 2 * ((op.z & b).bit_count() & 1)))


def _mixed_trace(op: PauliOp) -> float:
    """Tr[op I/2**n] for a Hermitian op: the sign of +-I, else 0."""
    return 0.0 if op.x or op.z else float(1 - op.phase)


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
            u = next(uniforms)
            if isinstance(reg, DenseMixedRegister):
                block.append((reg.vectors[reg.component(u)], op, next(uniforms)))
                if len(block) == block_size:
                    total += _dense_outcome_sum(block)
                    block = []
                continue
            e = reg.expectation(op, u)
        total += 1 if next(uniforms) < (1.0 + e) / 2.0 else -1
    total += _dense_outcome_sum(block)
    accepted = Fraction(total, p.l) >= Fraction(str(p.epsilon)) / 2
    return VerificationOutcome(total / p.l, bool(accepted))
