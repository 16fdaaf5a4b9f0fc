"""Forgery for small epsilon via simulated phase estimation.

Each register's table defines H = (1/m) sum_j E_ij, whose spectrum leans
slightly positive when the planted fraction is epsilon <= 1/(16*sqrt(m)).
The forger repeatedly draws a uniform eigenstate of H, phase-estimates
H/4 (negative eigenvalues wrap to phases in [3/4, 1)), and keeps the first
eigenstate whose measured phase lands in [1/(8*sqrt(m)) - 1/(20m), 1/2];
after m**2 misses it settles for the fully mixed state.

Phase estimation is simulated at the outcome level with the exact ideal
kernel Pr(z | phi) = sin^2(pi*(a - z)) / (N^2 sin^2(pi*(a - z)/N)) where
N = 2**q and a = phi*N.  Expanding 1/sin^2 in partial fractions turns the
kernel into a sum over integer offsets d with mass proportional to
1/(theta - d)^2 (theta the fractional part of a), which gives both an
exact sampler that never enumerates the 2**q outcomes and exact window
probabilities via trigamma sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import polygamma

from .errors import CapacityError, DimensionError
from .money import DenseMixedRegister, MoneyScheme, MoneyState
from .pauli import DENSE_LIMIT, PauliOp

__all__ = [
    "RegisterHamiltonian",
    "PhaseEstimationParams",
    "RegisterForgeRecord",
    "register_hamiltonian",
    "moments",
    "register_fractions",
    "pe_distribution",
    "pe_sample",
    "window_probability",
    "accept_window",
    "eigenvalue_phases",
    "generate_rho_with_record",
    "forge_low_eps_with_records",
]


@dataclass(frozen=True, eq=False)
class RegisterHamiltonian:
    n: int
    h_matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def register_hamiltonian(ops: Sequence[PauliOp]) -> RegisterHamiltonian:
    """Dense H = (1/m) sum of the ops, with its eigendecomposition.

    Built by scattering each operator's single nonzero per column, so the
    cost is O(m * 2**n) plus one eigensolve.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    n = ops[0].n
    if n > DENSE_LIMIT:
        raise CapacityError(f"dense Hamiltonians limited to {DENSE_LIMIT} qubits")
    dim = 1 << n
    idx = np.arange(dim, dtype=np.uint64)
    h = np.zeros((dim, dim), dtype=complex)
    for op in ops:
        if op.n != n:
            raise DimensionError("operators act on different qubit counts")
        if not op.is_hermitian:
            raise ValueError(f"operator {op} is not Hermitian")
        coeff = 1j ** ((op.phase + (op.x & op.z).bit_count()) % 4)
        signs = 1 - 2 * (np.bitwise_count(idx & np.uint64(op.z)).astype(np.int8) & 1)
        h[idx ^ np.uint64(op.x), idx] += coeff * signs
    h /= len(ops)
    if np.abs(h - h.conj().T).max() > 1e-10:
        raise ArithmeticError("Hamiltonian lost Hermiticity")
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    recon = (eigenvectors * eigenvalues) @ eigenvectors.conj().T
    if np.abs(recon - h).max() > 1e-8:
        raise ArithmeticError("eigendecomposition reconstruction out of contract")
    if eigenvalues.min() < -1 - 1e-9 or eigenvalues.max() > 1 + 1e-9:
        raise ArithmeticError("eigenvalues escaped [-1, 1]")
    h.setflags(write=False)
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return RegisterHamiltonian(n, h, eigenvalues, eigenvectors)


def moments(ham: RegisterHamiltonian) -> tuple[float, float]:
    """(Tr[H]/2**n, Tr[H**2]/2**n); (0, 1/m) for identity- and duplicate-free tables."""
    dim = 1 << ham.n
    mu1 = float(np.trace(ham.h_matrix).real) / dim
    mu2 = float(np.vdot(ham.h_matrix, ham.h_matrix).real) / dim
    return mu1, mu2


def register_fractions(ham: RegisterHamiltonian, m: int) -> tuple[float, float]:
    """f = fraction of eigenvalues with |lambda| >= 1/(2 sqrt m), g = same one-sided."""
    thr = 0.5 / math.sqrt(m) - 1e-12
    f = float(np.mean(np.abs(ham.eigenvalues) >= thr))
    g = float(np.mean(ham.eigenvalues >= thr))
    return f, g


@dataclass(frozen=True)
class PhaseEstimationParams:
    """r bits of precision with failure probability delta; q ancilla qubits."""

    r: int
    delta: float

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need r >= 1")
        if not 0 < self.delta < 1:
            raise ValueError("need 0 < delta < 1")

    @property
    def q(self) -> int:
        return self.r + math.ceil(math.log2(2 + 2 / self.delta))

    @classmethod
    def defaults_for(cls, m: int) -> "PhaseEstimationParams":
        return cls(r=math.ceil(math.log2(20 * m)), delta=1.0 / m**3)


def pe_distribution(phi: float, q: int) -> np.ndarray:
    """Exact outcome distribution over z in [0, 2**q); enumerates, so q <= 20."""
    if not 0 <= phi < 1:
        raise ValueError("phase must lie in [0, 1)")
    if q > 20:
        raise CapacityError("pe_distribution enumerates 2**q outcomes; use q <= 20")
    size = 1 << q
    a = phi * size
    z = np.arange(size)
    if a == round(a):
        out = np.zeros(size)
        out[int(a) % size] = 1.0
        return out
    return np.sin(np.pi * a) ** 2 / (size * np.sin(np.pi * (a - z) / size)) ** 2


def _offset_order():
    yield 0
    d = 1
    while True:
        yield d
        yield -d
        d += 1


_WALK_CAP = 20000


def pe_sample(phi: float, params: PhaseEstimationParams, rng: np.random.Generator) -> int:
    """Exact sample from the ideal kernel, O(1) expected time for any q.

    Sampling the integer offset d with mass (sin^2(pi*theta)/pi^2) /
    (theta - d)^2 and reducing z0 + d mod 2**q reproduces Pr(z | phi)
    exactly, because the kernel is the sum of that mass over each residue
    class.  The walk visits offsets 0, 1, -1, 2, -2, ...; total mass is
    exactly 1, and a safety cap (never hit in practice, probability
    ~1e-5 per draw) falls back to the modal outcome z0.
    """
    size = 1 << params.q
    a = phi * size
    z0 = math.floor(a)
    theta = a - z0
    if theta == 0.0:
        return z0 % size
    scale = math.sin(math.pi * theta) ** 2 / math.pi**2
    u = rng.random()
    acc = 0.0
    d = 0
    for step, d in enumerate(_offset_order()):
        acc += scale / (theta - d) ** 2
        if acc > u or step >= _WALK_CAP:
            break
    return (z0 + d) % size


def _inv_square_window(alphas: np.ndarray, lo_z: int, hi_z: int) -> float:
    """sum over z in [lo_z, hi_z] and given alphas of 1/(alpha - z)**2, exact."""
    total = 0.0
    floors = np.floor(alphas).astype(np.int64)
    below_hi = np.minimum(hi_z, floors)
    sel = below_hi >= lo_z
    if np.any(sel):
        al, bh = alphas[sel], below_hi[sel]
        total += float(np.sum(polygamma(1, al - bh) - polygamma(1, al - lo_z + 1)))
    above_lo = np.maximum(lo_z, floors + 1)
    sel = above_lo <= hi_z
    if np.any(sel):
        al, alz = alphas[sel], above_lo[sel]
        total += float(np.sum(polygamma(1, alz - al) - polygamma(1, hi_z - al + 1)))
    return total


def window_probability(
    phi: float, params: PhaseEstimationParams, lo: float, hi: float
) -> float:
    """Exact Pr(z/2**q in [lo, hi]) under the ideal kernel, for any q.

    Uses the same partial-fraction picture as pe_sample: the window sum
    of the kernel is a trigamma image sum over integer-shifted copies of
    the window, truncated where the remainder is below 1e-11.
    """
    size = 1 << params.q
    lo_z = max(0, math.ceil(lo * size))
    hi_z = min(size - 1, math.floor(hi * size))
    if hi_z < lo_z:
        return 0.0
    a = phi * size
    theta = a - math.floor(a)
    if theta == 0.0:
        return float(lo_z <= int(a) % size <= hi_z)
    n_images = max(8, math.ceil(2e10 / size))
    alphas = a + size * np.arange(-n_images, n_images + 1, dtype=float)
    total = _inv_square_window(alphas, lo_z, hi_z)
    prob = math.sin(math.pi * theta) ** 2 / math.pi**2 * total
    return float(min(1.0, max(0.0, prob)))


def accept_window(m: int) -> tuple[float, float]:
    """Phase window kept by the forger's loop; empty below m=8."""
    if m < 8:
        raise ValueError("accept window is empty for m < 8")
    return 1.0 / (8.0 * math.sqrt(m)) - 1.0 / (20.0 * m), 0.5


def eigenvalue_phases(eigenvalues: np.ndarray) -> np.ndarray:
    """Phases of exp(2 pi i H/4): lambda/4, with negatives wrapped to [3/4, 1)."""
    lam = np.asarray(eigenvalues, dtype=float) / 4.0
    return np.where(lam < 0, 1.0 + lam, lam)


@dataclass(frozen=True)
class RegisterForgeRecord:
    """Per-register diagnostics; exit_iteration/fully_mixed are expectations in analysis mode."""

    f: float
    g: float
    trace_h_rho: float
    exit_iteration: float
    fully_mixed: float


def generate_rho_with_record(
    ham: RegisterHamiltonian,
    m: int,
    rng: np.random.Generator | None = None,
    mode: str = "sample",
) -> tuple[DenseMixedRegister, RegisterForgeRecord]:
    """One run of the accept loop (or its closed form) for one register.

    sample:   draw eigenstates and phase-estimation outcomes until one lands
              in the window; cap m**2 iterations, then the fully mixed state.
    analysis: per-eigenstate window probabilities a_j give the exact output
              mixture w_j = (a_j / 2**n) * (1 - (1-abar)**(m**2)) / abar
              + (1-abar)**(m**2) / 2**n without sampling.
    """
    if m < 8:
        raise ValueError("this forgery needs m >= 8 (accept window empty)")
    params = PhaseEstimationParams.defaults_for(m)
    lo, hi = accept_window(m)
    phases = eigenvalue_phases(ham.eigenvalues)
    f, g = register_fractions(ham, m)
    dim = 1 << ham.n
    cap = m * m
    if mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs an rng")
        size = 1 << params.q
        for k in range(1, cap + 1):
            j = int(rng.integers(dim))
            z = pe_sample(float(phases[j]), params, rng)
            if lo <= z / size <= hi:
                reg = DenseMixedRegister(
                    np.ones(1), ham.eigenvectors[:, j].reshape(1, -1)
                )
                record = RegisterForgeRecord(
                    f, g, float(ham.eigenvalues[j]), float(k), 0.0
                )
                return reg, record
        reg = DenseMixedRegister(np.full(dim, 1.0 / dim), ham.eigenvectors.T.copy())
        record = RegisterForgeRecord(
            f, g, float(ham.eigenvalues.mean()), float(cap), 1.0
        )
        return reg, record
    if mode != "analysis":
        raise ValueError(f"unknown mode {mode!r}")
    accept_p = np.array(
        [window_probability(float(p), params, lo, hi) for p in phases]
    )
    abar = float(accept_p.mean())
    p_cap = (1.0 - abar) ** cap if abar > 0 else 1.0
    if abar > 0:
        weights = accept_p / (dim * abar) * (1.0 - p_cap) + p_cap / dim
        expected_exit = (1.0 - p_cap) / abar
    else:
        weights = np.full(dim, 1.0 / dim)
        expected_exit = float(cap)
    weights = weights / weights.sum()
    reg = DenseMixedRegister(weights, ham.eigenvectors.T.copy())
    trace = float(weights @ ham.eigenvalues)
    return reg, RegisterForgeRecord(f, g, trace, expected_exit, p_cap)


def forge_low_eps_with_records(
    scheme: MoneyScheme,
    rng: np.random.Generator | None = None,
    mode: str = "sample",
    hamiltonians: Sequence[RegisterHamiltonian] | None = None,
) -> tuple[MoneyState, tuple[RegisterForgeRecord, ...]]:
    """Run the accept loop per register and assemble forged money.

    Passing precomputed hamiltonians skips the per-register eigensolves
    when forging repeatedly from one scheme.
    """
    if hamiltonians is None:
        hamiltonians = [register_hamiltonian(ops) for ops in scheme.table]
    registers = []
    records = []
    for ham in hamiltonians:
        reg, rec = generate_rho_with_record(ham, scheme.params.m, rng, mode)
        registers.append(reg)
        records.append(rec)
    return MoneyState(tuple(registers)), tuple(records)
