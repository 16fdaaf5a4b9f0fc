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

The kernel's one input besides the phase is the ancilla count q
(ancilla_qubits turns r bits of precision at failure probability delta
into q).  Everything else the forger needs comes from the register: its
RegisterHamiltonian records the table size m, which fixes q, the accept
window and the m**2 cap.

The kernel runs once per drawn eigenstate and once per eigenphase, so a
call costs a few numpy operations on small arrays: a window sum reads a
layout cached per window, makes one zeta(2, .) = psi1 call and two
sums, and a window shorter than the image sum is summed from the kernel
directly.  H is built by one scatter per block of operators, and each
register's accept-loop constants are computed once.

A RegisterHamiltonian holds its register's block of packed words and
its eigenpairs, which is all the forger reads.  H is scattered from the
block's word arrays, dropped once the eigensolve has been checked against
it, and rebuilt bit for bit from the block on first read of h_matrix.
The checks run over blocks of rows, so they add no 2**n x 2**n
temporary to H, the eigenvectors and the eigensolve's own workspace.  A
sample-mode forge that accepts eigenvector j returns the one read-only
register for (H, j), a copy of that eigenvector with a shared unit weight,
so it does not keep the 2**n x 2**n eigenbasis alive and forges that draw
the same j share it.  The analysis register and the fully mixed fallback
(one per H) read every eigenvector and view the eigenbasis.  Either way
the vectors' unit norms were checked by register_hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import zeta

from .errors import CapacityError
from .money import DenseMixedRegister, MoneyState
from .pauli import DENSE_LIMIT, PauliBlock, PauliOp

__all__ = [
    "RegisterHamiltonian",
    "RegisterForgeRecord",
    "ancilla_qubits",
    "register_hamiltonian",
    "moments",
    "register_fractions",
    "pe_sample",
    "window_probability",
    "accept_window",
    "eigenvalue_phases",
    "generate_rho_with_record",
    "forge_low_eps_with_records",
]


# The weight of every pure forged register: one shared read-only array.
_UNIT_WEIGHT = np.ones(1)
_UNIT_WEIGHT.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RegisterHamiltonian:
    """Eigenpairs of H = (1/m) sum of a register's m table entries (block), on n qubits.

    Built by register_hamiltonian, which checks the eigenpairs against H;
    the forger trusts them, so its registers are not checked again.
    """

    n: int
    m: int
    block: PauliBlock
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @cached_property
    def h_matrix(self) -> np.ndarray:
        """H, rebuilt from the block on first read: the bits register_hamiltonian solved."""
        h = _hamiltonian_matrix(self.block, self.n)
        h.setflags(write=False)
        return h

    @cached_property
    def _fully_mixed(self) -> DenseMixedRegister:
        """The sample forge's fallback: uniform weights over the eigenbasis, one per Hamiltonian."""
        dim = 1 << self.n
        return DenseMixedRegister._trusted(np.full(dim, 1.0 / dim), self.eigenvectors.T)

    @cached_property
    def _eigenstates(self) -> dict[int, DenseMixedRegister]:
        """The pure register of each eigenvector j a sample forge has accepted, by j."""
        return {}

    def _eigenstate(self, j: int) -> DenseMixedRegister:
        """Eigenvector j as a read-only pure register, built at its first acceptance and shared."""
        reg = self._eigenstates.get(j)
        if reg is None:
            vector = self.eigenvectors.T[j : j + 1].copy()
            vector.setflags(write=False)
            reg = self._eigenstates[j] = DenseMixedRegister._trusted(_UNIT_WEIGHT, vector)
        return reg

    @cached_property
    def _accept_loop(self) -> tuple[int, float, float, list[float]]:
        """(q, lo, hi, phases) of the forger's accept loop, computed once."""
        q = ancilla_qubits(math.ceil(math.log2(20 * self.m)), 1.0 / self.m**3)
        return (q, *accept_window(self.m), eigenvalue_phases(self.eigenvalues).tolist())


# Entries of H that register_hamiltonian scatters per block of operators:
# each index temporary is 2 MiB, whatever m is.  Tables with m * 2**n up
# to this (n=6, m=64 among them) are one block.
_SCATTER_ENTRIES = 1 << 18


def _scatter_ops(block: PauliBlock, n: int) -> np.ndarray:
    """m*H as one float64 vector of interleaved real and imaginary parts.

    Operator j has one nonzero per column c, i**k_j * (-1)**popcount(c & z_j)
    at row c ^ x_j, and i**k_j is real or imaginary.  np.add.at adds each
    block's entries into the vector.  They are all +-1, so every entry is a
    sum of integers: their order cannot matter, and no complex arithmetic
    can turn a zero negative.  n <= DENSE_LIMIT, so x and z are one word.
    """
    dim = 1 << n
    col = np.arange(dim, dtype=np.int64)
    x, z = (words[:, :1].astype(np.int64) for words in (block.x, block.z))
    k = (block.phases[:, None] + np.bitwise_count(x & z)).astype(np.int64) % 4
    h = np.zeros(2 * dim * dim)
    step = max(1, _SCATTER_ENTRIES >> n)
    for lo in range(0, len(block), step):
        xb, zb, kb = x[lo : lo + step], z[lo : lo + step], k[lo : lo + step]
        # i**k is +1, +i, -1, -i: imaginary for odd k, negative for k >= 2
        slot = ((((col ^ xb) << n) | col) << 1) | (kb & 1)
        negative = (kb >> 1) ^ (np.bitwise_count(col & zb) & 1)
        np.add.at(h, slot.ravel(), 1.0 - 2.0 * negative.ravel())
    return h


def _hamiltonian_matrix(block: PauliBlock, n: int) -> np.ndarray:
    """H = (1/m) sum of the block's operators as a 2**n x 2**n complex matrix."""
    dim = 1 << n
    h = _scatter_ops(block, n).view(complex).reshape(dim, dim)
    h /= len(block)
    return h


# Entries of H per row block of register_hamiltonian's checks: 256 KiB per
# complex temporary, and n <= 7 is one block.  A block has at least
# 2**n / 16 rows, so a large H is checked in at most 16 matrix products.
_CHECK_ENTRIES = 1 << 14


def register_hamiltonian(ops: Sequence[PauliOp] | PauliBlock) -> RegisterHamiltonian:
    """Eigenpairs of the dense H = (1/m) sum of the ops, checked against H.

    ops is a register's block, or a list of PauliOps packed once.  H is
    scattered in blocks of operators (see _scatter_ops).  Its
    Hermiticity, the reconstruction V diag(lambda) V^dagger = H, the
    eigenvalue range and the eigenvectors' unit norms are checked over
    blocks of rows, so the checks add temporaries of a block, not of H.
    H is then dropped; RegisterHamiltonian.h_matrix rebuilds it.  Cost
    O(m * 2**n) time plus one eigensolve and one matrix product.
    """
    block = PauliBlock.of(ops)
    n = block.n
    if n > DENSE_LIMIT:
        raise CapacityError(f"dense Hamiltonians limited to {DENSE_LIMIT} qubits")
    odd = np.flatnonzero(block.phases & 1)
    if len(odd):
        raise ValueError(f"operator {block[odd[:1]].ops()[0]} is not Hermitian")
    dim = 1 << n
    h = _hamiltonian_matrix(block, n)
    rows = max(1, _CHECK_ENTRIES >> n, dim >> 4)
    for lo in range(0, dim, rows):
        if np.abs(h[lo : lo + rows] - h[:, lo : lo + rows].conj().T).max() > 1e-10:
            raise ArithmeticError("Hamiltonian lost Hermiticity")
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    squared_norms = np.zeros(dim)
    for lo in range(0, dim, rows):
        # rows of V diag(lambda) V^dagger as the conjugate of conj(V) diag(lambda) V^T,
        # which reads V^dagger through the transposed view instead of a conjugated copy
        v = eigenvectors[lo : lo + rows].conj()
        squared_norms += (v.real**2 + v.imag**2).sum(axis=0)
        v *= eigenvalues
        recon = v @ eigenvectors.T
        np.conjugate(recon, out=recon)
        recon -= h[lo : lo + rows]
        if np.abs(recon).max() > 1e-8:
            raise ArithmeticError("eigendecomposition reconstruction out of contract")
    if eigenvalues.min() < -1 - 1e-9 or eigenvalues.max() > 1 + 1e-9:
        raise ArithmeticError("eigenvalues escaped [-1, 1]")
    # the same bound as DenseMixedRegister's, so the forger's registers skip it
    if not np.all(np.abs(np.sqrt(squared_norms) - 1.0) <= 1e-9):
        raise ArithmeticError("eigenvectors lost unit norm")
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return RegisterHamiltonian(n, len(block), block, eigenvalues, eigenvectors)


def moments(ham: RegisterHamiltonian) -> tuple[float, float]:
    """(Tr[H]/2**n, Tr[H**2]/2**n); (0, 1/m) for identity- and duplicate-free tables."""
    dim = 1 << ham.n
    mu1 = float(np.trace(ham.h_matrix).real) / dim
    mu2 = float(np.vdot(ham.h_matrix, ham.h_matrix).real) / dim
    return mu1, mu2


def register_fractions(ham: RegisterHamiltonian) -> tuple[float, float]:
    """f = fraction of eigenvalues with |lambda| >= 1/(2 sqrt m), g = same one-sided."""
    thr = 0.5 / math.sqrt(ham.m) - 1e-12
    f = float(np.mean(np.abs(ham.eigenvalues) >= thr))
    g = float(np.mean(ham.eigenvalues >= thr))
    return f, g


def ancilla_qubits(r: int, delta: float) -> int:
    """Ancilla count q for r bits of precision with failure probability delta."""
    if r < 1:
        raise ValueError("need r >= 1")
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    return r + math.ceil(math.log2(2 + 2 / delta))


def _kernel(a: float, z: np.ndarray, size: int) -> np.ndarray:
    """Pr(z | phi) at the outcomes z, a = phi * size not an integer."""
    return np.sin(np.pi * a) ** 2 / (size * np.sin(np.pi * (a - z) / size)) ** 2


def _offset_order():
    yield 0
    d = 1
    while True:
        yield d
        yield -d
        d += 1


# Walk steps before the sampler's tail inversion; by then the walk has
# visited every offset |d| <= _WALK_CAP // 2.
_WALK_CAP = 20000


def pe_sample(phi: float, q: int, rng: np.random.Generator) -> int:
    """Exact sample from the ideal kernel, O(1) expected time for any q.

    Sampling the integer offset d with mass (sin^2(pi*theta)/pi^2) /
    (theta - d)^2 and reducing z0 + d mod 2**q reproduces Pr(z | phi)
    exactly, because the kernel is the sum of that mass over each residue
    class.  One uniform u picks d: the walk visits offsets 0, 1, -1, 2,
    -2, ... and stops where the accumulated mass passes u.  A walk that
    has not stopped by |d| = _WALK_CAP // 2 (probability at most about
    2e-5 per draw) places the same u in the tail |d| > _WALK_CAP // 2 by
    the tail's closed-form trigamma masses (_tail_offset); there is no
    fallback outcome and no second draw.
    """
    size = 1 << q
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
        if acc > u:
            break
        if step == _WALK_CAP:
            d = _tail_offset(1.0 - u, theta, scale)
            break
    return (z0 + d) % size


def _tail_offset(v: float, theta: float, scale: float) -> int:
    """The offset |d| > D = _WALK_CAP // 2 of a draw leaving mass v = 1 - u above it.

    Above the walk's mass the tail is laid out as D+1, D+2, ..., then
    ..., -D-2, -D-1 at the top of the CDF.  The offsets beyond t weigh
    scale * psi1(t + 1 + theta) on the negative side and
    scale * psi1(t + 1 - theta) on the positive side, so the draw is the
    smallest t > D whose mass beyond falls below v (negative side), or
    below v less the whole negative tail (positive side).  1 - u is exact
    for every u that reaches the tail.
    """
    limit = _WALK_CAP // 2
    negative = scale * zeta(2, limit + 1 + theta)
    if v <= negative:
        sign, shift = -1, theta
    else:
        sign, shift, v = 1, -theta, v - negative

    def beyond(t: int) -> float:
        return scale * zeta(2, t + 1 + shift)

    # the smallest t > limit with beyond(t) < v: double, then bisect.  This
    # ends for any v > 0, even where t + 1 + shift no longer moves in floats.
    lo, hi = limit, limit + 1
    while beyond(hi) >= v:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if beyond(mid) >= v:
            lo = mid
        else:
            hi = mid
    return sign * hi


# Window plans and layouts kept at once: the forger uses one window per
# table size, and a layout at small q holds about 4 * 2e10 / 2**q floats.
_WINDOW_CACHE = 16


@lru_cache(maxsize=_WINDOW_CACHE)
def _window_plan(q: int, lo: float, hi: float) -> tuple[int, int, int, int]:
    """(2**q, lo_z, hi_z, K): the window's outcomes lo_z..hi_z and its image count K."""
    size = 1 << q
    lo_z = max(0, math.ceil(lo * size))
    hi_z = min(size - 1, math.floor(hi * size))
    return size, lo_z, hi_z, max(8, math.ceil(2e10 / size))


@lru_cache(maxsize=_WINDOW_CACHE)
def _window_layout(
    size: int, lo_z: int, hi_z: int, n_images: int, top_in: bool, bottom_in: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Read-only templates of the image sum's trigamma arguments, and the high side's length.

    The images alpha = a + size*k with window outcomes at or below them
    (k >= 0 if top_in, else k >= 1) and those with outcomes above them
    (k <= 0 if bottom_in, else k <= -1) are laid out as [high | low | high
    | low].  ((alpha * sign) + offset) + plus is then alpha - hi_z,
    lo_z - alpha, (alpha - lo_z) + 1 and (hi_z - alpha) + 1 bit for bit:
    x - y is x + (-y), a product with +-1 is exact, and adding 0.0 to a
    nonzero value is exact.  The 1 is added last, as written, because near
    a = 0 hi_z - a rounds.
    """
    shifts = size * np.arange(-n_images, n_images + 1, dtype=float)
    high = shifts[n_images if top_in else n_images + 1 :]
    low = shifts[: n_images + 1 if bottom_in else n_images]
    counts = [len(high), len(low)] * 2
    templates = (
        np.concatenate([high, low, high, low]),
        np.repeat([1.0, -1.0, 1.0, -1.0], counts),
        np.repeat([-float(hi_z), float(lo_z), -float(lo_z), float(hi_z)], counts),
        np.repeat([0.0, 1.0], [len(high) + len(low)] * 2),
    )
    for t in templates:
        t.setflags(write=False)
    return (*templates, len(high))


def window_probability(phi: float, q: int, lo: float, hi: float) -> float:
    """Exact Pr(z/2**q in [lo, hi]) under the ideal kernel, for phi in [0, 1].

    Uses the same partial-fraction picture as pe_sample: the window sum
    of the kernel is scale times an image sum over the 2K+1 shifted copies
    alpha = a + k*2**q, |k| <= K = max(8, ceil(2e10 / 2**q)), of the
    window; K is where the remainder falls below 1e-11.  For one image,
    the outcomes z <= alpha give psi1(alpha - top) - psi1(alpha - lo_z + 1)
    with top = min(hi_z, floor(alpha)), and the outcomes z > alpha give
    psi1(bottom - alpha) - psi1(hi_z - alpha + 1) with bottom =
    max(lo_z, floor(alpha) + 1).  With 0 <= a < 2**q every image k >= 1
    lies above the whole window and every k <= -1 below it, so only k = 0
    (alpha = a) can fall on both sides; its alpha - top and bottom - alpha
    are written as scalars.  Four array operations on a cached layout
    (_window_layout) give every other trigamma argument, one zeta(2, .)
    call all the values, and each side is summed in image order.

    A window of fewer outcomes than 2K+1 is summed directly from the
    kernel instead, so small q costs the window's length, not 2e10 / 2**q
    images.
    """
    if not 0.0 <= phi <= 1.0:
        raise ValueError("phase must lie in [0, 1]")
    size, lo_z, hi_z, n_images = _window_plan(q, lo, hi)
    if hi_z < lo_z:
        return 0.0
    a = phi * size
    z0 = math.floor(a)
    theta = a - z0
    if theta == 0.0:
        return float(lo_z <= z0 % size <= hi_z)
    if hi_z - lo_z < 2 * n_images:
        prob = float(np.sum(_kernel(a, np.arange(lo_z, hi_z + 1), size)))
    else:
        top_in, bottom_in = z0 >= lo_z, z0 < hi_z  # top >= lo_z, bottom <= hi_z
        shifts, signs, offsets, plus, n_high = _window_layout(
            size, lo_z, hi_z, n_images, top_in, bottom_in
        )
        t = shifts + a
        t *= signs
        t += offsets
        t += plus
        half = len(t) // 2
        if top_in:
            t[0] = a - min(hi_z, z0)
        if bottom_in:
            t[half - 1] = max(lo_z, z0 + 1) - a
        zeta(2.0, t, out=t)
        d = t[:half] - t[half:]
        total = float(np.add.reduce(d[:n_high])) + float(np.add.reduce(d[n_high:]))
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


def _index_draw(rng: np.random.Generator, n: int) -> Callable[[], int]:
    """A draw of j uniform on [0, 2**n) for 1 <= n <= 32: rng.integers(2**n), bit for bit.

    integers draws a range of at most 2**32 values by Lemire's method from
    one next_uint32 word, which it never rejects when the range is a power
    of two, and returns the word's top n bits.  This reads that word
    straight from the bit generator's C next_uint32, so the value, and the
    generator state after it, are integers'.
    """
    bitgen = rng.bit_generator.ctypes
    next_uint32, state, shift = bitgen.next_uint32, bitgen.state, 32 - n
    return lambda: next_uint32(state) >> shift


@dataclass(frozen=True)
class RegisterForgeRecord:
    """Per-register diagnostics; exit_iteration/fully_mixed are expectations in analysis mode."""

    trace_h_rho: float
    exit_iteration: float
    fully_mixed: float


def generate_rho_with_record(
    ham: RegisterHamiltonian,
    rng: np.random.Generator | None = None,
    mode: str = "sample",
) -> tuple[DenseMixedRegister, RegisterForgeRecord]:
    """One run of the accept loop (or its closed form) for one register.

    sample:   draw eigenstates and phase-estimation outcomes until one lands
              in the window; cap m**2 iterations, then the fully mixed state.
    analysis: per-eigenstate window probabilities a_j give the exact output
              mixture w_j = (a_j / 2**n) * (1 - (1-abar)**(m**2)) / abar
              + (1-abar)**(m**2) / 2**n without sampling.

    The register's vectors are rows of ham.eigenvectors.T.  An accepted
    draw of eigenvector j returns the one read-only register for (ham, j):
    a copy of its row with a shared unit weight, built at j's first
    acceptance, so it does not hold the Hamiltonian's eigenbasis alive and
    forges that accept the same j share it.  The fully mixed fallback is
    one register per Hamiltonian.  It and the analysis register use every
    row and view the eigenbasis instead of copying it.  The unit norms were
    checked by register_hamiltonian, so no register is validated again.
    """
    if ham.m < 8:
        raise ValueError("this forgery needs m >= 8 (accept window empty)")
    q, lo, hi, phases = ham._accept_loop
    size = 1 << q
    dim = 1 << ham.n
    cap = ham.m * ham.m
    if mode == "sample":
        if rng is None:
            raise ValueError("sample mode needs an rng")
        draw_index = _index_draw(rng, ham.n)
        for k in range(1, cap + 1):
            j = draw_index()
            z = pe_sample(phases[j], q, rng)
            if lo <= z / size <= hi:
                reg = ham._eigenstate(j)
                return reg, RegisterForgeRecord(float(ham.eigenvalues[j]), float(k), 0.0)
        return ham._fully_mixed, RegisterForgeRecord(float(ham.eigenvalues.mean()), float(cap), 1.0)
    if mode != "analysis":
        raise ValueError(f"unknown mode {mode!r}")
    accept_p = np.array([window_probability(p, q, lo, hi) for p in phases])
    abar = float(accept_p.mean())
    p_cap = (1.0 - abar) ** cap if abar > 0 else 1.0
    if abar > 0:
        weights = accept_p / (dim * abar) * (1.0 - p_cap) + p_cap / dim
        expected_exit = (1.0 - p_cap) / abar
    else:
        weights = np.full(dim, 1.0 / dim)
        expected_exit = float(cap)
    weights = weights / weights.sum()
    reg = DenseMixedRegister._trusted(weights, ham.eigenvectors.T)
    trace = float(weights @ ham.eigenvalues)
    return reg, RegisterForgeRecord(trace, expected_exit, p_cap)


def forge_low_eps_with_records(
    hamiltonians: Sequence[RegisterHamiltonian],
    rng: np.random.Generator | None = None,
    mode: str = "sample",
) -> tuple[MoneyState, tuple[RegisterForgeRecord, ...]]:
    """Run the accept loop on each register's Hamiltonian and assemble forged money."""
    registers = []
    records = []
    for ham in hamiltonians:
        reg, rec = generate_rho_with_record(ham, rng, mode)
        registers.append(reg)
        records.append(rec)
    return MoneyState(tuple(registers)), tuple(records)
