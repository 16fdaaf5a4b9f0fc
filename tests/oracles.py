"""Dense, exhaustive and per-element oracles the tests check qmoney against.

The library's fast paths never call these: each builds a 2**n-sized
object, enumerates, or draws one element at a time, which is what makes
it a plain reference.  They read the library's private helpers where an
oracle must agree with it bit for bit (the draw table's signs, the class
matrix's row order, the kernel's float operations).
"""

from __future__ import annotations

import numpy as np

from qmoney import gf2
from qmoney.errors import CapacityError
from qmoney.money import DenseMixedRegister, _check_mixed_query, _mixed_trace
from qmoney.pauli import (
    DENSE_LIMIT,
    PauliOp,
    _BITS_LETTER,
    _check_capacity,
    _check_same_n,
    _random_bits,
    expectation as vector_expectation,
)
from qmoney.phase import _kernel
from qmoney.postselect import _class_matrix, _nonempty_class_rules
from qmoney.stabilizer import (
    StabilizerState,
    _SubsetProducts,
    _folded,
    _op_from_row,
    stab_expectation,
)

# --- Pauli operators ------------------------------------------------------

_DENSE_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def symplectic_ip(a: PauliOp, b: PauliOp) -> int:
    """Symplectic inner product of the GF(2) vectors; 0 iff the pair commutes."""
    _check_same_n(a, b)
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) & 1


def commutes(a: PauliOp, b: PauliOp) -> bool:
    return symplectic_ip(a, b) == 0


def dense_matrix(op: PauliOp) -> np.ndarray:
    """The 2**n x 2**n complex matrix of ``op`` (little-endian qubit order)."""
    _check_capacity(op.n)
    out = np.array([[1j ** op.phase]])
    for j in reversed(range(op.n)):
        letter = _BITS_LETTER[(op.x >> j) & 1, (op.z >> j) & 1]
        out = np.kron(out, _DENSE_1Q[letter])
    return out


# --- stabilizer states ----------------------------------------------------


def _product(table: _SubsetProducts, key: int) -> PauliOp:
    """The product that key selects in the table, with its exact sign."""
    acc = table.lookup(key)
    row = acc >> table.key_bits
    phase = table.phase(key, acc) - (row & (row >> table.n)).bit_count()
    return _op_from_row(row, table.n, phase)


def _draw_table(state: StabilizerState) -> _SubsetProducts:
    """Subset products of the generators, keyed by generator index.

    Built on the first draw and kept on the state as ``_draw_table``, the
    way the state keeps its query table.
    """
    table = vars(state).get("_draw_table")
    if table is None:
        table = _SubsetProducts([(g.row, _folded(g)[2]) for g in state.generators], state.n)
        object.__setattr__(state, "_draw_table", table)
    return table


def random_stabilizer_element(state: StabilizerState, rng: np.random.Generator) -> PauliOp:
    """Uniform element of the 2**n-element stabilizer group (sign included).

    The ordered product of the generators that n uniform bits select:
    gen_scheme's planted entries are these draws.
    """
    return _product(_draw_table(state), _random_bits(rng, state.n))


def canonical_generators(state: StabilizerState) -> tuple[PauliOp, ...]:
    """Signed RREF of the generator rows; unique per group.

    Two states are equal as states iff this tuple matches, regardless of
    which generating set they were built from.
    """
    rows, _ = gf2.rref(state.rows)
    return tuple(_product(state._query_table, r) for r in rows)


def group_equal(a: StabilizerState, b: StabilizerState) -> bool:
    return a.n == b.n and canonical_generators(a) == canonical_generators(b)


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


# --- money registers ------------------------------------------------------


def register_expectation(register, op: PauliOp) -> float:
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
    return _mixed_trace(op)


# --- the two attacks ------------------------------------------------------


def exact_max_clique(graph) -> tuple[int, ...]:
    """Brute-force maximum clique (branch and bound with pivoting); m <= 48."""
    a = graph.adjacency
    m = a.shape[0]
    if m == 0:
        return ()
    if m > 48:
        raise ValueError("exhaustive clique search is an oracle for m <= 48 only")
    nbr = [sum(1 << u for u in range(m) if a[v, u]) for v in range(m)]
    best: list[int] = []

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def expand(r: list[int], p: int) -> None:
        nonlocal best
        if p == 0:
            if len(r) > len(best):
                best = r.copy()
            return
        if len(r) + p.bit_count() <= len(best):
            return
        pivot = max(bits(p), key=lambda v: (p & nbr[v]).bit_count())
        for v in bits(p & ~nbr[pivot]):
            r.append(v)
            expand(r, p & nbr[v])
            r.pop()
            p &= ~(1 << v)

    expand([], (1 << m) - 1)
    return tuple(sorted(best))


def pe_distribution(phi: float, q: int) -> np.ndarray:
    """Exact outcome distribution over z in [0, 2**q); enumerates, so q <= 20."""
    if not 0 <= phi < 1:
        raise ValueError("phase must lie in [0, 1)")
    if q > 20:
        raise CapacityError("pe_distribution enumerates 2**q outcomes; use q <= 20")
    size = 1 << q
    a = phi * size
    if a == round(a):
        out = np.zeros(size)
        out[int(a) % size] = 1.0
        return out
    return _kernel(a, np.arange(size), size)


# --- postselection --------------------------------------------------------


def class_markov_matrix(scheme, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(members, M restricted to the class {x : L(x) = ell}); rules never leave it."""
    members, local = _nonempty_class_rules(scheme, ell)
    return members, _class_matrix(local)
