"""Secret recovery for large epsilon via the planted commutation clique.

Planted table entries all stabilize the same state, so inside one register
they pairwise commute and form a clique of expected size epsilon*m in the
commutation graph; the other ~m(1-epsilon) vertices connect to everything
with probability ~1/2.  Three finders cover the regimes:

  degree_sort_clique   very large cliques; sort by degree, keep greedily
  spectral_clique      k ~ C*sqrt(m); top-k coordinates of the second
                       eigenvector, then the >= 3k/4-neighbor filter
  bootstrap_clique     small constants c: enumerate seed sets S of size
                       ceil(log2(100/c)) and run the spectral finder on the
                       common neighborhood of each S

A recovered clique's operators are completed to a full stabilizer state
(dropping sign-contradicting strays greedily), which then passes the
money verifier whenever the clique covers the planted group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import AttackFailure
from .money import MoneyScheme, MoneyState, StabilizerRegister
from .pauli import PauliOp, commutation_matrix, commutes
from .stabilizer import (
    StabilizerState,
    complete_to_stabilizer_state,
    greedy_consistent_subset,
    random_stabilizer_state,
    stab_expectation,
)

__all__ = [
    "MeasurementGraph",
    "SignedMatrix",
    "CliqueResult",
    "CliqueAttackReport",
    "CliqueAttackResult",
    "build_graph",
    "degree_sort_clique",
    "second_eigenvector",
    "spectral_clique",
    "bootstrap_clique",
    "exact_max_clique",
    "max_eigenvalue_check",
    "attack_register",
    "run_clique_attack",
]

# Most seed sets bootstrap_clique tries before giving up.
MAX_SEED_SUBSETS = 2000


@dataclass(frozen=True, eq=False)
class MeasurementGraph:
    """Commutation graph of one register; vertices are table indices."""

    adjacency: np.ndarray
    source_ops: tuple[PauliOp, ...] | None = None

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=np.uint8)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        if np.any(a > 1) or np.any(a != a.T) or np.any(np.diag(a) != 0):
            raise ValueError("adjacency must be symmetric 0/1 with zero diagonal")
        if self.source_ops is not None and len(self.source_ops) != a.shape[0]:
            raise ValueError("source_ops length must match adjacency size")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1, dtype=np.int64)

    def is_clique(self, vertices: Sequence[int]) -> bool:
        """Pairwise check; re-verified on the operators themselves when available."""
        verts = list(vertices)
        sub = self.adjacency[np.ix_(verts, verts)]
        if not np.all(sub + np.eye(len(verts), dtype=np.uint8)):
            return False
        if self.source_ops is not None and len(verts) > 1:
            com = commutation_matrix([self.source_ops[v] for v in verts])
            return bool(np.all(com + np.eye(len(verts), dtype=np.uint8)))
        return True


@dataclass(frozen=True, eq=False)
class SignedMatrix:
    """Zero-diagonal +-1 matrix: +1 for commuting pairs, -1 for anticommuting."""

    matrix: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.matrix, dtype=np.int8)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("matrix must be square")
        off = b[~np.eye(b.shape[0], dtype=bool)]
        if np.any(b != b.T) or np.any(np.diag(b) != 0) or np.any(np.abs(off) != 1):
            raise ValueError("need symmetric zero-diagonal +-1 matrix")
        b.setflags(write=False)
        object.__setattr__(self, "matrix", b)

    @classmethod
    def from_ops(cls, ops: Sequence[PauliOp]) -> "SignedMatrix":
        b = 2 * commutation_matrix(list(ops)).astype(np.int8) - 1
        np.fill_diagonal(b, 0)
        return cls(b)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CliqueResult:
    vertices: tuple[int, ...]
    method: str
    recovered_state: StabilizerState | None = None
    dropped: tuple[int, ...] = ()


def build_graph(ops: Sequence[PauliOp]) -> MeasurementGraph:
    adjacency = commutation_matrix(list(ops))
    np.fill_diagonal(adjacency, 0)
    return MeasurementGraph(adjacency, tuple(ops))


def _greedy_from_order(graph: MeasurementGraph, order: Sequence[int]) -> list[int]:
    adjacency = graph.adjacency
    selected: list[int] = []
    for v in order:
        if all(adjacency[v, u] for u in selected):
            selected.append(v)
    return selected


def degree_sort_clique(graph: MeasurementGraph) -> CliqueResult:
    """Greedy clique from the degree-sorted vertex list (ties: lowest index)."""
    degrees = graph.degrees()
    order = sorted(range(graph.m), key=lambda v: (-degrees[v], v))
    selected = _greedy_from_order(graph, order)
    return CliqueResult(tuple(sorted(selected)), "degree_sort")


def second_eigenvector(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenpair of the second-largest eigenvalue of a symmetric matrix.

    Dense symmetric solve of the top two eigenpairs; residual checked
    against 1e-8 * ||A||_F.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    m = a.shape[0]
    if m < 2:
        raise ValueError("need at least a 2x2 matrix")
    w, v = scipy.linalg.eigh(a, subset_by_index=(m - 2, m - 1))
    lam, vec = float(w[0]), v[:, 0]
    resid = float(np.linalg.norm(a @ vec - lam * vec))
    if resid > 1e-8 * float(np.linalg.norm(a)):
        raise ArithmeticError(f"eigensolver residual {resid:.3e} out of contract")
    return lam, vec / np.linalg.norm(vec)


def _filter_candidate(graph: MeasurementGraph, key: np.ndarray, k: int) -> list[int]:
    # W = k largest keys (stable sort => ties broken by lowest index),
    # then every vertex with >= 3k/4 neighbors in W.
    order = np.argsort(-key, kind="stable")
    w_set = order[:k]
    counts = graph.adjacency[:, w_set].sum(axis=1, dtype=np.int64)
    candidate = np.flatnonzero(counts >= 0.75 * k)
    verts = [int(v) for v in candidate]
    if graph.is_clique(verts):
        return verts
    # Stray vertices slip in occasionally; keep the greedy commuting core.
    sub_deg = graph.adjacency[np.ix_(verts, verts)].sum(axis=1, dtype=np.int64)
    order = sorted(range(len(verts)), key=lambda i: (-int(sub_deg[i]), verts[i]))
    kept = _greedy_from_order(graph, [verts[i] for i in order])
    return kept


def spectral_clique(graph: MeasurementGraph, k: int) -> CliqueResult:
    """Second-eigenvector clique finder for planted size ~k.

    The eigenvector's global sign is arbitrary, so the top-k set is formed
    for both orientations and for absolute values; the largest verified
    clique among the three wins.
    """
    if k < 2:
        raise ValueError(f"expected clique size must be >= 2, got {k}")
    k = min(k, graph.m)
    _, v2 = second_eigenvector(graph.adjacency.astype(float))
    best: list[int] = []
    for key in (v2, -v2, np.abs(v2)):
        cand = _filter_candidate(graph, key, k)
        if len(cand) > len(best):
            best = cand
    return CliqueResult(tuple(sorted(best)), "spectral")


def bootstrap_clique(graph: MeasurementGraph, c: float) -> CliqueResult:
    """Seed-set bootstrap for cliques of size c*sqrt(m) with small c.

    Iterates seed sets S of size ceil(log2(100/c)) in degree-sorted order
    (at most MAX_SEED_SUBSETS); inside the common neighborhood of a seed set
    that lies in the planted clique, the clique's relative size is boosted
    ~2**|S|-fold and the spectral finder applies.  Early exit at a verified clique of size
    >= c*sqrt(m).
    """
    if not 0 < c <= 100:
        raise ValueError(f"need 0 < c <= 100, got {c}")
    m = graph.m
    target = max(2, math.ceil(c * math.sqrt(m)))
    t = math.ceil(math.log2(100.0 / c)) if c < 100 else 0
    if t == 0:
        inner = spectral_clique(graph, min(target, m))
        return CliqueResult(inner.vertices, "bootstrap")
    degrees = graph.degrees()
    order = sorted(range(m), key=lambda v: (-degrees[v], v))
    best: tuple[int, ...] = ()
    for seed in islice(combinations(order, t), MAX_SEED_SUBSETS):
        if not graph.is_clique(seed):
            continue
        common_mask = np.all(graph.adjacency[list(seed)] == 1, axis=0)
        common = np.flatnonzero(common_mask)
        if len(common) < 2:
            continue
        sub_ops = (
            tuple(graph.source_ops[v] for v in common)
            if graph.source_ops is not None
            else None
        )
        sub = MeasurementGraph(graph.adjacency[np.ix_(common, common)], sub_ops)
        inner = spectral_clique(sub, min(max(2, target - t), sub.m))
        cand = tuple(sorted(set(seed) | {int(common[v]) for v in inner.vertices}))
        if len(cand) > len(best) and graph.is_clique(cand):
            best = cand
            if len(best) >= target:
                break
    return CliqueResult(best, "bootstrap")


def exact_max_clique(graph: MeasurementGraph | np.ndarray) -> tuple[int, ...]:
    """Brute-force maximum clique (branch and bound with pivoting); m <= 48."""
    a = graph.adjacency if isinstance(graph, MeasurementGraph) else np.asarray(graph)
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


def max_eigenvalue_check(ops: Sequence[PauliOp]) -> float:
    """Largest eigenvalue of the +-1 commutation sign matrix."""
    b = SignedMatrix.from_ops(ops).matrix.astype(float)
    m = b.shape[0]
    w = scipy.linalg.eigh(b, subset_by_index=(m - 1, m - 1), eigvals_only=True)
    return float(w[0])


def _clique_floor(m: int, expected_k: int | None) -> int:
    root = math.ceil(math.sqrt(m))
    if expected_k is not None and expected_k >= 2:
        return max(2, min(root, expected_k // 2))
    return max(2, root)


def attack_register(
    ops: Sequence[PauliOp], expected_k: int | None = None
) -> CliqueResult:
    """Full per-register pipeline: graph, clique, completion to a state.

    The finder is chosen by regime from the expected planted size
    (degree sort above 4*sqrt(m)*log10(m), spectral down to 10*sqrt(m),
    bootstrap below; a grid scan when no hint is given).  A clique smaller
    than the failure floor raises AttackFailure.
    """
    ops = list(ops)
    m = len(ops)
    graph = build_graph(ops)
    results: list[CliqueResult] = []
    if expected_k is None:
        results.append(degree_sort_clique(graph))
        k = math.ceil(math.sqrt(m))
        while k <= m:
            results.append(spectral_clique(graph, k))
            k *= 2
    elif expected_k >= 4.0 * math.sqrt(m) * math.log10(max(m, 10)):
        results.append(degree_sort_clique(graph))
    elif expected_k >= 10.0 * math.sqrt(m):
        results.append(spectral_clique(graph, expected_k))
        results.append(degree_sort_clique(graph))
    else:
        # aim slightly below the mean planted size so the early exit can
        # fire (the actual clique is Binomial(m, eps) and often < eps*m)
        target = max(2, math.floor(0.8 * expected_k))
        results.append(bootstrap_clique(graph, target / math.sqrt(m)))
    best = max(results, key=lambda r: len(r.vertices))
    floor = _clique_floor(m, expected_k)
    if len(best.vertices) < floor:
        raise AttackFailure(
            f"largest commuting set found has {len(best.vertices)} < {floor} operators"
        )
    clique_ops = [ops[v] for v in best.vertices]
    kept, conflicts = greedy_consistent_subset(clique_ops)
    state = complete_to_stabilizer_state([clique_ops[i] for i in kept])
    dropped = tuple(best.vertices[i] for i, _ in conflicts)
    return CliqueResult(best.vertices, best.method, state, dropped)


@dataclass(frozen=True)
class CliqueAttackReport:
    register: int
    method: str
    clique_size: int
    dropped: int
    failed: bool
    p1_estimate: float
    planted_overlap: float | None = None


@dataclass(frozen=True)
class CliqueAttackResult:
    money: MoneyState
    reports: tuple[CliqueAttackReport, ...]

    @property
    def failed_registers(self) -> tuple[int, ...]:
        return tuple(r.register for r in self.reports if r.failed)


def run_clique_attack(
    scheme: MoneyScheme,
    secret=None,
    rng: np.random.Generator | None = None,
) -> CliqueAttackResult:
    """Attack every register and assemble forged stabilizer money.

    Failed registers are replaced by fresh random states and flagged.  When
    the secret is supplied (evaluation only), each report carries the
    fraction of that register's planted entries inside the found clique.
    """
    if rng is None:
        rng = np.random.default_rng()
    params = scheme.params
    expected_k = round(params.epsilon * params.m)
    registers = []
    reports = []
    for i, table_ops in enumerate(scheme.table):
        try:
            result = attack_register(table_ops, expected_k)
            state = result.recovered_state
            method, size, dropped = result.method, len(result.vertices), len(result.dropped)
            failed = False
        except AttackFailure:
            state = random_stabilizer_state(params.n, rng)
            result, method, size, dropped, failed = None, "none", 0, 0, True
        p1 = (1.0 + float(np.mean([stab_expectation(state, op) for op in table_ops]))) / 2.0
        overlap = None
        if secret is not None and result is not None:
            planted = {
                j for j, op in enumerate(table_ops)
                if stab_expectation(secret.states[i], op) == 1
            }
            if planted:
                overlap = len(planted & set(result.vertices)) / len(planted)
        registers.append(StabilizerRegister(state))
        reports.append(
            CliqueAttackReport(i, method, size, dropped, failed, p1, overlap)
        )
    return CliqueAttackResult(MoneyState(tuple(registers)), tuple(reports))
