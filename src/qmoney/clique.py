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

All finders read the one MeasurementGraph that build_graph returns.
max_eigenvalue_check builds no graph: it writes its +-1 sign matrix straight
from the commutation kernel's parity blocks, so the float64 matrix is its
one m x m array.  The second eigenvector and the sign matrix's top
eigenvalue both come from _top_eigenpairs: Lanczos (ARPACK) on a matvec
that reads one triangle of the matrix.  It stops once each Ritz residual
is at most RESIDUAL_TOL times its Ritz value, which implies the contract
that an explicit residual check then enforces: each residual at most
RESIDUAL_TOL * ||B||_F.  A recovered clique's operators
are completed to a full stabilizer state (dropping sign-contradicting
strays greedily), which then passes the money verifier whenever the clique
covers the planted group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsymv

from .errors import AttackFailure
from .money import MoneyScheme, MoneyState, SecretKey
from .pauli import PauliBlock, PauliOp, _anticommuting_rows, commutation_matrix
from .stabilizer import (
    StabilizerState,
    _share_query_table,
    complete_to_stabilizer_state,
    random_stabilizer_state,
    stab_expectation,
)

__all__ = [
    "MeasurementGraph",
    "CliqueResult",
    "CliqueAttackReport",
    "CliqueAttackResult",
    "build_graph",
    "degree_sort_clique",
    "second_eigenvector",
    "spectral_clique",
    "bootstrap_clique",
    "max_eigenvalue_check",
    "attack_register",
    "run_clique_attack",
]

# Most seed sets bootstrap_clique tries before giving up.
MAX_SEED_SUBSETS = 2000

# Eigenpair residual contract of _top_eigenpairs, relative to ||B||_F, and
# ARPACK's stopping tolerance.
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class MeasurementGraph:
    """Commutation graph of one register; vertices are table indices."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        # values are checked before any cast: astype(uint8) turns 0.5, 256 and NaN into 0
        if a.dtype != np.uint8 and np.all((a == 0) | (a == 1)):
            a = (a == 1).view(np.uint8)
        if (
            a.dtype != np.uint8
            or (a.size and a.max() > 1)
            or not scipy.linalg.issymmetric(a)
            or a.diagonal().any()
        ):
            raise ValueError("adjacency must be symmetric 0/1 with zero diagonal")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]

    def is_clique(self, vertices: Sequence[int]) -> bool:
        verts = list(vertices)
        sub = self.adjacency[np.ix_(verts, verts)]
        return bool(np.all(sub + np.eye(len(verts), dtype=np.uint8)))


@dataclass(frozen=True)
class CliqueResult:
    vertices: tuple[int, ...]
    method: str
    recovered_state: StabilizerState | None = None
    dropped: tuple[int, ...] = ()


def build_graph(ops: Sequence[PauliOp] | PauliBlock) -> MeasurementGraph:
    adjacency = commutation_matrix(ops)
    np.fill_diagonal(adjacency, 0)
    return MeasurementGraph(adjacency)


def _degree_order(adjacency: np.ndarray) -> list[int]:
    """Vertices by degree, descending; ties go to the lowest index."""
    degrees = adjacency.sum(axis=1, dtype=np.int64)
    return np.argsort(-degrees, kind="stable").tolist()


def _greedy_from_order(graph: MeasurementGraph, order: Sequence[int]) -> list[int]:
    # candidates[v]: v is adjacent to every vertex selected so far; the zero
    # diagonal drops each vertex once it is selected.  The adjacency is
    # validated 0/1 uint8, so its bool view is exact and copies nothing.
    adjacency = graph.adjacency.view(bool)
    candidates = np.ones(graph.m, dtype=bool)
    selected: list[int] = []
    for v in order:
        if candidates[v]:
            selected.append(v)
            candidates &= adjacency[v]
    return selected


def degree_sort_clique(graph: MeasurementGraph) -> CliqueResult:
    """Greedy clique from the degree-sorted vertex list (ties: lowest index)."""
    selected = _greedy_from_order(graph, _degree_order(graph.adjacency))
    return CliqueResult(tuple(sorted(selected)), "degree_sort")


def _top_eigenpairs(b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenpairs of a symmetric float64 matrix, ascending.

    Lanczos (ARPACK eigsh) from the all-ones start vector; its matvec is
    BLAS dsymv, which reads one triangle of b.  ARPACK stops when every
    Ritz pair (theta, y) has ||b y - theta y|| <= tol * |theta| (Lehoucq,
    Sorensen and Yang, ARPACK Users' Guide), and |theta| <= ||b||_F, so
    tol = RESIDUAL_TOL already meets the contract checked below: each
    residual at most RESIDUAL_TOL * ||b||_F.  ARPACK needs m > k and a
    start vector outside b's null space (it starts from b @ ones), so other
    matrices, such as an edgeless graph, take a dense solve.
    """
    b = np.ascontiguousarray(b, dtype=float)
    m = b.shape[0]
    bt = b.T  # F-ordered view of the same (symmetric) matrix: no copy

    def matvec(x: np.ndarray) -> np.ndarray:
        return dsymv(1.0, bt, x)

    ones = np.ones(m)
    if m <= k or not matvec(ones).any():
        w, v = scipy.linalg.eigh(b, subset_by_index=(m - k, m - 1))
    else:
        # Imported here so that `import qmoney.clique` does not load scipy.sparse.
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = LinearOperator((m, m), matvec=matvec, dtype=float)
        # rng seeds the vector ARPACK draws on reaching an invariant
        # subspace, so equal inputs give equal bits.
        w, v = eigsh(op, k, which="LA", tol=RESIDUAL_TOL, v0=ones, rng=0)
    if len(w) != k:
        raise ArithmeticError(f"eigensolver converged {len(w)} of {k} eigenpairs")
    # The residuals reuse dsymv, and ||b||_F takes no BLAS call: on two
    # OpenBLAS threads, a gemv or dot over b here made the next solve about
    # 2.5x slower (m=1000, 2 CPUs).
    resid = max(float(np.linalg.norm(matvec(v[:, i]) - w[i] * v[:, i])) for i in range(k))
    if resid > RESIDUAL_TOL * math.sqrt(np.einsum("ij,ij->", b, b)):
        raise ArithmeticError(f"eigensolver residual {resid:.3e} out of contract")
    return w, v


def second_eigenvector(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Eigenpair of the second-largest eigenvalue of a symmetric matrix.

    Lanczos for the top two eigenpairs (see _top_eigenpairs); residual
    checked against RESIDUAL_TOL * ||A||_F.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not scipy.linalg.issymmetric(a):  # exact; NaN entries fail it
        raise ValueError("matrix must be symmetric")
    if a.shape[0] < 2:
        raise ValueError("need at least a 2x2 matrix")
    w, v = _top_eigenpairs(a, 2)
    vec = v[:, 0]
    return float(w[0]), vec / np.linalg.norm(vec)


def _filter_candidate(graph: MeasurementGraph, key: np.ndarray, k: int) -> list[int]:
    # W = k largest keys, then every vertex with >= 3k/4 neighbors in W.
    # Vertices with equal neighborhoods tie only in exact arithmetic: the
    # eigensolver's rounding decides which of them enter W, and the stable
    # sort breaks only ties that survive it.  The clique golden files pin
    # the outcome.
    order = np.argsort(-key, kind="stable")
    w_set = order[:k]
    counts = graph.adjacency[w_set].sum(axis=0, dtype=np.int64)  # rows: the adjacency is symmetric
    candidate = np.flatnonzero(counts >= 0.75 * k)
    # Stray vertices slip in occasionally; keep the greedy commuting core,
    # which on a clique is the whole candidate set.
    order = _degree_order(graph.adjacency[np.ix_(candidate, candidate)])
    return _greedy_from_order(graph, candidate[order].tolist())


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
    ~2**|S|-fold and the spectral finder applies.  At c = 100 the one seed
    set is empty and the spectral finder runs on the whole graph.  Early
    exit at a verified clique of size >= c*sqrt(m).
    """
    if not 0 < c <= 100:
        raise ValueError(f"need 0 < c <= 100, got {c}")
    m = graph.m
    target = max(2, math.ceil(c * math.sqrt(m)))
    t = math.ceil(math.log2(100.0 / c))
    best: tuple[int, ...] = ()
    for seed in islice(combinations(_degree_order(graph.adjacency), t), MAX_SEED_SUBSETS):
        if not graph.is_clique(seed):
            continue
        common_mask = np.all(graph.adjacency[list(seed)] == 1, axis=0)
        common = np.flatnonzero(common_mask)
        if len(common) < 2:
            continue
        sub = MeasurementGraph(graph.adjacency[np.ix_(common, common)])
        inner = spectral_clique(sub, min(max(2, target - t), sub.m))
        cand = tuple(sorted(set(seed) | {int(common[v]) for v in inner.vertices}))
        if len(cand) > len(best) and graph.is_clique(cand):
            best = cand
            if len(best) >= target:
                break
    return CliqueResult(best, "bootstrap")


def _sign_matrix(ops: Sequence[PauliOp] | PauliBlock) -> np.ndarray:
    """The +-1 commutation sign matrix as float64: +1 where a pair commutes,
    -1 where it anticommutes, 0 on the diagonal.  Each block of the
    commutation kernel's parities p is written as 1 - 2p, so no other m x m
    array is built."""
    block = PauliBlock.of(ops)
    b = np.empty((len(block), len(block)))
    for lo, hi, parity in _anticommuting_rows(block):
        rows = b[lo:hi]
        np.multiply(parity, -2.0, out=rows)
        rows += 1
    np.fill_diagonal(b, 0)
    return b


def max_eigenvalue_check(ops: Sequence[PauliOp] | PauliBlock) -> float:
    """Largest eigenvalue of the +-1 commutation sign matrix of m operators.

    ops is a list of PauliOps, packed once, or a PauliBlock.  Lanczos (see
    _top_eigenpairs), residual checked against RESIDUAL_TOL * ||B||_F.
    """
    w, _ = _top_eigenpairs(_sign_matrix(ops), 1)
    return float(w[0])


def _clique_floor(m: int, expected_k: int) -> int:
    root = math.ceil(math.sqrt(m))
    if expected_k >= 2:
        return max(2, min(root, expected_k // 2))
    return max(2, root)


def attack_register(
    ops: Sequence[PauliOp] | PauliBlock,
    expected_k: int,
    *,
    _entries: Sequence[PauliOp] | None = None,
) -> CliqueResult:
    """Full per-register pipeline: graph, clique, completion to a state.

    ops is a register's block, or a list of PauliOps packed once.  The
    completion takes the clique's entries from the list, or from
    ``_entries``, the block's PauliOps if the caller has built them;
    otherwise only the clique's entries are built.  The finder
    is chosen by regime from the expected planted size (degree sort above
    4*sqrt(m)*log10(m), spectral down to 10*sqrt(m), bootstrap below).  A
    clique smaller than the failure floor raises AttackFailure.
    """
    block = PauliBlock.of(ops)
    m = len(block)
    graph = build_graph(block)
    results: list[CliqueResult] = []
    if expected_k >= 4.0 * math.sqrt(m) * math.log10(max(m, 10)):
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
    entries = _entries if ops is block else ops
    if entries is None:
        clique = block[list(best.vertices)].ops()
    else:
        clique = [entries[v] for v in best.vertices]
    state, conflicts = complete_to_stabilizer_state(clique)
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
    scheme: MoneyScheme, secret: SecretKey | None, rng: np.random.Generator
) -> CliqueAttackResult:
    """Attack every register and assemble forged stabilizer money.

    Failed registers are replaced by fresh random states drawn from rng and
    flagged.  When the secret is supplied (evaluation only), each report
    carries the fraction of that register's planted entries inside the
    found clique; a secret state equal to the recovered one reads the
    recovered state's query table instead of building its own.
    """
    params = scheme.params
    expected_k = round(params.epsilon * params.m)
    registers = []
    reports = []
    for i in range(params.l):
        register = scheme.register(i)
        table_ops = register.ops()
        try:
            result = attack_register(register, expected_k, _entries=table_ops)
            state = result.recovered_state
            method, size, dropped = result.method, len(result.vertices), len(result.dropped)
            failed = False
        except AttackFailure:
            state = random_stabilizer_state(params.n, rng)
            result, method, size, dropped, failed = None, "none", 0, 0, True
        p1 = (1.0 + float(np.mean([stab_expectation(state, op) for op in table_ops]))) / 2.0
        overlap = None
        if secret is not None and result is not None:
            _share_query_table(state, secret.states[i])
            planted = {
                j for j, op in enumerate(table_ops)
                if stab_expectation(secret.states[i], op) == 1
            }
            if planted:
                overlap = len(planted & set(result.vertices)) / len(planted)
        registers.append(state)
        reports.append(
            CliqueAttackReport(i, method, size, dropped, failed, p1, overlap)
        )
    return CliqueAttackResult(MoneyState(tuple(registers)), tuple(reports))
