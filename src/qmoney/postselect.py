"""Collision-free money by postselection on a hashed label function.

An (n, s, d) label scheme hashes s subsets of the n bit positions (each
bit in exactly d subsets) into one bit each; L(x) is the s-bit string of
hash outputs.  A note is the uniform superposition over one label's
preimage, obtained exactly by sampling the postselection distribution
N_l / 2**n.  Verification measures the label, then applies r rounds of
M = (1/n) sum_i P_i, where rule P_i flips bit i iff that leaves the label
unchanged — an involution, so M is symmetric and minted notes are +1
eigenvectors.  No rule changes the label, so verify_money runs the r
rounds on the label's class vector alone, and takes the norm over the
full 2**n vector; apply_M, on the full vector, stays as its oracle.
component_analysis and the beta chain quantify how badly the walk
fragments or freezes, which is the scheme's soundness slack.

Both iterations, the verifier's rounds and the beta chain's exact kernel,
run on reused buffers with one gather and one axis-0 reduce per step.
Their rows are added in the order of the plain per-rule loops, so every
result is bit-for-bit what those loops give.  Neither redoes exact work:
the verifier's walk stops at the first round that leaves its bytes
unchanged, and the unbiased chain's kernel is evolved once per scheme and
step count, then translated to each start.

Cryptographic-scale parameters (s = ceil(sqrt(n)) subsets, d = 10) need
n >= 100, far beyond dense vectors; (s, d) stay free so small instances
with exact enumeration oracles keep the same structure.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, DimensionError
from .pauli import DENSE_LIMIT

__all__ = [
    "LabelScheme",
    "LabeledMoney",
    "MarkovVerifier",
    "ComponentAnalysis",
    "BetaChainDiagnostics",
    "make_label_scheme",
    "label",
    "label_table",
    "label_bits",
    "parse_label_bits",
    "money_from_label",
    "mint",
    "build_verifier",
    "apply_M",
    "matrix_M",
    "verify_money",
    "kraus_equivalence_check",
    "class_markov_matrix",
    "component_analysis",
    "default_iteration_count",
    "find_frozen_strings",
    "beta_chain_mixing",
]

_LUT_MAX_BITS = 16
# label_table packs the s bits of a label into one uint32
MAX_LABEL_BITS = 32


@dataclass(frozen=True)
class LabelScheme:
    """s keyed one-bit hashes over fixed bit subsets; label = concatenated outputs."""

    n: int
    s: int
    d: int
    seed: int
    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.subsets) != self.s:
            raise ValueError("subset count must equal s")
        counts = [0] * self.n
        for sub in self.subsets:
            if len(set(sub)) != len(sub) or any(not 0 <= b < self.n for b in sub):
                raise ValueError("subsets must hold distinct in-range bit indices")
            for b in sub:
                counts[b] += 1
        if any(c != self.d for c in counts):
            raise ValueError(f"every bit must lie in exactly d={self.d} subsets")

    def _key(self, j: int) -> bytes:
        return (self.seed & (1 << 64) - 1).to_bytes(8, "little") + j.to_bytes(4, "little")

    def _hash_raw(self, j: int, value: int) -> int:
        data = value.to_bytes((len(self.subsets[j]) + 7) // 8 or 1, "little")
        return hashlib.blake2b(data, digest_size=1, key=self._key(j)).digest()[0] & 1

    @cached_property
    def _luts(self) -> tuple[np.ndarray | None, ...]:
        out = []
        for j, sub in enumerate(self.subsets):
            if len(sub) > _LUT_MAX_BITS:
                out.append(None)
                continue
            lut = np.fromiter(
                (self._hash_raw(j, v) for v in range(1 << len(sub))),
                dtype=np.uint8,
                count=1 << len(sub),
            )
            out.append(lut)
        return tuple(out)

    def hash_bit(self, j: int, value: int) -> int:
        lut = self._luts[j]
        if lut is not None:
            return int(lut[value])
        return self._hash_raw(j, value)

    @cached_property
    def _table(self) -> np.ndarray:
        if self.n > 24:
            raise CapacityError("label_table enumerates 2**n strings; need n <= 24")
        if self.s > MAX_LABEL_BITS:
            raise CapacityError(
                f"label_table packs labels into uint32; need s <= {MAX_LABEL_BITS}"
            )
        x = np.arange(1 << self.n, dtype=np.uint32)
        out = np.zeros(1 << self.n, dtype=np.uint32)
        for j, sub in enumerate(self.subsets):
            lut = self._luts[j]
            if lut is None:
                raise CapacityError(f"subset {j} too large for a lookup table")
            value = np.zeros(1 << self.n, dtype=np.uint32)
            for t, b in enumerate(sub):
                value |= ((x >> np.uint32(b)) & np.uint32(1)) << np.uint32(t)
            out |= lut[value].astype(np.uint32) << np.uint32(j)
        out.setflags(write=False)
        return out

    @cached_property
    def _rules(self) -> np.ndarray:
        """Row i: the permutation P_i, flipping bit i where that keeps the label."""
        table = self._table
        x = np.arange(1 << self.n, dtype=np.int64)
        perms = np.empty((self.n, 1 << self.n), dtype=np.int64)
        for i in range(self.n):
            flipped = x ^ (1 << i)
            perms[i] = np.where(table[flipped] == table[x], flipped, x)
        perms.setflags(write=False)
        return perms

    @cached_property
    def _plain_kernels(self) -> dict[int, np.ndarray]:
        """Read-only plain lazy-walk kernels from string 0, keyed by step count.

        Filled by beta_chain_mixing when every Metropolis ratio is 1.0.
        """
        return {}


def make_label_scheme(n: int, s: int, d: int, seed: int) -> LabelScheme:
    """Random d-regular assignment of bits to s subsets, sizes as equal as possible.

    Each bit draws d distinct subsets weighted by remaining capacity
    (configuration model); rare dead ends are resampled.  The same seed
    always yields the same scheme.
    """
    if n < 1 or s < 1 or not 1 <= d <= s:
        raise ValueError(f"need n, s >= 1 and 1 <= d <= s, got {(n, s, d)}")
    total = n * d
    sizes = np.array([total // s + (1 if t < total % s else 0) for t in range(s)])
    if sizes.max() > n:
        raise ValueError(f"(s={s}, d={d}) infeasible: a subset would need repeats")
    rng = np.random.default_rng(seed)
    for _ in range(200):
        remaining = sizes.copy()
        members: list[list[int]] = [[] for _ in range(s)]
        for bit in rng.permutation(n):
            avail = np.flatnonzero(remaining > 0)
            if len(avail) < d:
                break
            chosen = rng.choice(
                avail, size=d, replace=False, p=remaining[avail] / remaining[avail].sum()
            )
            for t in chosen:
                members[t].append(int(bit))
                remaining[t] -= 1
        else:
            subsets = tuple(tuple(sorted(sub)) for sub in members)
            return LabelScheme(n, s, d, seed, subsets)
    raise ValueError(f"could not realize a d-regular assignment for (n={n}, s={s}, d={d})")


def label(scheme: LabelScheme, x: int) -> int:
    """The s-bit label of x; bit j is hash_j of x restricted to subset j."""
    if not 0 <= x < (1 << scheme.n):
        raise ValueError(f"x out of range for n={scheme.n} bits")
    out = 0
    for j, sub in enumerate(scheme.subsets):
        value = 0
        for t, b in enumerate(sub):
            value |= ((x >> b) & 1) << t
        out |= scheme.hash_bit(j, value) << j
    return out


def label_table(scheme: LabelScheme) -> np.ndarray:
    """Labels of all 2**n strings (cached on the scheme)."""
    return scheme._table


def label_bits(value: int, s: int) -> str:
    """Label as a bit string; character j is label bit j."""
    return "".join("1" if (value >> j) & 1 else "0" for j in range(s))


def parse_label_bits(text: str) -> int:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"not a bit string: {text!r}")
    return sum(1 << j for j, ch in enumerate(text) if ch == "1")


@dataclass(frozen=True, eq=False)
class LabeledMoney:
    label: int
    state: np.ndarray
    support_size: int

    def __post_init__(self):
        v = np.asarray(self.state, dtype=complex)
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError("money state must be normalised")
        mags = np.abs(v[np.abs(v) > 1e-12])
        if len(mags) != self.support_size or np.any(
            np.abs(mags - 1.0 / math.sqrt(self.support_size)) > 1e-9
        ):
            raise ValueError("amplitudes must be 0 or 1/sqrt(support_size)")
        v.setflags(write=False)
        object.__setattr__(self, "state", v)

    @property
    def n(self) -> int:
        return self.state.shape[0].bit_length() - 1


def money_from_label(scheme: LabelScheme, ell: int) -> LabeledMoney:
    """|psi_l>, the uniform superposition over the class {x : L(x) = ell}."""
    if scheme.n > DENSE_LIMIT:
        raise CapacityError(f"a note is a dense state; need n <= {DENSE_LIMIT}")
    table = label_table(scheme)
    support = np.flatnonzero(table == ell)
    if len(support) == 0:
        raise ValueError(f"label {ell} has empty preimage")
    state = np.zeros(1 << scheme.n, dtype=complex)
    state[support] = 1.0 / math.sqrt(len(support))
    return LabeledMoney(int(ell), state, len(support))


def mint(scheme: LabelScheme, rng: np.random.Generator) -> LabeledMoney:
    """Measure L on a uniform x: label l w.p. N_l/2**n, then money_from_label(l)."""
    x = int(rng.integers(1 << scheme.n))
    return money_from_label(scheme, label(scheme, x))


@dataclass(frozen=True, eq=False)
class MarkovVerifier:
    """r rounds of M = (1/n) sum_i P_i; P_i flips bit i iff the label survives."""

    scheme: LabelScheme
    r: int
    permutations: np.ndarray

    @property
    def n_rules(self) -> int:
        return self.permutations.shape[0]


def build_verifier(scheme: LabelScheme, r: int) -> MarkovVerifier:
    if r < 1:
        raise ValueError("need r >= 1 verification rounds")
    return MarkovVerifier(scheme, r, scheme._rules)


def apply_M(verifier: MarkovVerifier, v: np.ndarray) -> np.ndarray:
    """Mv without matrices: involutions act by index gather."""
    v = np.asarray(v)
    size = verifier.permutations.shape[1]
    if v.shape != (size,):
        raise DimensionError(f"expected a vector of length {size}, got {v.shape}")
    return v[verifier.permutations].mean(axis=0)


def matrix_M(verifier: MarkovVerifier) -> np.ndarray:
    """Dense M for oracle comparisons (n <= 10)."""
    if verifier.scheme.n > 10:
        raise CapacityError("dense M is an oracle for n <= 10")
    size = verifier.permutations.shape[1]
    m = np.zeros((size, size))
    for perm in verifier.permutations:
        np.add.at(m, (perm, np.arange(size)), 1.0 / verifier.n_rules)
    return m


def _class_rules(scheme: LabelScheme, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(members, local): the sorted class {x : L(x) = ell}, and row i of
    local holds P_i on that class as positions in members."""
    members = np.flatnonzero(label_table(scheme) == ell)
    return members, np.searchsorted(members, scheme._rules[:, members])


def _walk(verifier: MarkovVerifier, money: LabeledMoney) -> tuple[np.ndarray, int]:
    """(M^r applied to the note's label projection as a 2**n vector, rounds run).

    Every rule keeps the label, so the rounds run on the class vector
    only.  Each round adds the gathered rows in rule order, as apply_M
    does on the full vector, so the entries equal apply_M's exactly.  A
    round is apply_M's mean(axis=0) spelled out on reused buffers: a
    take, an axis-0 add.reduce and a divide by the rule count.

    That round is a fixed function of the vector's bytes, so the walk
    stops at the first round that leaves them unchanged: every later round
    would give the same bytes, and the result is the r-round walk's exactly.
    Bytes, not values, are compared, so -0.0 and 0.0 stay apart.  A minted
    note stops within a few rounds; other vectors may run all r.
    """
    if money.state.shape != (1 << verifier.scheme.n,):
        raise DimensionError("money and verifier act on different string lengths")
    members, local = _class_rules(verifier.scheme, money.label)
    # A zero slot that every rule maps to itself keeps each gather at least
    # two wide: numpy sums an (n, 1) gather pairwise, not row by row.
    local = np.hstack([local, np.full((len(local), 1), len(members))])
    w = np.append(money.state[members], 0.0)
    nxt = np.empty_like(w)
    gathered = np.empty(local.shape, dtype=w.dtype)
    rounds = 0
    while rounds < verifier.r:
        np.take(w, local, out=gathered, mode="clip")  # in range; clip skips a copy
        np.add.reduce(gathered, axis=0, out=nxt)
        np.divide(nxt, len(local), out=nxt)
        rounds += 1
        if nxt.tobytes() == w.tobytes():
            break
        w, nxt = nxt, w
    full = np.zeros(money.state.shape, dtype=w.dtype)
    full[members] = w[:-1]
    return full, rounds


def verify_money(
    verifier: MarkovVerifier, money: LabeledMoney, rng: np.random.Generator
) -> tuple[bool, float]:
    """Label projection, then acceptance probability ||M^r v||**2.

    The r rounds walk the label's class vector only, and stop early once
    a round leaves its bytes unchanged (see _walk), so a legal r, however
    large, costs no more than the rounds that change the vector.  The
    probability is computed exactly from the vector (simulation
    privilege); the returned boolean samples it, mirroring the protocol.
    """
    # The norm runs over the full 2**n vector: BLAS blocks the dot product
    # by length, so a class-length norm can differ in the last bit.
    prob = float(min(1.0, np.linalg.norm(_walk(verifier, money)[0]) ** 2))
    return bool(rng.random() < prob), prob


def kraus_equivalence_check(verifier: MarkovVerifier) -> float:
    """Max deviation between M and the two-register Kraus construction.

    Builds U = sum_i P_i (x) |i><i| on the 2**n * n space explicitly and
    contracts the rule register with the uniform vector.
    """
    n = verifier.scheme.n
    if n > 6:
        raise CapacityError("Kraus check builds a (2**n * n)-dim operator; need n <= 6")
    size = 1 << n
    n_rules = verifier.n_rules
    big = np.zeros((size * n_rules, size * n_rules))
    for i, perm in enumerate(verifier.permutations):
        p_mat = np.zeros((size, size))
        p_mat[perm, np.arange(size)] = 1.0
        e_ii = np.zeros((n_rules, n_rules))
        e_ii[i, i] = 1.0
        big += np.kron(p_mat, e_ii)
    bra = np.kron(np.eye(size), np.full((1, n_rules), 1.0 / math.sqrt(n_rules)))
    kraus = bra @ big @ bra.T
    return float(np.abs(kraus - matrix_M(verifier)).max())


def _class_matrix(ell: int, members: np.ndarray, local: np.ndarray) -> np.ndarray:
    """M on the class that _class_rules gives as (members, local)."""
    if len(members) == 0:
        raise ValueError(f"label {ell} has empty preimage")
    k = len(members)
    mat = np.zeros((k, k))
    cols = np.arange(k)
    for target in local:
        mat[target, cols] += 1.0 / len(local)
    return mat


def class_markov_matrix(scheme: LabelScheme, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """(members, M restricted to the class {x : L(x) = ell}); rules never leave it."""
    members, local = _class_rules(scheme, ell)
    return members, _class_matrix(ell, members, local)


def _component_roots(local: np.ndarray) -> np.ndarray:
    """Per class position, the smallest position in its rule-graph component.

    Min-label propagation with pointer jumping.  Each position starts as
    its own label.  A round lowers every label to the least label among
    its rule images (the rules are involutions, so this crosses every
    edge both ways), then follows labels (root = root[root]) until they
    stop moving.  A label only falls and always names a position of the
    same component, so the rounds stop, and at their fixed point each
    component carries its smallest position.
    """
    root = np.arange(local.shape[1])
    while True:
        lowered = np.minimum(root, root[local].min(axis=0))
        while not np.array_equal(jumped := lowered[lowered], lowered):
            lowered = jumped
        if np.array_equal(lowered, root):
            return root
        root = lowered


@dataclass(frozen=True, eq=False)
class ComponentAnalysis:
    members: np.ndarray
    components: tuple[tuple[int, ...], ...]
    eigenvalues: np.ndarray
    plus_dim: int
    second_eigenvalue: float | None


def component_analysis(scheme: LabelScheme, ell: int) -> ComponentAnalysis:
    """Connected components of the rule graph on a label class + spectrum of M there.

    The +1 eigenspace of the class-restricted M is spanned by the uniform
    vectors of the components, so its dimension equals the component count.
    """
    members, local = _class_rules(scheme, ell)
    mat = _class_matrix(ell, members, local)
    groups: dict[int, list[int]] = {}
    for x, c in zip(members.tolist(), _component_roots(local).tolist()):
        groups.setdefault(c, []).append(x)
    components = tuple(tuple(g) for g in sorted(groups.values()))
    eigenvalues = np.linalg.eigvalsh(mat)
    plus_dim = int(np.sum(eigenvalues > 1.0 - 1e-9))
    second = float(eigenvalues[-2]) if len(eigenvalues) >= 2 else None
    return ComponentAnalysis(members, components, eigenvalues, plus_dim, second)


def default_iteration_count(analysis: ComponentAnalysis) -> int:
    """Smallest r with (subdominant |eigenvalue|)**r <= 1e-6, or 64 if gapless."""
    rest = analysis.eigenvalues[analysis.eigenvalues <= 1.0 - 1e-9]
    if len(rest) == 0:
        return 1
    lam = float(np.abs(rest).max())
    if lam >= 1.0 - 1e-9:
        return 64  # a -1 (bipartite component) never decays under powers
    if lam <= 0.0:
        return 1
    return max(1, math.ceil(math.log(1e-6) / math.log(lam)))


def find_frozen_strings(scheme: LabelScheme) -> np.ndarray:
    """Strings none of whose single-bit flips preserves the label."""
    table = label_table(scheme)
    x = np.arange(1 << scheme.n, dtype=np.int64)
    frozen = np.ones(1 << scheme.n, dtype=bool)
    for i in range(scheme.n):
        frozen &= table[x ^ (1 << i)] != table[x]
    return np.flatnonzero(frozen)


@dataclass(frozen=True)
class BetaChainDiagnostics:
    acceptance_rate: float
    autocorr_time: float
    tv_distance: float | None
    frozen: bool
    mean_energy: float


def _autocorr_time(series: np.ndarray) -> float:
    x = series - series.mean()
    var = float(x @ x) / len(x)
    if var == 0.0:
        return math.inf
    size = 1 << (2 * len(x) - 1).bit_length()
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conj(f))[: len(x)].real / len(x)
    rho = acov / acov[0]
    tau = 1.0
    for w in range(1, len(rho)):
        tau += 2.0 * float(rho[w])
        if w >= 5.0 * tau:  # Sokal's adaptive window
            return max(tau, 1.0)
    return math.inf


def _evolve_kernel(ratios: np.ndarray, flips: np.ndarray, x0: int, steps: int) -> np.ndarray:
    """The exact chain's distribution after steps kernel steps from x0.

    One step: q = p - out_0 + out_0[f_0] - out_1 + out_1[f_1] ..., with
    out_i = p * ratio_i * (0.5/n).  Rows 1, 3, ... of the stack hold
    -out_i and rows 2, 4, ... the gathers out_i[f_i]; an axis-0 reduce adds
    them in that order, and a - b is a + (-b) exactly, so every entry sees
    the float operations of the per-flip loop.  The stack is 2**n >= 2
    wide, so numpy adds its rows in order, not pairwise.
    """
    n, size = flips.shape
    stack = np.empty((2 * n + 1, size))
    out = np.empty((n, size))
    gather = (np.arange(n) * size)[:, None] + flips  # out_i[f_i] in out.flat
    p = np.zeros(size)
    p[x0] = 1.0
    for _ in range(steps):
        np.multiply(p, ratios, out=out)
        np.multiply(out, 0.5 / n, out=out)
        stack[0] = p
        np.negative(out, out=stack[1::2])
        np.take(out, gather, out=stack[2::2])
        np.add.reduce(stack, axis=0, out=p)
    return p


def beta_chain_mixing(
    scheme: LabelScheme,
    ell: int,
    beta: float,
    steps: int,
    rng: np.random.Generator,
    start: int | None = None,
) -> BetaChainDiagnostics:
    """Half-lazy single-bit Metropolis chain for pi(x) ~ exp(-beta * c(x)).

    c(x) = Hamming distance between L(x) and the target label.  The lazy
    half-step makes the walk aperiodic (at beta = 0 every proposal is
    accepted and the plain walk would oscillate between parities).  For
    n <= 12 the exact kernel is also evolved from the start state and the
    total-variation distance to exp(-beta*c)/Z after the budget is
    reported; each kernel step moves the probability of all n flips in one
    pass and keeps the per-flip loop's summation order.  When every
    Metropolis ratio is 1.0 (beta = 0, or a beta too small to move one),
    the chain is the plain walk, and its kernel is evolved once per scheme
    and step count and read off by XOR translation.  The autocorrelation
    time is estimated from the energy trace.  beta must be finite, ell an
    s-bit label and start, if given, an n-bit string.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if scheme.n > 24:
        raise CapacityError("beta chain supports n <= 24")
    if steps < 1:
        raise ValueError("need steps >= 1")
    n = scheme.n
    size = 1 << n
    if not 0 <= ell < (1 << scheme.s):
        raise ValueError(f"target label {ell} is not an s={scheme.s} bit label")
    if start is not None and not 0 <= start < size:
        raise ValueError(f"start string {start} is not an n={n} bit string")
    if scheme.n <= 16:
        table = label_table(scheme)
        energy = lambda x: int(table[x] ^ ell).bit_count()
    else:
        energy = lambda x: (label(scheme, x) ^ ell).bit_count()
    x = int(rng.integers(size)) if start is None else int(start)
    x0 = x
    e = energy(x)
    energies = np.empty(steps + 1, dtype=np.int64)
    energies[0] = e
    accepted = 0
    proposals = 0
    for t in range(steps):
        if rng.random() < 0.5:
            energies[t + 1] = e
            continue
        i = int(rng.integers(n))
        y = x ^ (1 << i)
        ey = energy(y)
        proposals += 1
        if ey <= e or rng.random() < math.exp(-beta * (ey - e)):
            x, e = y, ey
            accepted += 1
        energies[t + 1] = e
    acceptance_rate = accepted / proposals if proposals else 0.0
    tau = _autocorr_time(energies.astype(float))
    tv = None
    if n <= 12:
        table = label_table(scheme)
        c_all = np.bitwise_count(table ^ np.uint32(ell)).astype(np.int64)
        idx = np.arange(size)
        flips = idx ^ (1 << np.arange(n))[:, None]
        ratios = np.minimum(1.0, np.exp(-beta * (c_all[flips] - c_all)))
        if np.all(ratios == 1.0):
            # Every flip is accepted: the plain lazy walk on Z_2^n.  Its kernel
            # from x0 is its kernel from 0 with every string XORed by x0, and
            # each entry sees the same float operations on either side.
            base = scheme._plain_kernels.get(steps)
            if base is None:
                base = _evolve_kernel(ratios, flips, 0, steps)
                base.setflags(write=False)
                scheme._plain_kernels[steps] = base
            p = base[idx ^ x0]
        else:
            p = _evolve_kernel(ratios, flips, x0, steps)
        pi = np.exp(-beta * c_all)
        pi /= pi.sum()
        tv = float(0.5 * np.abs(p - pi).sum())
    frozen = math.isinf(tau) or tau > steps
    return BetaChainDiagnostics(
        acceptance_rate, tau, tv, frozen, float(energies.mean())
    )
