"""Measurement graphs, clique finders, and the high-epsilon attack."""

import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from qmoney import (
    AttackFailure,
    MeasurementGraph,
    PauliOp,
    SchemeParams,
    SoundnessWarning,
    bootstrap_clique,
    build_graph,
    commutation_matrix,
    degree_sort_clique,
    attack_register,
    gen_scheme,
    max_eigenvalue_check,
    random_pauli,
    random_stabilizer_state,
    run_clique_attack,
    second_eigenvector,
    spectral_clique,
    stab_expectation,
    verify,
)
import qmoney.clique as clique_module
import qmoney.pauli as pauli_module
import qmoney.stabilizer as stabilizer_module
from qmoney.clique import _degree_order, _greedy_from_order, _sign_matrix, _top_eigenpairs
from qmoney.harness import trial_rng
from qmoney.pauli import PauliBlock, random_pauli_block
from oracles import commutes, exact_max_clique, group_equal, random_stabilizer_element


def gnp(rng, m, p=0.5):
    a = rng.random((m, m)) < p
    a = np.triu(a, 1)
    a = (a | a.T).astype(np.uint8)
    return a


def plant(a, vertices):
    out = a.copy()
    ix = np.ix_(vertices, vertices)
    out[ix] = 1
    out[np.diag_indices(len(out))] = 0
    return out


def test_build_graph_matches_pairwise_commutation():
    rng = np.random.default_rng(30)
    ops = [random_pauli(6, rng) for _ in range(25)]
    g = build_graph(ops)
    assert g.m == 25
    for i in range(25):
        assert g.adjacency[i, i] == 0
        for j in range(25):
            if i != j:
                assert g.adjacency[i, j] == (1 if commutes(ops[i], ops[j]) else 0)


def test_random_pauli_graph_density_near_half():
    rng = np.random.default_rng(31)
    ops = [random_pauli(20, rng, allow_identity=False) for _ in range(200)]
    g = build_graph(ops)
    density = g.adjacency.sum() / (200 * 199)
    assert abs(density - 0.5) < 0.02, density


def test_graph_validation():
    with pytest.raises(ValueError):
        MeasurementGraph(np.array([[0, 1], [0, 0]], dtype=np.uint8))  # not symmetric
    with pytest.raises(ValueError):
        MeasurementGraph(np.array([[1, 1], [1, 0]], dtype=np.uint8))  # diagonal
    with pytest.raises(ValueError):
        MeasurementGraph(np.array([[0, 2], [2, 0]], dtype=np.uint8))  # not 0/1


@pytest.mark.filterwarnings("error")  # the parent's cast warned on NaN and let it through as 0
@pytest.mark.parametrize("bad", [0.5, 1.9, 256, -1, np.nan, np.inf, 1j])
def test_graph_refuses_values_a_uint8_cast_would_hide(bad):
    a = np.array([[0, 1, bad], [1, 0, 0], [bad, 0, 0]])
    with pytest.raises(ValueError, match="0/1"):
        MeasurementGraph(a)


def test_graph_casts_exact_zero_one_values_of_any_dtype():
    want = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.uint8)
    for dtype in (bool, np.int64, float, complex):
        got = MeasurementGraph(want.astype(dtype)).adjacency
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert not got.flags.writeable
    same = MeasurementGraph(want).adjacency
    assert np.shares_memory(same, want)  # uint8 input is not copied
    assert MeasurementGraph(np.zeros((0, 0))).m == 0


def test_degree_sort_on_complete_and_empty_graphs():
    m = 12
    g = MeasurementGraph(plant(np.zeros((m, m), dtype=np.uint8), list(range(m))))
    assert sorted(degree_sort_clique(g).vertices) == list(range(m))
    g0 = MeasurementGraph(np.zeros((m, m), dtype=np.uint8))
    assert len(degree_sort_clique(g0).vertices) == 1  # a single vertex is a clique


def test_degree_sort_finds_large_planted_clique():
    # planted size 4 sqrt(m) log10(m) -- the regime where degree sort works
    rng = np.random.default_rng(32)
    m = 256
    k = int(4 * np.sqrt(m) * np.log10(m))
    for _ in range(5):
        planted = rng.choice(m, size=k, replace=False)
        g = MeasurementGraph(plant(gnp(rng, m), planted))
        found = degree_sort_clique(g)
        assert set(planted) <= set(found.vertices)


def reference_greedy_from_order(adjacency, order):
    """Reference: keep v when it is adjacent to every vertex kept so far."""
    selected = []
    for v in order:
        if all(adjacency[v, u] for u in selected):
            selected.append(v)
    return selected


def test_greedy_from_order_matches_pairwise_reference():
    rng = np.random.default_rng(36)
    for _ in range(200):
        m = int(rng.integers(1, 60))
        g = MeasurementGraph(gnp(rng, m, p=rng.uniform(0.1, 0.95)))
        size = int(rng.integers(0, 2 * m))
        # orders as the finders pass them, plus subsets and repeated vertices
        for order in (
            rng.permutation(m).tolist(),
            rng.choice(m, size=min(size, m), replace=False).tolist(),
            rng.choice(m, size=size).tolist(),
        ):
            assert _greedy_from_order(g, order) == reference_greedy_from_order(g.adjacency, order)


def test_degree_order_is_descending_with_ties_to_the_lowest_index():
    rng = np.random.default_rng(51)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        a = gnp(rng, m, p=rng.uniform(0.05, 0.95))  # small graphs: many tied degrees
        degrees = a.sum(axis=1, dtype=np.int64)
        assert _degree_order(a) == sorted(range(m), key=lambda v: (-degrees[v], v))


def test_second_eigenvector_on_known_matrices():
    val, vec = second_eigenvector(np.diag([3.0, 2.0, 1.0]))
    assert abs(val - 2.0) < 1e-12
    assert abs(abs(vec[1]) - 1.0) < 1e-12
    # two disjoint complete graphs K5: eigenvalues {4, 4, -1...}
    a = np.zeros((10, 10))
    a[:5, :5] = 1
    a[5:, 5:] = 1
    np.fill_diagonal(a, 0)
    val, vec = second_eigenvector(a)
    assert abs(val - 4.0) < 1e-12
    with pytest.raises(ValueError):
        second_eigenvector(np.array([[0.0, 1.0], [0.0, 0.0]]))
    far_corner = np.zeros((2000, 2000))
    far_corner[1999, 1998] = 1.0
    with pytest.raises(ValueError):
        second_eigenvector(far_corner)
    nan_pair = np.zeros((3, 3))
    nan_pair[0, 1] = nan_pair[1, 0] = np.nan
    with pytest.raises(ValueError):
        second_eigenvector(nan_pair)


def test_second_eigenvector_residual_mid_size():
    rng = np.random.default_rng(33)
    a = gnp(rng, 500).astype(float)
    val, vec = second_eigenvector(a)
    resid = np.linalg.norm(a @ vec - val * vec)
    assert resid <= 1e-8 * np.linalg.norm(a)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_spectral_recovers_planted_clique():
    rng = np.random.default_rng(34)
    m = 400
    k = 10 * int(np.ceil(np.sqrt(m)))  # 200
    hits = 0
    for _ in range(5):
        planted = sorted(rng.choice(m, size=k, replace=False).tolist())
        g = MeasurementGraph(plant(gnp(rng, m), planted))
        found = spectral_clique(g, k)
        hits += sorted(found.vertices) == planted
    assert hits >= 4


def test_spectral_never_beats_exact_maximum():
    rng = np.random.default_rng(35)
    for _ in range(10):
        m = 24
        g = MeasurementGraph(gnp(rng, m))
        best = exact_max_clique(g)
        for k in (3, 5, 8):
            found = spectral_clique(g, k)
            assert g.is_clique(found.vertices)
            assert len(found.vertices) <= len(best)


def test_exact_max_clique_known_graphs():
    # 5-cycle: max clique 2
    a = np.zeros((5, 5), dtype=np.uint8)
    for i in range(5):
        a[i, (i + 1) % 5] = a[(i + 1) % 5, i] = 1
    assert len(exact_max_clique(MeasurementGraph(a))) == 2
    # complete K6
    full = plant(np.zeros((6, 6), dtype=np.uint8), list(range(6)))
    assert len(exact_max_clique(MeasurementGraph(full))) == 6
    with pytest.raises(ValueError):
        exact_max_clique(MeasurementGraph(np.zeros((49, 49), dtype=np.uint8)))


def test_bootstrap_with_c_100_equals_spectral_path():
    rng = np.random.default_rng(36)
    m = 144
    k = 5 * 12
    planted = sorted(rng.choice(m, size=k, replace=False).tolist())
    g = MeasurementGraph(plant(gnp(rng, m), planted))
    res = bootstrap_clique(g, 100.0)  # t = 0: one empty seed set, spectral on all of g
    assert res.method == "bootstrap"
    assert res.vertices == spectral_clique(g, m).vertices  # target 100*sqrt(m) caps at m
    assert g.is_clique(res.vertices)
    with pytest.raises(ValueError):
        bootstrap_clique(g, 0.0)
    with pytest.raises(ValueError):
        bootstrap_clique(g, 101.0)


def test_bootstrap_small_c_recovers_medium_clique():
    # k = 5 sqrt(m), below the plain-spectral threshold
    rng = np.random.default_rng(37)
    m = 400
    k = 100
    ok = 0
    for _ in range(10):
        planted = rng.choice(m, size=k, replace=False)
        g = MeasurementGraph(plant(gnp(rng, m), planted))
        res = bootstrap_clique(g, 5.0)
        assert g.is_clique(res.vertices)
        if len(res.vertices) >= 70:
            ok += 1
    assert ok >= 7, ok


def sign_matrix(ops):
    """Reference +-1 sign matrix straight from the operators: +1 for commuting
    pairs, -1 for anticommuting ones, 0 on the diagonal (int8).  The
    symplectic form is an integer product of per-qubit bit matrices, with no
    packed words."""
    n = ops[0].n
    x = np.array([[(op.x >> j) & 1 for j in range(n)] for op in ops], dtype=np.int64)
    z = np.array([[(op.z >> j) & 1 for j in range(n)] for op in ops], dtype=np.int64)
    b = (1 - 2 * ((x @ z.T + z @ x.T) % 2)).astype(np.int8)
    np.fill_diagonal(b, 0)
    return b


@pytest.mark.parametrize("block_words", [None, 1000, 1])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 128])
def test_commutation_kernel_at_word_and_block_edges(n, block_words, monkeypatch):
    # n crosses the 64-bit word boundary, and m the row blocks: by default
    # m=300 takes two blocks (218 and 82 rows) and m <= 129 one; 1000 words
    # take 7 rows at a time (3 at m=300), and one word one row.
    if block_words is not None:
        monkeypatch.setattr(pauli_module, "_BLOCK_WORDS", block_words)
    rng = np.random.default_rng(55 + n)
    for m in (1, 127, 128, 129, 300):
        ops = [random_pauli(n, rng) for _ in range(m)]
        want = sign_matrix(ops)
        got = commutation_matrix(ops)
        assert got.dtype == np.uint8
        commute = (want + 1) // 2 + np.eye(m, dtype=np.int8)  # ops commute with themselves
        assert got.tobytes() == commute.astype(np.uint8).tobytes()
        assert _sign_matrix(ops).tobytes() == want.astype(float).tobytes()


@pytest.mark.parametrize("n", [1, 64, 65])
@pytest.mark.parametrize("m", [1, 2, 33, 500])
def test_sign_matrix_writer_is_twice_the_commutation_matrix_minus_one(m, n):
    # bit for bit, signbit included: +1.0, -1.0 and +0.0 on the diagonal,
    # from a list of operators and from a drawn block alike
    rng = np.random.default_rng(60 + m + n)
    block = random_pauli_block(n, m, rng)
    ops = [random_pauli(n, rng, allow_identity=False) for _ in range(m)]
    for source in (block, ops):
        want = 2.0 * commutation_matrix(source) - 1
        np.fill_diagonal(want, 0)
        got = _sign_matrix(source)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(np.diagonal(got)).any()


def test_signed_matrix_moments():
    rng = np.random.default_rng(38)
    m = 80
    ops = [random_pauli(10, rng, allow_identity=False) for _ in range(m)]
    b = sign_matrix(ops)
    assert np.trace(b) == 0.0
    assert np.trace(b @ b) == m * (m - 1)  # every off-diagonal entry is +-1
    # the graph's adjacency is the same relation: b = 2A - 1 off the diagonal
    a = build_graph(ops).adjacency.astype(np.int8)
    assert np.array_equal(b, 2 * a - 1 + np.eye(m, dtype=np.int8))


def test_sign_matrix_moments_match_rademacher():
    # commutation signs of random Paulis behave like independent signs at
    # the level of the first few even trace moments
    rng = np.random.default_rng(39)
    m = 60
    trials = 30
    pauli_moments = np.zeros(3)
    rademacher_moments = np.zeros(3)
    for _ in range(trials):
        ops = [random_pauli(12, rng, allow_identity=False) for _ in range(m)]
        b = sign_matrix(ops)
        r = np.triu(np.where(rng.random((m, m)) < 0.5, 1.0, -1.0), 1)
        r = r + r.T
        for t, power in enumerate((2, 3, 4)):
            pauli_moments[t] += np.trace(np.linalg.matrix_power(b, power)) / trials
            rademacher_moments[t] += np.trace(np.linalg.matrix_power(r, power)) / trials
    # tr B^2 identical; higher moments agree within a few relative sigma
    assert pauli_moments[0] == rademacher_moments[0]
    for t in (1, 2):
        scale = abs(rademacher_moments[t]) + m ** ((t + 2) / 2)
        assert abs(pauli_moments[t] - rademacher_moments[t]) < 4 * scale


def close_to_eigh(got, want, scale):
    """Lanczos against the dense oracle: within 1e-13 of the spectral scale."""
    return abs(got - want) <= 1e-13 * max(1.0, abs(scale))


def test_max_eigenvalue_check_equals_eigh_of_reference_sign_matrix():
    # The float matrix equals the int8 reference byte for byte; Lanczos then
    # agrees with the dense solve of it to rounding.
    rng = np.random.default_rng(49)
    for _ in range(12):
        m = int(rng.integers(1, 150))
        n = int(rng.integers(1, 20))
        ops = [random_pauli(n, rng) for _ in range(m)]
        b = sign_matrix(ops).astype(float)
        assert _sign_matrix(ops).tobytes() == b.tobytes()
        want = scipy.linalg.eigh(b, subset_by_index=(m - 1, m - 1), eigvals_only=True)[0]
        assert close_to_eigh(max_eigenvalue_check(ops), want, want)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        _, scheme = gen_scheme(SchemeParams(8, 120, 2, 0.5), np.random.default_rng(50))
    for ops in scheme.table:
        b = sign_matrix(ops).astype(float)
        assert _sign_matrix(ops).tobytes() == b.tobytes()
        want = scipy.linalg.eigh(b, subset_by_index=(119, 119), eigvals_only=True)[0]
        assert close_to_eigh(max_eigenvalue_check(ops), want, want)


@pytest.mark.parametrize(
    "seed, m",
    [
        (1, 2000),  # trial 0 of the spectral benchmark at seeds 1 and 31
        (31, 2000),
        (1008, 1000),  # criterion 08's shape
    ],
)
def test_max_eigenvalue_check_at_bench_shapes_matches_dense_eigh(seed, m):
    # ARPACK stops at its residual tolerance, not at machine precision; at
    # the largest shapes the eigenvalue still agrees with the dense solve.
    rng = trial_rng(seed, 0)[0] if m == 2000 else np.random.default_rng(seed)
    ops = [random_pauli(64, rng, allow_identity=False) for _ in range(m)]
    b = sign_matrix(ops).astype(float)
    want = scipy.linalg.eigh(b, subset_by_index=(m - 1, m - 1), eigvals_only=True)[0]
    assert close_to_eigh(max_eigenvalue_check(ops), want, want)


def test_max_eigenvalue_check_matches_dense_eigh_on_random_tables():
    rng = np.random.default_rng(52)
    for _ in range(40):
        m = int(rng.integers(2, 701))
        n = int(rng.integers(1, 65))
        ops = [random_pauli(n, rng, allow_identity=False) for _ in range(m)]
        b = sign_matrix(ops).astype(float)
        want = scipy.linalg.eigh(b, subset_by_index=(m - 1, m - 1), eigvals_only=True)[0]
        assert close_to_eigh(max_eigenvalue_check(ops), want, want)


def top_k_disagreement(lanczos_key, dense_key, k):
    """Each vertex in exactly one of the two top-k sets, mapped to the
    distance of its dense key from the dense k-th key."""
    order = np.argsort(-dense_key, kind="stable")
    cut = dense_key[order[k - 1]]
    got = set(np.argsort(-lanczos_key, kind="stable")[:k].tolist())
    return {v: abs(dense_key[v] - cut) for v in got ^ set(order[:k].tolist())}


def spectral_calls(params, monkeypatch):
    """(adjacency, k) of every spectral_clique call in attacking each register
    of a scheme at params, the bootstrap finder's sub-graphs included."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        _, scheme = gen_scheme(params, np.random.default_rng(3))
    calls = []
    inner = clique_module.spectral_clique

    def recording(graph, k):
        calls.append((graph.adjacency.astype(float), min(k, graph.m)))
        return inner(graph, k)

    monkeypatch.setattr(clique_module, "spectral_clique", recording)
    expected_k = round(params.epsilon * params.m)
    for ops in scheme.table:
        calls.append((build_graph(ops).adjacency.astype(float), expected_k))
        try:
            attack_register(ops, expected_k)
        except AttackFailure:
            pass
    return calls


@pytest.mark.parametrize(
    "params",
    [
        # the shapes of the three clique-attack golden files
        SchemeParams(10, 100, 8, 0.8),
        SchemeParams(12, 400, 4, 0.5),
        SchemeParams(10, 150, 8, 0.6),
    ],
)
def test_second_eigenvector_top_k_sets_match_dense_eigh(params, monkeypatch):
    calls = spectral_calls(params, monkeypatch)
    assert len(calls) >= params.l
    for a, k in calls:
        m = len(a)
        _, got = second_eigenvector(a)
        want = scipy.linalg.eigh(a, subset_by_index=(m - 2, m - 2))[1][:, 0]
        if got @ want < 0:  # an eigenvector's sign is arbitrary
            got = -got
        # Vertices with equal neighborhoods have equal entries in exact
        # arithmetic, and rounding orders them; only such ties at the cut
        # may fall on different sides.
        for key_l, key_d in ((got, want), (-got, -want), (np.abs(got), np.abs(want))):
            assert all(gap <= 1e-12 for gap in top_k_disagreement(key_l, key_d, k).values())


def test_second_eigenvector_top_k_sets_match_dense_eigh_at_criterion_06_shape():
    rng = np.random.default_rng(53)
    m, k = 2000, 450
    planted = rng.choice(m, size=k, replace=False)
    a = plant(gnp(rng, m), planted).astype(float)
    _, got = second_eigenvector(a)
    want = scipy.linalg.eigh(a, subset_by_index=(m - 2, m - 2))[1][:, 0]
    if got @ want < 0:
        got = -got
    for key_l, key_d in ((got, want), (-got, -want), (np.abs(got), np.abs(want))):
        assert not top_k_disagreement(key_l, key_d, k)


def test_eigensolvers_at_m_1_to_10_match_dense_eigh():
    rng = np.random.default_rng(54)
    for m in range(1, 11):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            ops = [random_pauli(n, rng) for _ in range(m)]
            b = sign_matrix(ops).astype(float)
            w = scipy.linalg.eigh(b, eigvals_only=True)
            assert close_to_eigh(max_eigenvalue_check(ops), w[-1], w[-1])
            a = build_graph(ops).adjacency.astype(float)
            if m == 1:
                with pytest.raises(ValueError):
                    second_eigenvector(a)
                continue
            w = scipy.linalg.eigh(a, eigvals_only=True)
            val, vec = second_eigenvector(a)
            assert close_to_eigh(val, w[-2], w[-1])
            assert np.linalg.norm(a @ vec - val * vec) <= 1e-12 * max(1.0, w[-1])


def test_eigensolvers_on_an_all_commuting_table():
    # B = J - I: the all-ones start vector is an eigenvector (m - 1), and the
    # rest of the spectrum is -1.
    for m in (2, 3, 10, 300):
        ops = [PauliOp(12, 0, z, 0) for z in range(1, m + 1)]
        assert close_to_eigh(max_eigenvalue_check(ops), m - 1, m - 1)
        val, vec = second_eigenvector(build_graph(ops).adjacency.astype(float))
        assert close_to_eigh(val, -1.0, m - 1)
        assert abs(vec.sum()) <= 1e-10  # orthogonal to the top eigenvector


def test_eigensolvers_on_a_degenerate_top_eigenvalue():
    # Three groups of s operators, X, Y or Z on qubit 0 times distinct
    # Z-strings on the rest: commuting inside a group, anticommuting across.
    # The sign matrix's top eigenvalue 2s - 1 is double; the graph's s - 1
    # is triple.
    s = 20
    ops = [
        PauliOp(9, x, (z << 1) | zbit, 0)
        for x, zbit in ((1, 0), (1, 1), (0, 1))
        for z in range(1, s + 1)
    ]
    assert close_to_eigh(max_eigenvalue_check(ops), 2 * s - 1, 2 * s - 1)
    a = build_graph(ops).adjacency.astype(float)
    val, vec = second_eigenvector(a)
    assert close_to_eigh(val, s - 1, s - 1)
    assert np.linalg.norm(a @ vec - val * vec) <= 1e-12 * s


def test_edgeless_graph_and_balanced_sign_matrix_take_the_dense_solve():
    # ARPACK starts from b @ ones, which is zero here.
    val, vec = second_eigenvector(np.zeros((6, 6)))
    assert val == 0.0 and abs(np.linalg.norm(vec) - 1.0) < 1e-12
    cycle = np.zeros((5, 5))
    for i in range(5):
        cycle[i, (i + 1) % 5] = cycle[(i + 1) % 5, i] = 1
    b = 2 * cycle - 1
    np.fill_diagonal(b, 0)
    w, _ = _top_eigenpairs(b, 2)
    assert np.array_equal(w, scipy.linalg.eigh(b, subset_by_index=(3, 4), eigvals_only=True))


def test_top_eigenpairs_repeat_bit_for_bit():
    # The same input solved twice, with another solve in between, gives the
    # same bits: no state carries over from one ARPACK call to the next.
    rng = np.random.default_rng(55)
    ops = [random_pauli(20, rng, allow_identity=False) for _ in range(300)]
    random_b = sign_matrix(ops).astype(float)
    # Three disjoint K20: the top eigenvalue 19 is triple, and the all-ones
    # start vector spans only part of its eigenspace, so ARPACK draws a
    # random vector mid-run.
    triple = np.kron(np.eye(3), np.ones((20, 20))) - np.eye(60)
    for b in (random_b, triple):
        for k in (1, 2):
            w1, v1 = _top_eigenpairs(b, k)
            _top_eigenpairs(gnp(rng, 120).astype(float), 2)
            w2, v2 = _top_eigenpairs(b, k)
            assert w1.tobytes() == w2.tobytes() and v1.tobytes() == v2.tobytes()


def test_max_eigenvalue_bound_smoke():
    rng = np.random.default_rng(40)
    ops = [random_pauli(16, rng, allow_identity=False) for _ in range(200)]
    lam = max_eigenvalue_check(ops)
    assert 0 < lam <= 10 * np.sqrt(200)


def test_recover_register_epsilon_one():
    rng = np.random.default_rng(41)
    st = random_stabilizer_state(8, rng)
    ops = []
    while len(ops) < 120:
        g = random_stabilizer_element(st, rng)
        if not g.is_identity:
            ops.append(g)
    recovered = attack_register(ops, expected_k=120).recovered_state
    assert group_equal(st, recovered)


def test_attack_failure_on_structureless_register():
    rng = np.random.default_rng(42)
    ops = [random_pauli(12, rng, allow_identity=False) for _ in range(150)]
    # claiming a huge planted clique that is not there must fail loudly
    with pytest.raises(AttackFailure):
        attack_register(ops, expected_k=140)


def test_run_clique_attack_end_to_end_small():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        secret, scheme = gen_scheme(SchemeParams(10, 150, 32, 0.6), np.random.default_rng(43))
    rng = np.random.default_rng(44)
    attack = run_clique_attack(scheme, secret, rng)
    assert len(attack.reports) == 32
    assert attack.failed_registers == ()
    for rep in attack.reports:
        assert rep.planted_overlap == 1.0
        assert rep.p1_estimate > 0.7
    accs = [verify(scheme, attack.money, rng).accepted for _ in range(50)]
    assert np.mean(accs) > 0.9


def test_attack_scores_with_exactly_2lm_queries_and_one_table_per_group(monkeypatch):
    # The benchmark pins stab_expectation at 2*l*m calls per attack with the
    # secret given; the secret's adoption check must not add to them.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        secret, scheme = gen_scheme(SchemeParams(10, 150, 6, 0.6), np.random.default_rng(43))
    calls = []
    original = stab_expectation

    def counted(state, op):
        calls.append(op)
        return original(state, op)

    for name, module in list(sys.modules.items()):
        if (name == "qmoney" or name.startswith("qmoney.")) and getattr(
            module, "stab_expectation", None
        ) is original:
            monkeypatch.setattr(module, "stab_expectation", counted)
    assert stabilizer_module.stab_expectation is counted
    attack = run_clique_attack(scheme, secret, np.random.default_rng(44))
    assert attack.failed_registers == ()
    assert len(calls) == 2 * 6 * 150
    for state, recovered in zip(secret.states, attack.money.registers):
        assert vars(state)["_query_table"] is vars(recovered)["_query_table"]


def test_run_clique_attack_epsilon_zero_flags_failures():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        secret, scheme = gen_scheme(SchemeParams(12, 100, 3, 0.0), np.random.default_rng(45))
    attack = run_clique_attack(scheme, secret, np.random.default_rng(46))
    # nothing planted: every register should fail and be replaced
    assert len(attack.failed_registers) == 3
    assert len(attack.money.registers) == 3
    for rep in attack.reports:
        assert rep.failed


def test_forge_high_eps_epsilon_one_always_accepts():
    secret, scheme = gen_scheme(SchemeParams(8, 64, 8, 1.0), np.random.default_rng(47))
    rng = np.random.default_rng(48)
    money = run_clique_attack(scheme, None, rng).money
    for _ in range(20):
        out = verify(scheme, money, rng)
        assert out.accepted
        assert out.q_value == 1.0


def test_clique_attack_on_a_drawn_scheme_packs_no_operator_list(monkeypatch):
    # every register's graph is built from its block of the packed table
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        secret, scheme = gen_scheme(SchemeParams(10, 64, 4, 0.5), np.random.default_rng(8))
    packed = []
    pack_words = pauli_module._pack_words

    def counted(*args):
        packed.append(args)
        return pack_words(*args)

    monkeypatch.setattr(pauli_module, "_pack_words", counted)
    build_graph([PauliOp.identity(2)])
    assert len(packed) == 2  # a list's x and z words are counted
    packed.clear()
    result = run_clique_attack(scheme, secret, np.random.default_rng(9))
    assert packed == [] and result.failed_registers == ()
    assert verify(scheme, result.money, np.random.default_rng(10)).accepted


def test_clique_attack_builds_each_registers_operators_once(monkeypatch):
    # the queries and the completion read one PauliOp per entry, built once
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        secret, scheme = gen_scheme(SchemeParams(10, 64, 4, 0.5), np.random.default_rng(8))
    want = run_clique_attack(scheme, secret, np.random.default_rng(9))
    built = []
    ops = PauliBlock.ops

    def counted(block):
        built.append(len(block))
        return ops(block)

    monkeypatch.setattr(PauliBlock, "ops", counted)
    got = run_clique_attack(scheme, secret, np.random.default_rng(9))
    assert built == [64] * 4
    assert got.reports == want.reports
    assert [r.generators for r in got.money.registers] == [r.generators for r in want.money.registers]
    # a block alone builds only its clique's entries, the same operators
    built.clear()
    register = scheme.register(0)
    alone = attack_register(register, 32)
    assert built == [len(alone.vertices)]
    assert alone.recovered_state.generators == want.money.registers[0].generators
