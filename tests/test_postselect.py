"""Label schemes, minting, the Markov verifier, and chain diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmoney import (
    LabelScheme,
    apply_M,
    beta_chain_mixing,
    build_verifier,
    component_analysis,
    default_iteration_count,
    find_frozen_strings,
    kraus_equivalence_check,
    label,
    label_bits,
    label_table,
    make_label_scheme,
    mint,
    parse_label_bits,
    postselect,
    verify_money,
)
from qmoney.postselect import (
    LabeledMoney,
    MarkovVerifier,
    _walk,
    matrix_M,
    money_from_label,
)
from oracles import class_markov_matrix


@pytest.fixture
def constant_scheme(monkeypatch):
    """(8, 3, 2) scheme whose every hash bit is 0: all 256 strings have label 0."""
    monkeypatch.setattr(LabelScheme, "_hash_raw", lambda self, j, value: 0)
    return make_label_scheme(8, 3, 2, 0)


def union_find_components(scheme, ell):
    """Reference: rule-graph components of a class by union-find over the rules."""
    members = np.flatnonzero(label_table(scheme) == ell)
    parent = list(range(len(members)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    index = {int(x): i for i, x in enumerate(members)}
    for i, x in enumerate(members):
        for perm in scheme._rules:
            ri, rj = find(i), find(index[int(perm[x])])
            if ri != rj:
                parent[ri] = rj
    groups = {}
    for i, x in enumerate(members):
        groups.setdefault(find(i), []).append(int(x))
    return tuple(tuple(sorted(g)) for g in sorted(groups.values()))


def test_make_label_scheme_shapes():
    sch = make_label_scheme(12, 4, 2, 0)
    assert sch.n == 12 and sch.s == 4 and sch.d == 2
    assert len(sch.subsets) == 4
    # every bit feeds exactly d subsets
    counts = [0] * 12
    for subset in sch.subsets:
        assert len(set(subset)) == len(subset)
        for b in subset:
            counts[b] += 1
    assert counts == [2] * 12


def test_make_label_scheme_forced_shape():
    # n*d/s = 100 bits per subset with n = 100: every subset is all bits
    sch = make_label_scheme(100, 10, 10, 1)
    for subset in sch.subsets:
        assert len(subset) == 100


def test_make_label_scheme_infeasible():
    with pytest.raises(ValueError):
        make_label_scheme(4, 2, 3, 0)  # would need a 6-bit subset of 4 bits


def test_every_shape_the_check_admits_is_realized():
    # 1 <= d <= s bounds every subset size, ceil(n*d/s), by n
    for n in range(1, 7):
        for s in range(1, 7):
            for d in range(1, s + 1):
                sch = make_label_scheme(n, s, d, 0)
                assert (sch.n, sch.s, sch.d) == (n, s, d)


def test_label_deterministic_and_local():
    sch = make_label_scheme(16, 6, 3, 5)
    x = 0b1010110010110001
    assert label(sch, x) == label(sch, x)
    sch2 = make_label_scheme(16, 6, 3, 5)
    assert label(sch2, x) == label(sch, x)  # rebuilt from the same seed
    # flipping a bit outside subset j leaves hash bit j unchanged
    for j, subset in enumerate(sch.subsets):
        outside = next(b for b in range(16) if b not in subset)
        a, b = label(sch, x), label(sch, x ^ (1 << outside))
        assert (a >> j) & 1 == (b >> j) & 1


def test_label_table_matches_scalar_label():
    sch = make_label_scheme(10, 4, 2, 3)
    table = label_table(sch)
    rng = np.random.default_rng(70)
    for x in rng.integers(0, 1 << 10, size=50):
        assert table[int(x)] == label(sch, int(x))


def test_no_label_class_dominates():
    sch = make_label_scheme(12, 4, 2, 0)
    counts = np.bincount(label_table(sch), minlength=16)
    assert counts.max() <= 0.25 * 4096


def test_label_bits_round_trip():
    assert label_bits(0b0011, 4) == "1100"  # character j carries label bit j
    assert parse_label_bits("1100") == 0b0011
    for ell in range(16):
        assert parse_label_bits(label_bits(ell, 4)) == ell
    with pytest.raises(ValueError):
        parse_label_bits("01x1")


def test_mint_distribution_matches_class_sizes():
    sch = make_label_scheme(10, 4, 2, 1)
    table = label_table(sch)
    sizes = np.bincount(table, minlength=16)
    rng = np.random.default_rng(71)
    draws = 4000
    counts = np.zeros(16)
    for _ in range(draws):
        money = mint(sch, rng)
        counts[money.label] += 1
        assert money.support_size == sizes[money.label]
    # chi-square against exact class-size law
    expected = draws * sizes / 1024
    live = expected > 0
    chi2 = float(((counts[live] - expected[live]) ** 2 / expected[live]).sum())
    assert chi2 < 2 * live.sum() + 5 * math.sqrt(2 * live.sum())


def test_minted_state_amplitudes():
    sch = make_label_scheme(10, 4, 2, 2)
    table = label_table(sch)
    money = mint(sch, np.random.default_rng(72))
    support = np.flatnonzero(table == money.label)
    amp = 1 / math.sqrt(len(support))
    assert np.allclose(money.state[support], amp)
    off = np.ones(1024, dtype=bool)
    off[support] = False
    assert np.allclose(money.state[off], 0)
    assert abs(np.linalg.norm(money.state) - 1.0) < 1e-12


def test_minted_note_is_money_from_label():
    sch = make_label_scheme(10, 4, 2, 2)
    rng = np.random.default_rng(72)
    for _ in range(5):
        money = mint(sch, rng)
        rebuilt = money_from_label(sch, money.label)
        assert np.array_equal(money.state, rebuilt.state)
        assert money.support_size == rebuilt.support_size


def test_verifier_permutations_are_label_preserving_involutions():
    sch = make_label_scheme(10, 4, 2, 3)
    ver = build_verifier(sch, 4)
    table = label_table(sch)
    for perm in ver.permutations:
        assert np.array_equal(perm[perm], np.arange(1024))  # involution
        assert np.array_equal(table[perm], table)  # stays in the class


def test_apply_M_matches_explicit_matrix():
    sch = make_label_scheme(8, 3, 2, 4)
    ver = build_verifier(sch, 3)
    mat = matrix_M(ver)
    rng = np.random.default_rng(73)
    for _ in range(20):
        v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        assert np.allclose(apply_M(ver, v), mat @ v, atol=1e-12)
    # M is symmetric and doubly stochastic
    assert np.allclose(mat, mat.T)
    assert np.allclose(mat.sum(axis=0), 1.0)


def test_minted_money_is_fixed_point_and_accepted():
    sch = make_label_scheme(12, 4, 2, 0)
    rng = np.random.default_rng(74)
    for _ in range(5):
        money = mint(sch, rng)
        ver = build_verifier(sch, 7)
        assert np.linalg.norm(apply_M(ver, money.state) - money.state) < 1e-10
        accepted, prob = verify_money(ver, money, rng)
        assert accepted
        assert abs(prob - 1.0) < 1e-9


@pytest.mark.parametrize("params", [(12, 8, 2, 0), (12, 4, 2, 0)])
def test_round_count_cannot_change_a_minted_notes_acceptance(params):
    # a minted note is a +1 eigenvector of M, so any r accepts it
    sch = make_label_scheme(*params)
    rng = np.random.default_rng(0)
    for ell in sorted(set(label_table(sch).tolist())):
        note = money_from_label(sch, ell)
        auto = default_iteration_count(component_analysis(sch, ell))
        for r in (1, auto, 10**9):
            prob = verify_money(build_verifier(sch, r), note, rng)[1]
            assert abs(prob - 1.0) <= 1e-12, (ell, r, prob)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_labeled_money_refuses_nonfinite_entries(bad):
    money = mint(make_label_scheme(8, 4, 2, 1), np.random.default_rng(3))
    outside = int(np.flatnonzero(money.state == 0)[0])
    state = money.state.copy()
    state[outside] = bad
    with pytest.raises(ValueError, match="normalised"):
        LabeledMoney(money.label, state, money.support_size)


def test_wrong_label_projects_to_zero():
    sch = make_label_scheme(10, 4, 2, 5)
    rng = np.random.default_rng(75)
    money = mint(sch, rng)
    table = label_table(sch)
    sizes = np.bincount(table, minlength=16)
    other = int(np.argmax(sizes == sizes[sizes > 0].min()))
    if other == money.label:
        other = int(np.flatnonzero(sizes > 0)[-1])
    wrong = LabeledMoney(other, money.state, money.support_size)
    ver = build_verifier(sch, 3)
    accepted, prob = verify_money(ver, wrong, rng)
    assert prob < 1e-12
    assert not accepted


def full_vector_walk(verifier, money):
    """Reference: the verifier's r rounds as apply_M on the full 2**n vector."""
    w = np.where(label_table(verifier.scheme) == money.label, money.state, 0.0)
    for _ in range(verifier.r):
        w = apply_M(verifier, w)
    return w


def reference_prob(w):
    return float(min(1.0, np.linalg.norm(w) ** 2))


def forged_note(scheme, seed):
    """A state uniform over a random half of all 2**n strings: inside a
    class its entries are uneven, so the walk's summation order shows."""
    rng = np.random.default_rng(seed)
    support = rng.choice(1 << scheme.n, size=1 << (scheme.n - 1), replace=False)
    state = np.zeros(1 << scheme.n, dtype=complex)
    state[support] = 1.0 / math.sqrt(len(support))
    return state, len(support)


def all_class_walks(scheme, start, rounds):
    """{t: full-vector walk of start after t rounds} for t in rounds.  No
    rule leaves a class, so each class's entries take exactly the steps of
    full_vector_walk on that class's projection of start."""
    one_round = build_verifier(scheme, 1)
    w, out = start, {}
    for t in range(1, max(rounds) + 1):
        w = apply_M(one_round, w)
        if t in rounds:
            out[t] = w
    return out


@pytest.mark.parametrize("params", [(12, 4, 2, 0), (12, 8, 2, 0)])
def test_class_walk_is_byte_identical_to_full_vector_walk(params):
    sch = make_label_scheme(*params)
    table = label_table(sch)
    labels = sorted(set(table.tolist()))
    rounds = {ell: {50} for ell in labels}
    for ell in labels:
        r = default_iteration_count(component_analysis(sch, ell))
        if r <= 2000:
            rounds[ell].add(r)
    all_rounds = set().union(*rounds.values())
    minted = sum(money_from_label(sch, ell).state for ell in labels)
    forged, forged_size = forged_note(sch, 81)
    rng = np.random.default_rng(0)
    for start, note_of in (
        (minted, lambda ell: money_from_label(sch, ell)),
        (forged, lambda ell: LabeledMoney(ell, forged, forged_size)),
    ):
        walks = all_class_walks(sch, start, all_rounds)
        for ell in labels:
            note = note_of(ell)
            for r in rounds[ell]:
                ver = build_verifier(sch, r)
                want = np.where(table == ell, walks[r], 0.0)
                assert _walk(ver, note)[0].tobytes() == want.tobytes(), (ell, r)
                assert verify_money(ver, note, rng)[1] == reference_prob(want), (ell, r)
        # the shared walk stands in for each label's own full-vector walk
        sizes = np.bincount(table)
        for ell in (labels[0], int(np.argmax(sizes)), max(labels, key=lambda e: max(rounds[e]))):
            r = max(rounds[ell])
            want = full_vector_walk(build_verifier(sch, r), note_of(ell))
            assert want.tobytes() == np.where(table == ell, walks[r], 0.0).tobytes(), ell


def test_class_walk_of_empty_class_and_wrong_label_is_zero():
    sch = make_label_scheme(12, 8, 2, 0)
    table = label_table(sch)
    sizes = np.bincount(table, minlength=1 << sch.s)
    note = money_from_label(sch, int(table[0]))
    empty = int(np.flatnonzero(sizes == 0)[0])
    wrong = int(np.flatnonzero(sizes > 0)[-1])
    assert wrong != note.label
    rng = np.random.default_rng(0)
    for ell in (empty, wrong):
        bad = LabeledMoney(ell, note.state, note.support_size)
        ver = build_verifier(sch, 50)
        want = full_vector_walk(ver, bad)
        assert _walk(ver, bad)[0].tobytes() == want.tobytes()
        assert verify_money(ver, bad, rng) == (False, 0.0) and reference_prob(want) == 0.0


def walk_without_exit(verifier, money):
    """Reference: the class walk's r rounds with no fixed-point exit."""
    members = np.flatnonzero(label_table(verifier.scheme) == money.label)
    local = np.searchsorted(members, verifier.scheme._rules[:, members])
    local = np.hstack([local, np.full((len(local), 1), len(members))])
    w = np.append(money.state[members], 0.0)
    gathered = np.empty(local.shape, dtype=w.dtype)
    for _ in range(verifier.r):
        np.take(w, local, out=gathered, mode="clip")
        np.add.reduce(gathered, axis=0, out=w)
        np.divide(w, len(local), out=w)
    full = np.zeros(money.state.shape, dtype=w.dtype)
    full[members] = w[:-1]
    return full


def class_notes(scheme, ell, rng):
    """(kind, note) for a label: the minted note, a note uniform over a
    random half of the class, and the whole class with random phases."""
    members = np.flatnonzero(label_table(scheme) == ell)
    size = 1 << scheme.n
    half = rng.choice(members, size=max(1, len(members) // 2), replace=False)
    halved = np.zeros(size, dtype=complex)
    halved[half] = 1.0 / math.sqrt(len(half))
    phased = np.zeros(size, dtype=complex)
    phased[members] = np.exp(2j * math.pi * rng.random(len(members))) / math.sqrt(len(members))
    return [
        ("minted", money_from_label(scheme, ell)),
        ("half", LabeledMoney(ell, halved, len(half))),
        ("phased", LabeledMoney(ell, phased, len(members))),
    ]


@pytest.mark.parametrize("params", [(12, 8, 2, 0), (12, 4, 2, 0)])
def test_walk_exit_is_byte_identical_to_the_walk_without_it(params):
    sch = make_label_scheme(*params)
    rng = np.random.default_rng(params[1])
    for ell in sorted(set(label_table(sch).tolist())):
        ver = build_verifier(sch, default_iteration_count(component_analysis(sch, ell)))
        for kind, note in class_notes(sch, ell, rng):
            got, rounds = _walk(ver, note)
            assert got.tobytes() == walk_without_exit(ver, note).tobytes(), (ell, kind)
            assert 1 <= rounds <= ver.r
            if kind == "minted":
                assert rounds <= 4, (ell, rounds)


def test_walk_with_no_fixed_point_runs_every_round(constant_scheme):
    # Every rule flips its bit in the one class, and the parity vector is a
    # -1 eigenvector: each round negates it exactly, so no round repeats.
    parity = np.array([(-1.0) ** x.bit_count() for x in range(256)]) / 16.0
    note = LabeledMoney(0, parity.astype(complex), 256)
    for r in (1, 2, 7, 64):
        ver = build_verifier(constant_scheme, r)
        got, rounds = _walk(ver, note)
        assert rounds == r
        assert got.tobytes() == walk_without_exit(ver, note).tobytes()
        assert np.array_equal(got, (-1.0) ** r * note.state)


def test_walk_exit_tells_signed_zeros_apart():
    # A frozen string holds the note; the rest of its class holds -0.0 but
    # for one +0.0.  The frozen entry is fixed from round 1 on, while +0.0
    # spreads over its component (-0.0 + 0.0 is +0.0) for several rounds:
    # equal values, different bytes, until the spread ends.
    sch = make_label_scheme(10, 4, 2, 0)
    x0 = int(find_frozen_strings(sch)[0])
    ell = int(label_table(sch)[x0])
    members = np.flatnonzero(label_table(sch) == ell)
    big = max(component_analysis(sch, ell).components, key=len)
    assert len(big) > 2
    state = np.zeros(1 << sch.n, dtype=complex)
    state.view(float)[np.repeat(2 * members, 2) + np.tile([0, 1], len(members))] = -0.0
    state[big[0]] = 0.0
    state[x0] = 1.0
    note = LabeledMoney(ell, state, 1)
    ver = build_verifier(sch, 50)
    got, rounds = _walk(ver, note)
    assert 1 < rounds < ver.r
    assert got.tobytes() == walk_without_exit(ver, note).tobytes()
    assert not np.signbit(got.real[list(big)]).any()


def test_random_in_class_vector_acceptance_matches_eigendecomposition():
    sch = make_label_scheme(10, 4, 2, 6)
    table = label_table(sch)
    ell = int(table[0])
    members = np.flatnonzero(table == ell)
    rng = np.random.default_rng(76)
    r = 6
    ver = build_verifier(sch, r)
    members_check, sub = class_markov_matrix(sch, ell)
    assert np.array_equal(members_check, members)
    evals, evecs = np.linalg.eigh(sub)
    v = np.zeros(1024, dtype=complex)
    coeffs = rng.standard_normal(len(members)) + 1j * rng.standard_normal(len(members))
    coeffs /= np.linalg.norm(coeffs)
    v[members] = coeffs
    w = v.copy()
    for _ in range(r):
        w = apply_M(ver, w)
    got = float(np.linalg.norm(w) ** 2)
    proj = evecs.conj().T @ coeffs
    want = float((np.abs(proj) ** 2 * evals ** (2 * r)).sum())
    assert abs(got - want) < 1e-3


def test_acceptance_monotone_in_iterations():
    sch = make_label_scheme(10, 4, 2, 7)
    ver = build_verifier(sch, 1)
    rng = np.random.default_rng(77)
    for _ in range(20):
        v = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        v /= np.linalg.norm(v)
        norms = []
        for _ in range(6):
            v = apply_M(ver, v)
            norms.append(np.linalg.norm(v))
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12


def test_kraus_equivalence():
    for seed, n, s, d in [(0, 3, 2, 1), (1, 6, 3, 2)]:
        sch = make_label_scheme(n, s, d, seed)
        ver = build_verifier(sch, 2)
        assert kraus_equivalence_check(ver) <= 1e-10


def test_single_rule_M_is_the_permutation_average():
    # with one update rule, M = (P + I-flip contributions)/n directly
    sch = make_label_scheme(4, 4, 1, 0)
    ver = build_verifier(sch, 1)
    mat = matrix_M(ver)
    want = np.zeros((16, 16))
    for perm in ver.permutations:
        want[perm, np.arange(16)] += 1 / 4
    assert np.allclose(mat, want)


def test_matrix_M_is_the_class_matrix_when_every_string_has_label_0(constant_scheme):
    members, mat = class_markov_matrix(constant_scheme, 0)
    assert np.array_equal(members, np.arange(256))
    assert matrix_M(build_verifier(constant_scheme, 3)).tobytes() == mat.tobytes()


def test_component_analysis_constant_scheme(constant_scheme):
    assert (label_table(constant_scheme) == 0).all()
    ca = component_analysis(constant_scheme, 0)
    assert len(ca.members) == 256
    assert len(ca.components) == 1  # all flips allowed: hypercube is connected
    assert ca.plus_dim == 1
    assert abs(ca.second_eigenvalue - (1 - 2 / 8)) < 1e-12  # lazy walk gap 2/n


def test_constant_class_is_gapless_and_gets_64_rounds(constant_scheme):
    # every flip keeps the label, so the parity vector has eigenvalue -1
    ca = component_analysis(constant_scheme, 0)
    assert abs(ca.eigenvalues[0] + 1.0) < 1e-12
    assert default_iteration_count(ca) == 64


@pytest.mark.parametrize("params", [(12, 4, 2, 0), (12, 8, 2, 0)])
def test_components_match_union_find_oracle(params):
    sch = make_label_scheme(*params)
    for ell in sorted(set(label_table(sch).tolist())):
        assert component_analysis(sch, ell).components == union_find_components(sch, ell), ell


def scipy_component_analysis(scheme, ell):
    """Oracle: the class matrix, its components by scipy's connected_components
    and its spectrum, computed as component_analysis did before its numpy walk."""
    from scipy.sparse.csgraph import connected_components

    members = np.flatnonzero(label_table(scheme) == ell)
    k = len(members)
    mat = np.zeros((k, k))
    for perm in scheme._rules:
        mat[np.searchsorted(members, perm[members]), np.arange(k)] += 1.0 / scheme.n
    _, component_of = connected_components(mat, directed=False)
    groups = {}
    for x, c in zip(members.tolist(), component_of.tolist()):
        groups.setdefault(c, []).append(x)
    eigenvalues = np.linalg.eigvalsh(mat)
    return (
        members,
        tuple(tuple(g) for g in sorted(groups.values())),
        eigenvalues,
        int(np.sum(eigenvalues > 1.0 - 1e-9)),
        float(eigenvalues[-2]) if k >= 2 else None,
    )


def assert_components_match_scipy(scheme):
    """Every non-empty label of the scheme, byte for byte; returns the class sizes."""
    sizes = []
    for ell in sorted(set(label_table(scheme).tolist())):
        ca = component_analysis(scheme, ell)
        members, components, eigenvalues, plus_dim, second = scipy_component_analysis(scheme, ell)
        assert np.array_equal(ca.members, members), ell
        assert ca.components == components, ell
        assert all(type(x) is int for c in ca.components for x in c), ell
        assert ca.eigenvalues.tobytes() == eigenvalues.tobytes(), ell
        assert ca.plus_dim == plus_dim and type(ca.plus_dim) is int, ell
        assert repr(ca.second_eigenvalue) == repr(second), ell
        sizes.append(len(members))
    return sizes


@pytest.mark.parametrize("params", [(12, 8, 2, 0), (12, 4, 2, 0), (10, 4, 2, 0)])
def test_component_walk_matches_scipy_connected_components(params):
    assert_components_match_scipy(make_label_scheme(*params))


def test_component_walk_handles_singleton_classes():
    # (4, 3, 2, 0): all 8 labels occur, 5 of them on a single string
    sizes = assert_components_match_scipy(make_label_scheme(4, 3, 2, 0))
    assert sorted(sizes) == [1, 1, 1, 1, 1, 3, 3, 5]


@settings(deadline=None, max_examples=150)
@given(
    n=st.integers(1, 8),
    s=st.integers(1, 6),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_component_walk_matches_scipy_on_drawn_schemes(n, s, d, seed):
    assume(d <= s)
    try:
        sch = make_label_scheme(n, s, d, seed)
    except ValueError:  # a rare unrealizable assignment
        assume(False)
    assert_components_match_scipy(sch)


def test_component_analysis_of_an_empty_class_raises():
    sch = make_label_scheme(3, 3, 2, 0)
    empty = sorted(set(range(8)) - set(label_table(sch).tolist()))
    assert empty  # labels 2, 3, 6 and 7 have no string
    for ell in empty:
        with pytest.raises(ValueError, match="empty preimage"):
            component_analysis(sch, ell)


def test_component_analysis_plus_dim_equals_component_count():
    sch = make_label_scheme(12, 4, 2, 0)
    table = label_table(sch)
    for ell in sorted(set(table.tolist())):
        ca = component_analysis(sch, int(ell))
        assert ca.plus_dim == len(ca.components), ell


def test_frozen_strings_are_singleton_components():
    sch = make_label_scheme(10, 4, 2, 0)
    frozen = find_frozen_strings(sch)
    assert len(frozen) > 0
    table = label_table(sch)
    for x in frozen[:5]:
        ca = component_analysis(sch, int(table[int(x)]))
        assert [int(x)] in [sorted(c) for c in ca.components]


def test_default_iteration_count():
    sch = make_label_scheme(10, 4, 2, 1)
    table = label_table(sch)
    ell = int(table[123])
    ca = component_analysis(sch, ell)
    r = default_iteration_count(ca)
    rest = ca.eigenvalues[ca.eigenvalues <= 1 - 1e-9]
    lam = float(np.abs(rest).max())
    assert lam**r <= 1e-6
    assert lam ** (r - 1) > 1e-6 or r == 1  # smallest such r
    assert r >= 1


def test_chain_detailed_balance_at_positive_beta():
    sch = make_label_scheme(8, 4, 2, 2)
    rng = np.random.default_rng(78)
    ell = int(label_table(sch)[17])
    diag = beta_chain_mixing(sch, ell, 1.0, 4000, rng)
    assert 0 < diag.acceptance_rate <= 1
    assert diag.mean_energy >= 0
    assert diag.tv_distance is not None


def test_chain_beta_zero_mixes():
    sch = make_label_scheme(10, 4, 2, 0)
    rng = np.random.default_rng(79)
    ell = int(label_table(sch)[0])
    steps = int(10 * 10 * math.log(2**10))
    diag = beta_chain_mixing(sch, ell, 0.0, steps, rng)
    assert diag.acceptance_rate == 1.0  # every proposal accepted at beta 0
    assert diag.tv_distance <= 0.05
    assert not diag.frozen


def test_chain_freezes_at_high_beta():
    sch = make_label_scheme(10, 4, 2, 0)
    frozen_strings = find_frozen_strings(sch)
    assert len(frozen_strings) > 0
    x0 = int(frozen_strings[0])
    ell = int(label_table(sch)[x0])
    rng = np.random.default_rng(80)
    diag = beta_chain_mixing(sch, ell, 12.0, 800, rng, start=x0)
    assert diag.frozen
    assert diag.acceptance_rate == 0.0
    assert math.isinf(diag.autocorr_time) or diag.autocorr_time > 800


def test_chain_tv_none_above_exact_limit():
    sch = make_label_scheme(14, 4, 2, 0)
    rng = np.random.default_rng(81)
    ell = int(label_table(sch)[0]) if sch.n <= 16 else 0
    diag = beta_chain_mixing(sch, ell, 0.5, 300, rng)
    assert diag.tv_distance is None


def reference_kernel(sch, ell, beta, x0, steps):
    """The exact kernel's distribution after steps steps from x0, moved flip by flip."""
    n, size = sch.n, 1 << sch.n
    c_all = np.array([int(v).bit_count() for v in label_table(sch) ^ np.uint32(ell)])
    idx = np.arange(size)
    flips = [idx ^ (1 << i) for i in range(n)]
    ratios = [np.minimum(1.0, np.exp(-beta * (c_all[f] - c_all))) for f in flips]
    p = np.zeros(size)
    p[x0] = 1.0
    for _ in range(steps):
        q = p.copy()
        for f, ratio in zip(flips, ratios):
            out = p * ratio * (0.5 / n)
            q -= out
            q += out[f]
        p = q
    return p


def reference_beta_chain(sch, ell, beta, steps, rng, start=None):
    """(acceptance_rate, tv_distance, mean_energy) of beta_chain_mixing as a
    plain loop: the exact kernel moves probability flip by flip."""
    n, size = sch.n, 1 << sch.n
    table = label_table(sch)
    x = int(rng.integers(size)) if start is None else start
    x0, e = x, int(table[x] ^ ell).bit_count()
    energies, accepted, proposals = [e], 0, 0
    for _ in range(steps):
        if rng.random() < 0.5:
            energies.append(e)
            continue
        y = x ^ (1 << int(rng.integers(n)))
        ey = int(table[y] ^ ell).bit_count()
        proposals += 1
        if ey <= e or rng.random() < math.exp(-beta * (ey - e)):
            x, e = y, ey
            accepted += 1
        energies.append(e)
    p = reference_kernel(sch, ell, beta, x0, steps)
    c_all = np.array([int(v).bit_count() for v in table ^ np.uint32(ell)])
    pi = np.exp(-beta * c_all)
    pi /= pi.sum()
    tv = float(0.5 * np.abs(p - pi).sum())
    rate = accepted / proposals if proposals else 0.0
    return rate, tv, float(np.array(energies, dtype=np.int64).mean())


@pytest.mark.parametrize("n", range(1, 13))
def test_beta_kernel_equals_the_per_flip_loop_bit_for_bit(n):
    s = min(3, n)
    sch = make_label_scheme(n, s, min(2, s), 40 + n)
    frozen = find_frozen_strings(sch)
    runs = [(beta, None) for beta in (0.0, 0.7, 12.0)]
    runs += [(0.7, (5 * n + 1) % (1 << n))]
    runs += [(12.0, int(frozen[0]))] if len(frozen) else []
    for beta, start in runs:
        ell = int(label_table(sch)[start if start is not None else n % (1 << n)])
        got = beta_chain_mixing(sch, ell, beta, 60, np.random.default_rng(n), start)
        want = reference_beta_chain(sch, ell, beta, 60, np.random.default_rng(n), start)
        assert (got.acceptance_rate, got.tv_distance, got.mean_energy) == want, (beta, start)


def count_kernel_evolutions(monkeypatch):
    """Log each exact-kernel evolution as (start, steps)."""
    calls = []
    evolve = postselect._evolve_kernel

    def counted(ratios, flips, x0, steps):
        calls.append((x0, steps))
        return evolve(ratios, flips, x0, steps)

    monkeypatch.setattr(postselect, "_evolve_kernel", counted)
    return calls


def chain_summary(diag):
    return diag.acceptance_rate, diag.tv_distance, diag.mean_energy


@pytest.mark.parametrize(
    "params, starts, steps",
    [((6, 3, 2, 0), range(64), 60), ((10, 4, 2, 0), range(7, 1024, 51), 300)],
)
def test_plain_walk_kernel_is_each_start_evolution_translated(
    monkeypatch, params, starts, steps
):
    calls = count_kernel_evolutions(monkeypatch)
    reused = make_label_scheme(*params)
    idx = np.arange(1 << reused.n)
    for x0 in starts:
        ell = int(label_table(reused)[x0 // 2])
        want = reference_beta_chain(reused, ell, 0.0, steps, np.random.default_rng(x0), x0)
        for sch in (make_label_scheme(*params), reused):
            got = beta_chain_mixing(sch, ell, 0.0, steps, np.random.default_rng(x0), x0)
            assert chain_summary(got) == want, x0
        kernel = reference_kernel(reused, ell, 0.0, x0, steps)
        assert reused._plain_kernels[steps][idx ^ x0].tobytes() == kernel.tobytes(), x0
    # one evolution per fresh scheme, and one for the reused scheme
    assert len(calls) == len(starts) + 1


def test_plain_walk_kernels_are_read_only_and_kept_per_step_count():
    sch = make_label_scheme(6, 3, 2, 0)
    for steps in (10, 20, 10):
        beta_chain_mixing(sch, 0, 0.0, steps, np.random.default_rng(0))
    assert sorted(sch._plain_kernels) == [10, 20]
    for kernel in sch._plain_kernels.values():
        assert not kernel.flags.writeable
        with pytest.raises(ValueError):
            kernel[0] = 1.0


@pytest.mark.parametrize("beta", [12.0, 0.5, -1.0])
def test_biased_chains_never_touch_the_plain_walk_memo(monkeypatch, beta):
    calls = count_kernel_evolutions(monkeypatch)
    sch = make_label_scheme(10, 4, 2, 0)
    frozen = find_frozen_strings(sch)
    for x0 in (int(frozen[0]), 5, 77):
        ell = int(label_table(sch)[x0])
        got = beta_chain_mixing(sch, ell, beta, 50, np.random.default_rng(x0), x0)
        want = reference_beta_chain(sch, ell, beta, 50, np.random.default_rng(x0), x0)
        assert chain_summary(got) == want
    assert "_plain_kernels" not in vars(sch)
    assert len(calls) == 3


def test_a_beta_too_small_to_move_a_ratio_runs_the_plain_walk(monkeypatch):
    # At beta = 2e-17 every ratio exp(-beta * dc), |dc| <= d = 2, rounds to
    # 1.0, but exp(-beta * 3) does not: pi is not uniform, so the tv distance
    # sees whether the shared kernel is translated to each start.
    calls = count_kernel_evolutions(monkeypatch)
    sch = make_label_scheme(6, 3, 2, 0)
    beta = 2e-17
    assert len(set(np.exp(-beta * np.arange(4)).tolist())) > 1
    for x0 in range(0, 64, 3):
        got = beta_chain_mixing(sch, 0, beta, 40, np.random.default_rng(x0), x0)
        want = reference_beta_chain(sch, 0, beta, 40, np.random.default_rng(x0), x0)
        assert chain_summary(got) == want, x0
    assert len(calls) == 1 and list(sch._plain_kernels) == [40]


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
def test_beta_chain_refuses_a_nonfinite_beta(beta):
    sch = make_label_scheme(6, 3, 2, 0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="beta must be finite"):
        beta_chain_mixing(sch, 0, beta, 10, rng, int(find_frozen_strings(sch)[0]))
    assert rng.bit_generator.state == state  # refused before any draw


@pytest.mark.parametrize(
    "ell, start, what",
    [(8, None, "target label 8"), (-5, None, "target label -5"),
     (0, -1, "start string -1"), (0, 64, "start string 64")],
)
def test_beta_chain_refuses_labels_and_starts_that_do_not_exist(ell, start, what):
    sch = make_label_scheme(6, 3, 2, 0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=what):
        beta_chain_mixing(sch, ell, 0.0, 10, rng, start)
    assert rng.bit_generator.state == state  # refused before any draw
    beta_chain_mixing(sch, 7, 0.0, 10, rng, 63)  # the largest label and string run


def test_label_scheme_validation():
    with pytest.raises(ValueError):
        LabelScheme(4, 2, 1, 0, ((0, 1), (1, 2), (2, 3)))  # s mismatch
    with pytest.raises(ValueError):
        LabelScheme(4, 2, 1, 0, ((0, 0), (1, 2)))  # repeated bit
    with pytest.raises(ValueError):
        LabelScheme(4, 2, 1, 0, ((0, 4), (1, 2)))  # out of range
    with pytest.raises(ValueError):
        LabelScheme(4, 2, 2, 0, ((0, 1), (1, 2)))  # bit 3 in no subset, bit 1 in two
