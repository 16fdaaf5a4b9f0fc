"""Stabilizer groups and states against dense projectors and enumeration."""

import functools

import numpy as np
import pytest

from qmoney import gf2
from qmoney import (
    GroupContradictionError,
    InconsistentGeneratorsError,
    PauliOp,
    StabilizerState,
    commutes,
    complete_to_stabilizer_state,
    dense_projector,
    dense_statevector,
    greedy_consistent_subset,
    pauli_mul,
    random_pauli,
    random_stabilizer_element,
    random_stabilizer_state,
    stab_expectation,
)


def P(s):
    return PauliOp.from_string(s)


def test_constructor_rejects_bad_generator_sets():
    with pytest.raises(InconsistentGeneratorsError):
        StabilizerState(2, (P("+XI"), P("+ZI")))  # anticommute
    with pytest.raises(ValueError):
        StabilizerState(2, (P("+XX"), P("-XX")))  # dependent (and contradictory)
    with pytest.raises(ValueError):
        StabilizerState(2, (P("+iXX"), P("+ZZ")))  # non-Hermitian
    with pytest.raises(ValueError):
        StabilizerState(2, (P("+XX"),))  # wrong count


def test_projector_properties():
    rng = np.random.default_rng(20)
    for _ in range(25):
        st = random_stabilizer_state(3, rng)
        proj = dense_projector(st)
        assert np.allclose(proj, proj.conj().T)
        assert np.allclose(proj @ proj, proj)
        assert abs(np.trace(proj) - 1.0) < 1e-12  # rank one
        for g in st.generators:
            from qmoney import dense_matrix

            assert np.allclose(dense_matrix(g) @ proj, proj)
        v = dense_statevector(st)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.allclose(np.outer(v, v.conj()), proj)


def test_stab_expectation_vs_dense_trace():
    rng = np.random.default_rng(21)
    from qmoney import dense_matrix

    for _ in range(40):
        st = random_stabilizer_state(4, rng)
        proj = dense_projector(st)
        for _ in range(8):
            op = random_pauli(4, rng)
            want = np.trace(dense_matrix(op) @ proj)
            assert abs(want.imag) < 1e-12
            got = stab_expectation(st, op)
            assert got in (-1, 0, 1)
            assert abs(got - want.real) < 1e-12


def test_single_qubit_states_enumerate_all_six():
    # exactly six stabilizer states on one qubit: +-X, +-Y, +-Z
    rng = np.random.default_rng(22)
    seen = set()
    for _ in range(600):
        st = random_stabilizer_state(1, rng)
        seen.add(st.canonical_generators())
    assert len(seen) == 6


def test_two_qubit_states_uniform_over_sixty():
    rng = np.random.default_rng(23)
    counts = {}
    draws = 12000
    for _ in range(draws):
        key = random_stabilizer_state(2, rng).canonical_generators()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 60
    expected = draws / 60
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 99.9th percentile of chi2(59) is ~102
    assert chi2 < 105, chi2


def test_random_element_lies_in_group_with_sign():
    rng = np.random.default_rng(24)
    st = random_stabilizer_state(6, rng)
    for _ in range(50):
        g = random_stabilizer_element(st, rng)
        assert stab_expectation(st, g) == 1


def test_canonical_generators_invariant_under_regenerating():
    rng = np.random.default_rng(25)
    for _ in range(30):
        st = random_stabilizer_state(4, rng)
        gens = list(st.generators)
        # multiply a generator by a neighbor and shuffle; same group
        gens[0] = pauli_mul(gens[0], gens[1])
        gens[2] = pauli_mul(gens[2], gens[3])
        rng.shuffle(gens)
        st2 = StabilizerState(4, tuple(gens))
        assert st.group_equal(st2)
        assert st.canonical_generators() == st2.canonical_generators()
        # and flipping one sign breaks equality
        flipped = list(st2.generators)
        flipped[0] = -flipped[0]
        assert not st.group_equal(StabilizerState(4, tuple(flipped)))


def test_greedy_consistent_subset_drop_reasons():
    kept, dropped = greedy_consistent_subset([P("+X"), P("-X")])
    assert kept == [0]
    assert dropped == [(1, "sign")]

    kept, dropped = greedy_consistent_subset([P("+X"), P("+Z")])
    assert kept == [0]
    assert dropped == [(1, "anticommutes")]

    # product sign contradiction: XX, YY generate (XX)(YY) = -ZZ, so +ZZ clashes
    kept, dropped = greedy_consistent_subset([P("+XX"), P("+YY"), P("+ZZ")])
    assert kept == [0, 1]
    assert dropped == [(2, "sign")]

    # redundant-but-consistent ops are absorbed: not kept, not dropped
    kept, dropped = greedy_consistent_subset([P("+XX"), P("+YY"), P("-ZZ")])
    assert kept == [0, 1]
    assert dropped == []


def test_complete_to_stabilizer_state_extends_and_validates():
    rng = np.random.default_rng(26)
    for _ in range(25):
        st = random_stabilizer_state(5, rng)
        subset = [random_stabilizer_element(st, rng) for _ in range(3)]
        done = complete_to_stabilizer_state(subset)
        assert done.n == 5
        for g in subset:
            assert stab_expectation(done, g) == 1
    # same-seed determinism
    ops = [P("+XXII"), P("+ZZII")]
    assert complete_to_stabilizer_state(ops).generators == complete_to_stabilizer_state(ops).generators


def test_complete_raises_on_contradiction():
    with pytest.raises(GroupContradictionError):
        complete_to_stabilizer_state([P("+XX"), P("+YY"), P("+ZZ")])
    with pytest.raises(InconsistentGeneratorsError):
        complete_to_stabilizer_state([P("+XI"), P("+ZI")])


def test_completion_of_full_set_is_identity_operation():
    rng = np.random.default_rng(27)
    st = random_stabilizer_state(4, rng)
    again = complete_to_stabilizer_state(st.generators)
    assert st.group_equal(again)



# --- the signed echelon against the solve-then-multiply reference -----------


def reference_expectation(state, op):
    """Solve for the generator combination, multiply it out, compare signs."""
    combo = gf2.solve(state.rows, op.row)
    if combo is None:
        return 0
    implied = functools.reduce(
        pauli_mul,
        [g for j, g in enumerate(state.generators) if (combo >> j) & 1],
        PauliOp.identity(state.n),
    )
    return 1 if implied.phase == op.phase else -1


def reference_greedy(ops):
    """Re-solve over all kept rows per operator, as greedy_consistent_subset once did."""
    kept, dropped = [], []
    for idx, op in enumerate(ops):
        if any(not commutes(op, ops[k]) for k in kept):
            dropped.append((idx, "anticommutes"))
            continue
        combo = gf2.solve([ops[k].row for k in kept], op.row)
        if combo is None:
            kept.append(idx)
            continue
        implied = functools.reduce(
            pauli_mul,
            [ops[k] for j, k in enumerate(kept) if (combo >> j) & 1],
            PauliOp.identity(op.n),
        )
        if implied.phase != op.phase:
            dropped.append((idx, "sign"))
    return kept, dropped


ECHELON_NS = [1, 2, 3, 4, 5, 6, 50]


@pytest.mark.parametrize("n", ECHELON_NS)
def test_stab_expectation_matches_solve_reference(n):
    rng = np.random.default_rng(300 + n)
    identity = PauliOp.identity(n)
    for _ in range(10):
        st = random_stabilizer_state(n, rng)
        cases = [(identity, 1), (-identity, -1)]
        for _ in range(10):
            g = random_stabilizer_element(st, rng)
            cases += [(g, 1), (-g, -1)]
        nonmembers = 0
        while nonmembers < 10:
            op = random_pauli(n, rng)
            if reference_expectation(st, op) == 0:
                cases.append((op, 0))
                nonmembers += 1
        for op, want in cases:
            assert reference_expectation(st, op) == want
            assert stab_expectation(st, op) == want, (st, op)


@pytest.mark.parametrize("n", ECHELON_NS)
def test_greedy_consistent_subset_matches_reference(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(10):
        st = random_stabilizer_state(n, rng)
        elements = [random_stabilizer_element(st, rng) for _ in range(n + 3)]
        flipped = [-random_stabilizer_element(st, rng) for _ in range(3)]
        strays = [random_pauli(n, rng) for _ in range(4)]
        ops = elements + flipped + strays
        rng.shuffle(ops)
        got = greedy_consistent_subset(ops)
        assert got == reference_greedy(ops)


@pytest.mark.parametrize("n", ECHELON_NS)
def test_canonical_generators_are_the_signed_rref_rows(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(10):
        st = random_stabilizer_state(n, rng)
        canon = st.canonical_generators()
        assert [g.row for g in canon] == gf2.rref(st.rows)[0]
        assert all(reference_expectation(st, g) == 1 for g in canon)
