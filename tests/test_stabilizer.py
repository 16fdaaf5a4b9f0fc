"""Stabilizer groups and states against dense projectors and enumeration."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from qmoney import gf2
from qmoney import (
    InconsistentGeneratorsError,
    PauliOp,
    StabilizerState,
    complete_to_stabilizer_state,
    greedy_consistent_subset,
    pauli_mul,
    random_pauli,
    random_stabilizer_state,
    stab_expectation,
)
from qmoney.pauli import _random_bits
from qmoney.stabilizer import _cross_masks, _Extension, _share_query_table
from oracles import (
    canonical_generators,
    commutes,
    dense_matrix,
    dense_projector,
    dense_statevector,
    group_equal,
    random_stabilizer_element,
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
            assert np.allclose(dense_matrix(g) @ proj, proj)
        v = dense_statevector(st)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.allclose(np.outer(v, v.conj()), proj)


def test_stab_expectation_vs_dense_trace():
    rng = np.random.default_rng(21)
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
        seen.add(canonical_generators(st))
    assert len(seen) == 6


def test_two_qubit_states_uniform_over_sixty():
    rng = np.random.default_rng(23)
    counts = {}
    draws = 12000
    for _ in range(draws):
        key = canonical_generators(random_stabilizer_state(2, rng))
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
        assert group_equal(st, st2)
        assert canonical_generators(st) == canonical_generators(st2)
        # and flipping one sign breaks equality
        flipped = list(st2.generators)
        flipped[0] = -flipped[0]
        assert not group_equal(st, StabilizerState(4, tuple(flipped)))


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
        done, dropped = complete_to_stabilizer_state(subset)
        assert done.n == 5 and dropped == []
        for g in subset:
            assert stab_expectation(done, g) == 1
    # same-seed determinism
    ops = [P("+XXII"), P("+ZZII")]
    first, again = complete_to_stabilizer_state(ops)[0], complete_to_stabilizer_state(ops)[0]
    assert first.generators == again.generators


def test_complete_returns_the_strays_it_leaves_out():
    done, dropped = complete_to_stabilizer_state([P("+XX"), P("+YY"), P("+ZZ")])
    assert dropped == [(2, "sign")]
    assert done.generators[:2] == (P("+XX"), P("+YY"))
    done, dropped = complete_to_stabilizer_state([P("+XI"), P("+ZI")])
    assert dropped == [(1, "anticommutes")]
    assert stab_expectation(done, P("+XI")) == 1


def test_completion_of_full_set_is_identity_operation():
    rng = np.random.default_rng(27)
    st = random_stabilizer_state(4, rng)
    again, dropped = complete_to_stabilizer_state(st.generators)
    assert group_equal(st, again) and dropped == []



# --- the signed echelon against the solve-then-multiply reference -----------


def ordered_product(ops, mask, n):
    """The product, in order, of the ops that mask selects (bit j: ops[j])."""
    return functools.reduce(
        pauli_mul, [g for j, g in enumerate(ops) if (mask >> j) & 1], PauliOp.identity(n)
    )


def reference_expectation(state, op):
    """Solve for the generator combination, multiply it out, compare signs."""
    combo = gf2.solve(state.rows, op.row)
    if combo is None:
        return 0
    implied = ordered_product(state.generators, combo, state.n)
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


ECHELON_NS = [1, 2, 3, 4, 5, 6, 50, 64, 65, 128]


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
        canon = canonical_generators(st)
        assert [g.row for g in canon] == gf2.rref(st.rows)[0]
        assert all(reference_expectation(st, g) == 1 for g in canon)


@pytest.mark.parametrize("n", ECHELON_NS)
def test_draw_is_the_ordered_product_of_the_selected_generators(n):
    states_rng = np.random.default_rng(800 + n)
    rng, twin = np.random.default_rng(900 + n), np.random.default_rng(900 + n)
    for _ in range(5):
        st = random_stabilizer_state(n, states_rng)
        for _ in range(20):
            want = ordered_product(st.generators, _random_bits(twin, n), n)
            assert random_stabilizer_element(st, rng) == want
        assert rng.bit_generator.state == twin.bit_generator.state


def _signed(n, x, z, rng):
    return PauliOp(n, x, z, 2 * int(rng.integers(2)))


def _states_with_pivots_anywhere(n, rng):
    """States whose echelon pivots sit in the z half, the x half, or both."""
    yield StabilizerState(n, tuple(_signed(n, 0, 1 << j, rng) for j in range(n)))
    yield StabilizerState(n, tuple(_signed(n, 1 << j, 0, rng) for j in range(n)))
    z_only = [_signed(n, 0, _random_bits(rng, n) | 1 << j, rng) for j in range(0, n, 3)]
    yield complete_to_stabilizer_state(z_only)[0]
    # X on a random half of the qubits, Z on the rest, plus products of them.
    xs = _random_bits(rng, n)
    single = [_signed(n, 1 << j, 0, rng) if (xs >> j) & 1 else _signed(n, 0, 1 << j, rng)
              for j in range(0, n, 2)]
    mixed = single + [pauli_mul(a, b) for a, b in zip(single, single[1:])]
    yield complete_to_stabilizer_state(mixed)[0]


@pytest.mark.parametrize("n", [1, 5, 6, 7, 63, 64, 65, 128])
def test_stab_expectation_with_pivots_in_the_z_half_and_at_chunk_edges(n):
    rng = np.random.default_rng(1000 + n)
    for st in _states_with_pivots_anywhere(n, rng):
        cases = []
        for _ in range(10):
            g = ordered_product(st.generators, _random_bits(rng, n), n)
            cases += [g, -g, _signed(n, g.x ^ 1 << int(rng.integers(n)), g.z, rng)]
        cases += [random_pauli(n, rng) for _ in range(10)]
        wants = [reference_expectation(st, op) for op in cases]
        assert 1 in wants and -1 in wants and 0 in wants
        assert [stab_expectation(st, op) for op in cases] == wants


def test_query_and_draw_tables_are_built_only_on_first_use():
    rng = np.random.default_rng(1100)
    tables = {"_query_table", "_draw_table"}
    made = [random_stabilizer_state(50, rng) for _ in range(2)]
    made += [complete_to_stabilizer_state(made[0].generators[:20])[0] for _ in range(2)]
    assert all(not tables & set(vars(st)) for st in made)
    for queried, drawn in (made[:2], made[2:]):
        stab_expectation(queried, random_pauli(50, rng))
        random_stabilizer_element(drawn, rng)
        assert tables & set(vars(queried)) == {"_query_table"}
        assert tables & set(vars(drawn)) == {"_draw_table"}


# --- the incremental sampler and completion against the per-step solves ------


def _swap_halves(row, n):
    return (row >> n) | ((row & ((1 << n) - 1)) << n)


def reference_sampler(n, rng):
    """Generators drawn with a fresh null space and span solve per step."""
    gens, rows = [], []
    while len(gens) < n:
        basis = gf2.nullspace([_swap_halves(r, n) for r in rows], 2 * n)
        while True:
            mask = _random_bits(rng, len(basis))
            v = 0
            for j, b in enumerate(basis):
                if (mask >> j) & 1:
                    v ^= b
            if v and not gf2.in_rowspan(rows, v):
                break
        gens.append(PauliOp(n, v & ((1 << n) - 1), v >> n, 2 * _random_bits(rng, 1)))
        rows.append(v)
    return tuple(gens)


def reference_completion(ops):
    """The first null-space vector outside the span, from a fresh solve per step."""
    n = ops[0].n
    kept, _ = greedy_consistent_subset(ops)
    gens = [ops[k] for k in kept]
    rows = [g.row for g in gens]
    while len(gens) < n:
        for v in gf2.nullspace([_swap_halves(r, n) for r in rows], 2 * n):
            if not gf2.in_rowspan(rows, v):
                gens.append(PauliOp(n, v & ((1 << n) - 1), v >> n))
                rows.append(v)
                break
    return tuple(gens)


SAMPLER_NS = [1, 2, 3, 4, 5, 6, 7, 8, 50, 65]


@pytest.mark.parametrize("n", [1, 2, 6, 50])
def test_extension_vector_deposits_the_mask_on_the_free_columns(n):
    # Reference: bit j of the mask goes to the j-th non-pivot column, walked
    # bit by bit, then each RREF row with odd overlap sets its pivot.
    for seed in range(20):
        rng = np.random.default_rng(800 + seed)
        state = random_stabilizer_state(n, rng)
        t = int(rng.integers(0, n + 1))
        ext = _Extension(n, [g.row for g in state.generators[:t]])
        assert ext.pivots == sorted(p for p, _ in ext.rref)
        free = [c for c in range(2 * n) if c not in ext.pivots]
        for mask in (0, (1 << len(free)) - 1, _random_bits(rng, len(free))):
            chosen = sum(1 << free[j] for j in range(len(free)) if (mask >> j) & 1)
            want = chosen
            for p, r in ext.rref:
                if (r & chosen).bit_count() & 1:
                    want |= 1 << p
            assert ext.vector(mask) == want


@pytest.mark.parametrize("n", SAMPLER_NS)
def test_sampler_draws_what_per_step_solves_draw(n):
    rng, ref_rng = np.random.default_rng(600 + n), np.random.default_rng(600 + n)
    for _ in range(5 if n > 8 else 20):
        assert random_stabilizer_state(n, rng).generators == reference_sampler(n, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", SAMPLER_NS)
def test_completion_picks_what_per_step_solves_pick(n):
    rng = np.random.default_rng(700 + n)
    for size in sorted({1, (n + 1) // 2, n}) if n <= 8 else (1, 3):
        state = random_stabilizer_state(n, rng)
        ops = [random_stabilizer_element(state, rng) for _ in range(size)]
        assert complete_to_stabilizer_state(ops)[0].generators == reference_completion(ops)


@settings(deadline=None, max_examples=100)
@given(
    strategies.integers(1, 8),
    strategies.integers(0, 2**32 - 1),
    strategies.booleans(),
    strategies.booleans(),
)
def test_reduction_matches_solve_reference_property(n, seed, member, negate):
    rng = np.random.default_rng(seed)
    state = random_stabilizer_state(n, rng)
    op = random_stabilizer_element(state, rng) if member else random_pauli(n, rng)
    if negate:
        op = -op
    assert stab_expectation(state, op) == reference_expectation(state, op)


@settings(deadline=None, max_examples=100)
@given(strategies.integers(1, 8), strategies.integers(0, 2**32 - 1), strategies.data())
def test_canonical_generators_invariant_under_shuffles_and_products(n, seed, data):
    state = random_stabilizer_state(n, np.random.default_rng(seed))
    gens = data.draw(strategies.permutations(state.generators))
    if n >= 2:
        i, j = data.draw(strategies.lists(strategies.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        gens[i] = pauli_mul(gens[i], gens[j])
    other = StabilizerState(n, tuple(gens))
    assert canonical_generators(other) == canonical_generators(state)


# --- states built once: trusted construction, handed-over and shared tables --


def pairwise_cross_masks(rows, n):
    """Bit j of mask k set iff j > k and <z_k, x_j> is odd, one popcount per pair."""
    return [
        sum(1 << j for j in range(k + 1, len(rows)) if ((rk >> n) & rows[j]).bit_count() & 1)
        for k, rk in enumerate(rows)
    ]


@pytest.mark.parametrize("n", ECHELON_NS)
def test_cross_masks_are_the_pairwise_parities(n):
    rng = np.random.default_rng(1200 + n)
    for size in (1, n, 2 * n):
        rows = [_random_bits(rng, 2 * n) if rng.random() < 0.6 else 0 for _ in range(size)]
        assert _cross_masks(rows, n) == pairwise_cross_masks(rows, n)


def _table_fields(table):
    return table.key_bits, table.chunks, table.odd, table.twos


def _ops_filling_the_basis_early(n, rng):
    """A state's elements up front, then ops read after the kept set is full.

    The tail holds duplicates, sign flips, random (mostly anticommuting)
    Paulis and elements of a neighbouring state that shares half of the
    group's generators, so a stray that commutes may also be kept before
    the basis is full.
    """
    st = random_stabilizer_state(n, rng)
    half = list(st.generators[: (n + 1) // 2])
    neighbour = complete_to_stabilizer_state(half + [random_pauli(n, rng) for _ in range(n)])[0]
    head = [random_stabilizer_element(st, rng) for _ in range(n + 2)]
    head += [random_stabilizer_element(neighbour, rng) for _ in range(2)]
    rng.shuffle(head)
    tail = [random_stabilizer_element(st, rng) for _ in range(4)]
    tail += [head[int(rng.integers(len(head)))] for _ in range(4)]
    tail += [-random_stabilizer_element(st, rng) for _ in range(4)]
    tail += [random_stabilizer_element(neighbour, rng) for _ in range(4)]
    tail += [random_pauli(n, rng) for _ in range(4)]
    rng.shuffle(tail)
    return head + tail


@pytest.mark.parametrize("n", ECHELON_NS + [11, 12, 13])
def test_greedy_lookups_after_full_rank_match_the_walk(n):
    rng = np.random.default_rng(1300 + n)
    full = 0
    for _ in range(8):
        ops = _ops_filling_the_basis_early(n, rng)
        tables = []
        got = greedy_consistent_subset(ops, _tables=tables)
        assert got == reference_greedy(ops)
        assert got == greedy_consistent_subset(ops)
        full += bool(tables)
        if tables:
            assert len(got[0]) == n
            assert {reason for _, reason in got[1]} <= {"anticommutes", "sign"}
    assert full >= 6


@pytest.mark.parametrize("n", ECHELON_NS + [11, 12, 13])
def test_handed_over_and_shared_tables_equal_fresh_builds(n):
    rng = np.random.default_rng(1400 + n)
    secret = random_stabilizer_state(n, rng)
    ops = [random_stabilizer_element(secret, rng) for _ in range(2 * n + 8)]
    recovered, dropped = complete_to_stabilizer_state(ops)
    assert dropped == [] and group_equal(recovered, secret)
    handed = vars(recovered)["_query_table"]
    fresh = StabilizerState(n, recovered.generators)._query_table
    assert _table_fields(handed) == _table_fields(fresh)

    flipped = StabilizerState(n, (-secret.generators[0],) + secret.generators[1:])
    _share_query_table(recovered, flipped)
    assert "_query_table" not in vars(flipped)
    _share_query_table(recovered, secret)
    assert vars(secret)["_query_table"] is handed
    assert _table_fields(handed) == _table_fields(StabilizerState(n, secret.generators)._query_table)


@pytest.mark.parametrize("n", SAMPLER_NS)
def test_trusted_states_pass_the_public_constructor(n):
    rng = np.random.default_rng(1500 + n)
    for _ in range(3):
        st = random_stabilizer_state(n, rng)
        ops = [random_stabilizer_element(st, rng) for _ in range(n + 2)] + [random_pauli(n, rng)]
        for built in (st, complete_to_stabilizer_state(ops)[0],
                      complete_to_stabilizer_state(ops[: (n + 1) // 2])[0]):
            assert StabilizerState(built.n, built.generators).generators == built.generators


def test_completion_of_exactly_n_ops_builds_no_table():
    rng = np.random.default_rng(1600)
    st = random_stabilizer_state(50, rng)
    done, dropped = complete_to_stabilizer_state(st.generators)
    assert dropped == [] and "_query_table" not in vars(done)
    longer, _ = complete_to_stabilizer_state(st.generators + (st.generators[0],))
    assert "_query_table" in vars(longer)
