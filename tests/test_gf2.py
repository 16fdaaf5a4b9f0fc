"""GF(2) row operations against brute-force subset enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmoney import gf2


def brute_rank(rows):
    # rank = log2 of the span size
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return len(span).bit_length() - 1


def brute_solve(rows, target):
    for mask in range(1 << len(rows)):
        acc = 0
        m = mask
        for i, r in enumerate(rows):
            if (m >> i) & 1:
                acc ^= r
        if acc == target:
            return mask
    return None


def random_rows(rng, count, width):
    return [int(rng.integers(0, 1 << width)) for _ in range(count)]


def test_rank_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rows = random_rows(rng, int(rng.integers(0, 9)), 6)
        assert gf2.rank(rows) == brute_rank(rows)


def test_solve_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(150):
        rows = random_rows(rng, int(rng.integers(1, 8)), 5)
        target = int(rng.integers(0, 32))
        mask = gf2.solve(rows, target)
        brute = brute_solve(rows, target)
        if brute is None:
            assert mask is None
        else:
            assert mask is not None
            acc = 0
            for i, r in enumerate(rows):
                if (mask >> i) & 1:
                    acc ^= r
            assert acc == target


def test_in_rowspan():
    rows = [0b1010, 0b0110]
    assert gf2.in_rowspan(rows, 0b1100)  # xor of both
    assert gf2.in_rowspan(rows, 0)
    assert not gf2.in_rowspan(rows, 0b0001)


def test_rref_canonical_under_row_scrambling():
    rng = np.random.default_rng(2)
    for _ in range(60):
        rows = random_rows(rng, 6, 8)
        reduced, pivots = gf2.rref(rows)
        # scramble: permute and xor random pairs, same rowspan
        mixed = list(rows)
        for _ in range(10):
            i, j = rng.integers(0, len(mixed), size=2)
            if i != j:
                mixed[int(i)] ^= mixed[int(j)]
        rng.shuffle(mixed)
        reduced2, pivots2 = gf2.rref(mixed)
        assert reduced == reduced2
        assert pivots == pivots2
        # unit pivot columns, ascending pivots
        assert list(pivots) == sorted(pivots)
        for r, p in zip(reduced, pivots):
            assert (r >> p) & 1
            for other in reduced:
                if other is not r:
                    assert not (other >> p) & 1


def test_nullspace_is_the_full_kernel():
    rng = np.random.default_rng(3)
    for _ in range(60):
        width = 7
        rows = random_rows(rng, int(rng.integers(0, 6)), width)
        basis = gf2.nullspace(rows, width)
        assert len(basis) == width - gf2.rank(rows)
        # every basis vector is orthogonal to every row (as a parity form)
        for v in basis:
            for r in rows:
                assert bin(v & r).count("1") % 2 == 0
        assert gf2.rank(basis) == len(basis)


def test_nullspace_empty_rows():
    basis = gf2.nullspace([], 4)
    assert len(basis) == 4
    assert gf2.rank(basis) == 4


def test_solve_rejects_out_of_span():
    assert gf2.solve([0b01, 0b10], 0b100) is None


row_sets = st.integers(1, 12).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(st.integers(0, (1 << width) - 1), max_size=8),
        st.integers(0, (1 << width) - 1),
        st.integers(0, 255),
    )
)


def combine(rows, mask):
    acc = 0
    for i, r in enumerate(rows):
        if (mask >> i) & 1:
            acc ^= r
    return acc


@settings(deadline=None, max_examples=150)
@given(row_sets)
def test_solve_round_trip_property(case):
    width, rows, target, mask = case
    # a combination of the rows solves back to a combination that builds it
    built = combine(rows, mask)
    assert combine(rows, gf2.solve(rows, built)) == built
    combo = gf2.solve(rows, target)
    if combo is None:
        assert brute_solve(rows, target) is None
    else:
        assert combine(rows, combo) == target


@settings(deadline=None, max_examples=150)
@given(row_sets)
def test_nullspace_round_trip_property(case):
    width, rows, _, _ = case
    basis = gf2.nullspace(rows, width)
    assert len(basis) == width - gf2.rank(rows)
    assert all((v & r).bit_count() % 2 == 0 for v in basis for r in rows)
    # the kernel's kernel is the row span again
    assert gf2.rref(gf2.nullspace(basis, width))[0] == gf2.rref(rows)[0]
