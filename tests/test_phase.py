"""Register Hamiltonians, phase-estimation kernel, low-epsilon forging."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import polygamma, zeta

from qmoney import (
    DenseMixedRegister,
    PauliOp,
    SchemeParams,
    SoundnessWarning,
    accept_window,
    ancilla_qubits,
    dense_matrix,
    eigenvalue_phases,
    forge_low_eps_with_records,
    gen_scheme,
    moments,
    pe_distribution,
    pe_sample,
    random_pauli,
    register_expectation,
    register_fractions,
    register_hamiltonian,
    verify,
    window_probability,
)
import qmoney.phase as phase_module
from qmoney.phase import (
    _WALK_CAP,
    RegisterHamiltonian,
    _scatter_ops,
    _tail_offset,
    generate_rho_with_record,
)


def random_duplicate_free_ops(rng, n, m):
    ops, seen = [], set()
    while len(ops) < m:
        op = random_pauli(n, rng, allow_identity=False)
        if (op.x, op.z) not in seen:
            seen.add((op.x, op.z))
            ops.append(op)
    return ops


def test_cancelling_pair_gives_zero_hamiltonian():
    ops = [PauliOp.from_string("+Z"), PauliOp.from_string("-Z")]
    ham = register_hamiltonian(ops)
    assert np.allclose(ham.h_matrix, 0)
    assert np.allclose(ham.eigenvalues, 0)


def test_single_z_register():
    ham = register_hamiltonian([PauliOp.from_string("+Z")])
    assert np.allclose(sorted(ham.eigenvalues), [-1.0, 1.0])
    assert np.allclose(ham.h_matrix, np.diag([1.0, -1.0]))
    f, g = register_fractions(ham)
    assert f == 1.0 and g == 0.5


def test_hamiltonian_matches_dense_average():
    rng = np.random.default_rng(50)
    for _ in range(10):
        ops = [random_pauli(4, rng) for _ in range(12)]
        ops = [op if op.is_hermitian else -op if (op * op).phase else op for op in ops]
        ops = [PauliOp(op.n, op.x, op.z, op.phase & 2) for op in ops]
        ham = register_hamiltonian(ops)
        want = sum(dense_matrix(op) for op in ops) / len(ops)
        assert np.allclose(ham.h_matrix, want, atol=1e-12)
        # eigendecomposition reconstructs H
        rebuilt = (ham.eigenvectors * ham.eigenvalues) @ ham.eigenvectors.conj().T
        assert np.allclose(rebuilt, want, atol=1e-10)


def per_op_hamiltonian_matrix(ops):
    """H by one fancy-index scatter per operator: the bit-level oracle for H."""
    n = ops[0].n
    idx = np.arange(1 << n, dtype=np.uint64)
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for op in ops:
        coeff = 1j ** ((op.phase + (op.x & op.z).bit_count()) % 4)
        signs = 1 - 2 * (np.bitwise_count(idx & np.uint64(op.z)).astype(np.int8) & 1)
        h[idx ^ np.uint64(op.x), idx] += coeff * signs
    h /= len(ops)
    return h


def test_hamiltonian_is_bitwise_the_per_op_loop():
    rng = np.random.default_rng(49)
    for trial in range(200):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 80))
        ops = [random_pauli(n, rng) for _ in range(m)]
        ops = [PauliOp(n, op.x, op.z, op.phase & 2) for op in ops]  # Hermitian signs
        if trial % 3 == 0:  # cancelling pairs and repeats: zero and doubled entries
            ops += [-op for op in ops[: m // 2]] + ops[: m // 3]
        want = per_op_hamiltonian_matrix(ops)
        ham = register_hamiltonian(ops)
        assert ham.h_matrix.tobytes() == want.tobytes()  # signed zeros included
        eigenvalues, eigenvectors = np.linalg.eigh(want)
        assert ham.eigenvalues.tobytes() == eigenvalues.tobytes()
        assert ham.eigenvectors.tobytes() == eigenvectors.tobytes()


@pytest.mark.parametrize("entries", [1, 100, 1 << 10])
def test_hamiltonian_scattered_in_blocks_is_bitwise_one_block(entries, monkeypatch):
    # 1 entry per block scatters one operator at a time; 100 and 1024 give
    # blocks that do not divide m.
    rng = np.random.default_rng(56)
    tables = []
    for n, m in ((1, 5), (3, 40), (5, 97), (6, 64), (7, 150)):
        ops = [random_pauli(n, rng) for _ in range(m)]
        tables.append(ops + [-op for op in ops[: m // 2]] + ops[: m // 3])
    want = [register_hamiltonian(ops) for ops in tables]
    want_h = [ham.h_matrix for ham in want]  # h_matrix is lazy: read it before the patch
    monkeypatch.setattr(phase_module, "_SCATTER_ENTRIES", entries)
    for ops, ham, h in zip(tables, want, want_h):
        got = register_hamiltonian(ops)
        assert got.h_matrix.tobytes() == h.tobytes()
        assert got.h_matrix.tobytes() == per_op_hamiltonian_matrix(ops).tobytes()
        assert got.eigenvalues.tobytes() == ham.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == ham.eigenvectors.tobytes()


def test_hamiltonian_scatter_temporaries_do_not_grow_with_m():
    # n=8: 1,024 operators per block.  Scattering them in one block would add
    # about 6 MiB of index temporaries per 1,000 operators.
    rng = np.random.default_rng(57)
    ops = [random_pauli(8, rng) for _ in range(4096)]
    peaks = []
    for m in (1024, 4096):
        tracemalloc.start()
        _scatter_ops(ops[:m], 8)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_hamiltonian_keeps_its_eigenpairs_not_h():
    # n=9, m=200: H and the eigenvectors are 4 MiB each.  The parent kept
    # both (8.0 MiB) and peaked at 20.0 MiB with full-size check temporaries.
    rng = np.random.default_rng(61)
    ops = [random_pauli(9, rng) for _ in range(200)]
    ops = tuple(PauliOp(9, op.x, op.z, op.phase & 2) for op in ops)
    tracemalloc.start()
    try:
        ham = register_hamiltonian(ops)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 4.5 * 2**20 and peak <= 10 * 2**20, (kept, peak)
    assert "h_matrix" not in vars(ham)
    assert ham.ops is ops  # the table's own tuple, not a copy
    assert ham.h_matrix.tobytes() == per_op_hamiltonian_matrix(ops).tobytes()
    assert ham.h_matrix is ham.h_matrix and not ham.h_matrix.flags.writeable


@pytest.mark.parametrize("entries", [1, 1 << 10, 1 << 14])
def test_hamiltonian_checks_catch_a_fault_in_any_row_block(entries, monkeypatch):
    # at n=6: 16 blocks of 4 rows (the 2**n / 16 floor), 4 blocks of 16 rows, one block
    monkeypatch.setattr(phase_module, "_CHECK_ENTRIES", entries)
    rng = np.random.default_rng(62)
    ops = [random_pauli(6, rng) for _ in range(64)]
    ops = [PauliOp(6, op.x, op.z, op.phase & 2) for op in ops]
    register_hamiltonian(ops)
    exact = phase_module._hamiltonian_matrix
    eigh = np.linalg.eigh
    for row in (0, 37, 63):
        def skewed(ops, n, row=row):
            h = exact(ops, n)
            h[row, (row + 5) % 64] += 1e-9
            return h

        monkeypatch.setattr(phase_module, "_hamiltonian_matrix", skewed)
        with pytest.raises(ArithmeticError, match="Hermiticity"):
            register_hamiltonian(ops)
        monkeypatch.setattr(phase_module, "_hamiltonian_matrix", exact)

        def moved(h, row=row):
            w, v = eigh(h)
            h[row, row] += 1e-7  # after the solve: only this row disagrees with V diag(w) V^dagger
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", moved)
        with pytest.raises(ArithmeticError, match="reconstruction"):
            register_hamiltonian(ops)

        def stretched(h, row=row):
            w, v = eigh(h)
            v[:, row] *= 1 + 1e-8
            return w, v

        # H = 0: every eigenvalue is 0, so a stretched eigenvector still
        # reconstructs H and only the norm check sees it
        monkeypatch.setattr(np.linalg, "eigh", stretched)
        with pytest.raises(ArithmeticError, match="unit norm"):
            register_hamiltonian(ops[:32] + [-op for op in ops[:32]])
        monkeypatch.setattr(np.linalg, "eigh", eigh)


def test_forged_registers_are_not_validated_again(monkeypatch):
    rng = np.random.default_rng(63)
    ham = register_hamiltonian(random_duplicate_free_ops(rng, 6, 64))
    calls = []
    original = DenseMixedRegister.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(DenseMixedRegister, "__post_init__", counted)
    regs = [generate_rho_with_record(ham, mode="analysis")[0]]
    regs += [generate_rho_with_record(ham, rng, mode="sample")[0] for _ in range(20)]
    monkeypatch.setattr(phase_module, "pe_sample", lambda phi, q, rng: 0)  # never accepted
    fallback, rec = generate_rho_with_record(ham, rng, mode="sample")
    assert rec.fully_mixed == 1.0
    assert calls == []
    for reg in regs + [fallback]:
        assert not reg.weights.flags.writeable and not reg.vectors.flags.writeable
        DenseMixedRegister(reg.weights, reg.vectors)  # the public checks pass them
    assert len(calls) == len(regs) + 1


def test_moment_identities_exact():
    rng = np.random.default_rng(51)
    for _ in range(20):
        ops = random_duplicate_free_ops(rng, 6, 64)
        mu1, mu2 = moments(register_hamiltonian(ops))
        assert mu1 == 0.0
        assert abs(mu2 - 1 / 64) < 1e-15


def test_moments_detect_duplicates():
    rng = np.random.default_rng(52)
    ops = random_duplicate_free_ops(rng, 6, 32)
    dup = ops + [ops[0]] * 32
    _, mu2 = moments(register_hamiltonian(dup))
    assert mu2 > 1 / 64 + 1e-6  # repeated entry inflates the second moment


def test_fraction_bound_g_tracks_half_f():
    # positive-side mass is about half the total mass above threshold
    rng = np.random.default_rng(53)
    fs, gs = [], []
    for _ in range(100):
        ops = random_duplicate_free_ops(rng, 6, 64)
        f, g = register_fractions(register_hamiltonian(ops))
        fs.append(f)
        gs.append(g)
    mean_f, mean_g = np.mean(fs), np.mean(gs)
    assert mean_f > 0.5  # most eigenvalues clear 1/(2 sqrt m)
    assert abs(mean_g - mean_f / 2) < 0.05


def default_q(m):
    """The accept loop's q, spelled out apart from phase: r = ceil(log2(20m)), delta = 1/m**3."""
    r, delta = math.ceil(math.log2(20 * m)), 1.0 / m**3
    return r + math.ceil(math.log2(2 + 2 / delta))


def test_pe_params():
    assert ancilla_qubits(4, 1 / 8) == 9  # 4 + ceil(log2(18))
    with pytest.raises(ValueError):
        ancilla_qubits(0, 0.5)
    with pytest.raises(ValueError):
        ancilla_qubits(4, 0.0)
    with pytest.raises(ValueError):
        ancilla_qubits(4, 1.0)


def test_accept_loop_is_fixed_by_the_table_size():
    for m in range(8, 4097):
        ham = RegisterHamiltonian(1, m, (), np.array([-0.5, 0.25]), np.eye(2))
        q, lo, hi, phases = ham._accept_loop
        assert q == default_q(m), m
        assert (lo, hi) == accept_window(m)
        assert phases == [0.875, 0.0625]
        assert ham._accept_loop is ham._accept_loop  # computed once
    assert register_hamiltonian(random_duplicate_free_ops(np.random.default_rng(5), 4, 12)).m == 12


def test_pe_distribution_normalized_and_delta_case():
    rng = np.random.default_rng(54)
    for q in (3, 6, 9, 12):
        for phi in [0.0, 0.125, 1 / 3, float(rng.random()), 0.999]:
            d = pe_distribution(phi, q)
            assert len(d) == 1 << q
            assert abs(d.sum() - 1.0) < 1e-10
            assert (d >= -1e-15).all()
    # integer multiple of 2^-q: the distribution is a point mass
    d = pe_distribution(5 / 16, 4)
    assert d[5] == 1.0
    assert d.sum() == 1.0


def test_pe_sample_matches_kernel():
    q = 9
    rng = np.random.default_rng(55)
    n_samp = 30000
    for phi in (0.3777, 0.031):
        d = pe_distribution(phi, q)
        counts = np.bincount(
            [pe_sample(phi, q, rng) for _ in range(n_samp)], minlength=1 << q
        )
        emp = counts / n_samp
        # total variation between empirical and exact shrinks as 1/sqrt(n)
        assert 0.5 * np.abs(emp - d).sum() < 0.02


def test_pe_sample_exact_phase_is_deterministic():
    rng = np.random.default_rng(56)
    for k in (0, 7, 100, 511):
        phi = k / 512
        assert all(pe_sample(phi, 9, rng) == k for _ in range(20))


def test_pe_tail_bound():
    # Pr(|phi - z/2^q| > 2^-r) <= delta, circular distance
    r, delta = 4, 1 / 8
    q = ancilla_qubits(r, delta)
    size = 1 << q
    rng = np.random.default_rng(57)
    for phi in [0.123, 0.499, 0.75, float(rng.random())]:
        z = np.array([pe_sample(phi, q, rng) for _ in range(4000)])
        err = np.abs(z / size - phi)
        err = np.minimum(err, 1 - err)
        assert (err > 2.0**-r).mean() <= delta


def test_window_probability_matches_direct_sum():
    q = 9
    size = 1 << q
    lo, hi = accept_window(64)
    zlo, zhi = math.ceil(lo * size), math.floor(hi * size)
    rng = np.random.default_rng(58)
    for phi in [0.0, 0.01, 0.2, 0.5, 0.9, float(rng.random())]:
        direct = float(pe_distribution(phi, q)[zlo : zhi + 1].sum())
        assert abs(window_probability(phi, q, lo, hi) - direct) < 1e-9


def _masked_inv_square_window(alphas, lo_z, hi_z):
    """The image sum with a mask per side over all images, polygamma per mask."""
    total = 0.0
    floors = np.floor(alphas).astype(np.int64)
    below_hi = np.minimum(hi_z, floors)
    sel = below_hi >= lo_z
    if np.any(sel):
        al, bh = alphas[sel], below_hi[sel]
        total += float(np.sum(polygamma(1, al - bh) - polygamma(1, al - lo_z + 1)))
    above_lo = np.maximum(lo_z, floors + 1)
    sel = above_lo <= hi_z
    if np.any(sel):
        al, alz = alphas[sel], above_lo[sel]
        total += float(np.sum(polygamma(1, alz - al) - polygamma(1, hi_z - al + 1)))
    return total


def masked_window_probability(phi, q, lo, hi):
    """window_probability by the masked image sum: the window kernel's bit-level oracle."""
    size = 1 << q
    lo_z = max(0, math.ceil(lo * size))
    hi_z = min(size - 1, math.floor(hi * size))
    if hi_z < lo_z:
        return 0.0
    a = phi * size
    theta = a - math.floor(a)
    if theta == 0.0:
        return float(lo_z <= int(a) % size <= hi_z)
    n_images = max(8, math.ceil(2e10 / size))
    alphas = a + size * np.arange(-n_images, n_images + 1, dtype=float)
    total = _masked_inv_square_window(alphas, lo_z, hi_z)
    prob = math.sin(math.pi * theta) ** 2 / math.pi**2 * total
    return float(min(1.0, max(0.0, prob)))


def window_phases(q, lo, hi, rng, count):
    """Random phases, phases near the window's edges and near 0 and 1, and the edges.

    Eigenvalues that are zero up to rounding give phases within a few
    outcomes of 0 or 1; there, hi_z - alpha + 1 rounds twice, so its
    association shows in the bits.
    """
    size = 1 << q
    lo_z, hi_z = math.ceil(lo * size), math.floor(hi * size)
    edges = [0.0, 0.5, 0.75, lo, hi, 1e-16, 1.0 - 2.0**-53, 1.0]
    for z in (lo_z, hi_z):
        edges += [(z + off) / size for off in (-1, -0.5, -1e-3, 0, 1e-3, 0.5, 1)]
    near_lo = lo + (rng.random(count // 4) - 0.5) * 64 / size
    near_zero = rng.random(count // 4) * 4 / size
    near_one = 1.0 - rng.random(count // 4) * 4 / size
    return [float(p) for p in (*rng.random(count), *near_lo, *near_zero, *near_one, *edges)]


@pytest.mark.parametrize("q, m", [(27, 40), (31, 64), (40, 64)])
def test_window_probability_is_bitwise_the_masked_image_sum(q, m):
    assert q in (default_q(m), 40)  # the accept loop's q at m, and one beyond it
    lo, hi = accept_window(m)
    rng = np.random.default_rng(q)
    for phi in window_phases(q, lo, hi, rng, 2000):
        want = masked_window_probability(phi, q, lo, hi)
        got = window_probability(phi, q, lo, hi)
        assert got == want and math.copysign(1, got) == math.copysign(1, want), phi


def test_trigamma_is_zeta_of_two_bit_for_bit():
    x = np.concatenate([np.random.default_rng(3).random(5000) * 50, 2.0 ** np.arange(-20, 45)])
    assert zeta(2, x).tobytes() == polygamma(1, x).tobytes()


def test_window_probability_image_sum_matches_direct_sum():
    # q = 19: 2**19 outcomes, K = 38,147 images, and the window holds more
    # outcomes than the 2K+1 image terms, so the trigamma image sum runs.
    q = 19
    size = 1 << q
    lo, hi = accept_window(64)
    zlo, zhi = math.ceil(lo * size), math.floor(hi * size)
    assert zhi - zlo + 1 > 2 * math.ceil(2e10 / size) + 1
    rng = np.random.default_rng(65)
    for phi in [0.01, lo, 0.2, 0.5, 0.9, float(rng.random())]:
        direct = float(pe_distribution(phi, q)[zlo : zhi + 1].sum())
        assert abs(window_probability(phi, q, lo, hi) - direct) < 1e-9


def test_window_probability_rejects_phases_outside_the_unit_interval():
    lo, hi = accept_window(64)
    for phi in (-1e-9, 1.0 + 1e-9, 1.5):
        with pytest.raises(ValueError):
            window_probability(phi, default_q(64), lo, hi)


def walk_pe_sample(phi, q, rng):
    """The offset walk with a fallback at its cap: the oracle for draws inside the walk."""
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
    for step in range(_WALK_CAP + 1):
        d = (step + 1) // 2 if step % 2 else -(step // 2)
        acc += scale / (theta - d) ** 2
        if acc > u:
            break
    return (z0 + d) % size


def test_pe_sample_draws_inside_the_walk_are_unchanged():
    q = default_q(64)
    phases = np.random.default_rng(66).random(40)
    ours, walk = np.random.default_rng(67), np.random.default_rng(67)
    for phi in phases:
        for _ in range(250):
            assert pe_sample(float(phi), q, ours) == walk_pe_sample(float(phi), q, walk)
    assert ours.random() == walk.random()  # one uniform per draw on both sides


class FixedUniform:
    """An rng stub whose random() returns u, counting the calls."""

    def __init__(self, u):
        self.u, self.calls = u, 0

    def random(self):
        self.calls += 1
        return self.u


def test_tail_offset_inverts_the_trigamma_tail():
    limit = _WALK_CAP // 2
    for theta in (0.5, 1e-3, 0.3, 0.999):
        scale = math.sin(math.pi * theta) ** 2 / math.pi**2

        def beyond(t, sign):  # mass of the offsets past sign * t
            return scale * zeta(2, t + 1 - sign * theta)

        negative, positive = beyond(limit, -1), beyond(limit, 1)
        for v in [negative * 0.999, negative * 0.3, negative * 1e-6, 2.0**-53,
                  negative + positive * 0.999, negative + positive * 0.4,
                  negative + positive * 1e-5, negative * (1 + 2.0**-50)]:
            d = _tail_offset(v, theta, scale)
            sign, t = (1 if d > 0 else -1), abs(d)
            w = v if sign < 0 else v - negative
            assert (sign < 0) == (v <= negative)
            assert t > limit  # t reaches about 1e19 for the last v, past float spacing 1
            # d is the offset whose slot of the CDF holds v
            assert beyond(t, sign) < w <= beyond(t - 1, sign), (theta, v, d)


def test_pe_sample_tail_draw_is_never_the_old_fallback():
    limit = _WALK_CAP // 2
    # the one tail draw of the golden low-eps-attack-sample run (q = 27), and q = 40
    for q, phi, u in [
        (default_q(32), 0.06884742944039841, 0.9999829671057262),
        (40, 0.123456789, 1.0 - 1e-9),
        (40, 0.7123, 1.0 - 3e-7),
    ]:
        size = 1 << q
        a = phi * size
        z0, theta = math.floor(a), a - math.floor(a)
        scale = math.sin(math.pi * theta) ** 2 / math.pi**2
        rng = FixedUniform(u)
        z = pe_sample(phi, q, rng)
        assert rng.calls == 1  # no extra draw for the tail
        assert z != (z0 - limit) % size
        d = (z - z0 + size // 2) % size - size // 2
        assert abs(d) > limit and d == _tail_offset(1.0 - u, theta, scale)
    lo, hi = accept_window(32)
    golden = pe_sample(0.06884742944039841, default_q(32), FixedUniform(0.9999829671057262))
    assert lo <= golden / 2**27 <= hi  # in the window, as the fallback was


def test_accept_window_requires_m_at_least_8():
    lo, hi = accept_window(64)
    assert hi == 0.5
    assert abs(lo - (1 / 64 - 1 / 1280)) < 1e-15
    with pytest.raises(ValueError):
        accept_window(7)


def test_eigenvalue_phases_wrap_negatives():
    lam = np.array([1.0, 0.5, 0.0, -0.5, -1.0])
    phases = eigenvalue_phases(lam)
    assert np.allclose(phases, [0.25, 0.125, 0.0, 0.875, 0.75])
    assert ((phases >= 0) & (phases < 1)).all()


def test_generate_rho_analysis_weights():
    rng = np.random.default_rng(59)
    ops = random_duplicate_free_ops(rng, 6, 64)
    ham = register_hamiltonian(ops)
    reg, rec = generate_rho_with_record(ham, mode="analysis")
    assert isinstance(reg, DenseMixedRegister)
    assert abs(sum(reg.weights) - 1.0) < 1e-9
    assert (np.asarray(reg.weights) >= -1e-12).all()
    assert rec.exit_iteration >= 1.0
    # trace of H rho must match a direct computation from the register
    direct = sum(
        w * float(np.real(v.conj() @ ham.h_matrix @ v))
        for w, v in zip(reg.weights, reg.vectors)
    )
    assert abs(rec.trace_h_rho - direct) < 1e-9


def test_generate_rho_sample_mode_statistics():
    rng = np.random.default_rng(60)
    ops = random_duplicate_free_ops(rng, 6, 64)
    ham = register_hamiltonian(ops)
    _, analysis = generate_rho_with_record(ham, mode="analysis")
    traces = []
    for _ in range(60):
        reg, rec = generate_rho_with_record(ham, rng, mode="sample")
        assert rec.fully_mixed in (0.0, 1.0)
        assert abs(register_expectation(reg, PauliOp.identity(6)) - 1.0) < 1e-12
        traces.append(rec.trace_h_rho)
    # sampled Tr[H rho] scatters around the analysis-mode mean
    assert abs(np.mean(traces) - analysis.trace_h_rho) < 0.1


def test_forged_registers_view_the_hamiltonians_eigenbasis(monkeypatch):
    ham = register_hamiltonian(random_duplicate_free_ops(np.random.default_rng(59), 6, 64))
    analysis, _ = generate_rho_with_record(ham, mode="analysis")
    accepted, rec = generate_rho_with_record(ham, np.random.default_rng(1), mode="sample")
    assert rec.fully_mixed == 0.0
    # phase 0 lies below the accept window, so every draw misses it
    monkeypatch.setattr(phase_module, "pe_sample", lambda phase, q, rng: 0)
    fallback, rec = generate_rho_with_record(ham, np.random.default_rng(1), mode="sample")
    assert rec.fully_mixed == 1.0
    for reg in (analysis, accepted, fallback):
        assert np.shares_memory(reg.vectors, ham.eigenvectors)
        assert not reg.vectors.flags.writeable
    np.testing.assert_array_equal(analysis.vectors, ham.eigenvectors.T)
    np.testing.assert_array_equal(fallback.vectors, ham.eigenvectors.T)
    assert (ham.eigenvectors.T == accepted.vectors[0]).all(axis=1).sum() == 1


def test_analysis_trace_beats_quarter_bound():
    rng = np.random.default_rng(61)
    good = 0
    for _ in range(50):
        ops = random_duplicate_free_ops(rng, 6, 64)
        ham = register_hamiltonian(ops)
        _, rec = generate_rho_with_record(ham, mode="analysis")
        if rec.trace_h_rho >= 1 / (4 * math.sqrt(64)) - 0.01:
            good += 1
    assert good >= 45, good


def test_register_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        register_hamiltonian([PauliOp.from_string("+iZ")])


def test_forge_low_eps_requires_m_at_least_8():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        _, scheme = gen_scheme(SchemeParams(3, 4, 2, 0.25), np.random.default_rng(62))
    hams = [register_hamiltonian(ops) for ops in scheme.table]
    with pytest.raises(ValueError):
        forge_low_eps_with_records(hams, np.random.default_rng(0))


def test_forge_low_eps_small_scheme_end_to_end():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        secret, scheme = gen_scheme(
            SchemeParams(5, 16, 96, 1 / 64), np.random.default_rng(63)
        )
    hams = [register_hamiltonian(ops) for ops in scheme.table]
    rng = np.random.default_rng(64)
    money, recs = forge_low_eps_with_records(hams, rng)
    assert len(recs) == 96
    accs = [verify(scheme, money, rng).accepted for _ in range(40)]
    assert np.mean(accs) >= 0.6  # threshold is eps/2 = 1/128, q sits far above
    # analysis mode mean p1 comfortably above the 1/2 + 1/(8 sqrt m) bar
    _, recs_a = forge_low_eps_with_records(hams, mode="analysis")
    p1 = np.mean([(1 + r.trace_h_rho) / 2 for r in recs_a])
    assert p1 >= 0.5 + 1 / (8 * math.sqrt(16)) - 0.01
