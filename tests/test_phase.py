"""Register Hamiltonians, phase-estimation kernel, low-epsilon forging."""

import math
import warnings

import numpy as np
import pytest

from qmoney import (
    DenseMixedRegister,
    PauliOp,
    PhaseEstimationParams,
    SchemeParams,
    SoundnessWarning,
    accept_window,
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
from qmoney.phase import generate_rho_with_record


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
    f, g = register_fractions(ham, 1)
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
        f, g = register_fractions(register_hamiltonian(ops), 64)
        fs.append(f)
        gs.append(g)
    mean_f, mean_g = np.mean(fs), np.mean(gs)
    assert mean_f > 0.5  # most eigenvalues clear 1/(2 sqrt m)
    assert abs(mean_g - mean_f / 2) < 0.05


def test_pe_params():
    pe = PhaseEstimationParams(4, 1 / 8)
    assert pe.q == 9  # 4 + ceil(log2(18))
    with pytest.raises(ValueError):
        PhaseEstimationParams(0, 0.5)
    with pytest.raises(ValueError):
        PhaseEstimationParams(4, 0.0)
    auto = PhaseEstimationParams.defaults_for(64)
    assert auto.r == math.ceil(math.log2(20 * 64))
    assert auto.delta == 1 / 64**3


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
    pe = PhaseEstimationParams(4, 1 / 8)
    rng = np.random.default_rng(55)
    n_samp = 30000
    for phi in (0.3777, 0.031):
        d = pe_distribution(phi, pe.q)
        counts = np.bincount(
            [pe_sample(phi, pe, rng) for _ in range(n_samp)], minlength=1 << pe.q
        )
        emp = counts / n_samp
        # total variation between empirical and exact shrinks as 1/sqrt(n)
        assert 0.5 * np.abs(emp - d).sum() < 0.02


def test_pe_sample_exact_phase_is_deterministic():
    pe = PhaseEstimationParams(4, 1 / 8)
    rng = np.random.default_rng(56)
    for k in (0, 7, 100, 511):
        phi = k / 512
        assert all(pe_sample(phi, pe, rng) == k for _ in range(20))


def test_pe_tail_bound():
    # Pr(|phi - z/2^q| > 2^-r) <= delta, circular distance
    pe = PhaseEstimationParams(4, 1 / 8)
    size = 1 << pe.q
    rng = np.random.default_rng(57)
    for phi in [0.123, 0.499, 0.75, float(rng.random())]:
        z = np.array([pe_sample(phi, pe, rng) for _ in range(4000)])
        err = np.abs(z / size - phi)
        err = np.minimum(err, 1 - err)
        assert (err > 2.0**-pe.r).mean() <= 1 / 8


def test_window_probability_matches_direct_sum():
    pe = PhaseEstimationParams(4, 1 / 8)
    size = 1 << pe.q
    lo, hi = accept_window(64)
    zlo, zhi = math.ceil(lo * size), math.floor(hi * size)
    rng = np.random.default_rng(58)
    for phi in [0.0, 0.01, 0.2, 0.5, 0.9, float(rng.random())]:
        direct = float(pe_distribution(phi, pe.q)[zlo : zhi + 1].sum())
        assert abs(window_probability(phi, pe, lo, hi) - direct) < 1e-9


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
    reg, rec = generate_rho_with_record(ham, 64, mode="analysis")
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
    _, analysis = generate_rho_with_record(ham, 64, mode="analysis")
    traces = []
    for _ in range(60):
        reg, rec = generate_rho_with_record(ham, 64, rng, mode="sample")
        assert rec.fully_mixed in (0.0, 1.0)
        assert abs(register_expectation(reg, PauliOp.identity(6)) - 1.0) < 1e-12
        traces.append(rec.trace_h_rho)
    # sampled Tr[H rho] scatters around the analysis-mode mean
    assert abs(np.mean(traces) - analysis.trace_h_rho) < 0.1


def test_analysis_trace_beats_quarter_bound():
    rng = np.random.default_rng(61)
    good = 0
    for _ in range(50):
        ops = random_duplicate_free_ops(rng, 6, 64)
        ham = register_hamiltonian(ops)
        _, rec = generate_rho_with_record(ham, 64, mode="analysis")
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
    with pytest.raises(ValueError):
        forge_low_eps_with_records(scheme, np.random.default_rng(0))


def test_forge_low_eps_small_scheme_end_to_end():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        secret, scheme = gen_scheme(
            SchemeParams(5, 16, 96, 1 / 64), np.random.default_rng(63)
        )
    rng = np.random.default_rng(64)
    money, recs = forge_low_eps_with_records(scheme, rng)
    assert len(recs) == 96
    accs = [verify(scheme, money, rng).accepted for _ in range(40)]
    assert np.mean(accs) >= 0.6  # threshold is eps/2 = 1/128, q sits far above
    # analysis mode mean p1 comfortably above the 1/2 + 1/(8 sqrt m) bar
    _, recs_a = forge_low_eps_with_records(scheme, mode="analysis")
    p1 = np.mean([(1 + r.trace_h_rho) / 2 for r in recs_a])
    assert p1 >= 0.5 + 1 / (8 * math.sqrt(16)) - 0.01
