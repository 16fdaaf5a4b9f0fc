"""Acceptance suite: ten end-to-end checks with pinned tolerances.

Each check prints exactly one line, "criterion NN PASS/FAIL: detail",
then asserts.  Criteria mix exact identities (1, 3, 9), oracle
equivalences (4, 6), and seeded statistical reproductions at desk scale
(2, 5, 7, 8, 10).  Runtime limits are asserted where stated.
"""

import math
import time
import warnings

import numpy as np

from qmoney import (
    MeasurementGraph,
    PauliOp,
    SchemeParams,
    SoundnessWarning,
    ancilla_qubits,
    apply_M,
    beta_chain_mixing,
    build_verifier,
    commutes,
    completely_mixed_money,
    component_analysis,
    dense_matrix,
    exact_max_clique,
    find_frozen_strings,
    forge_low_eps_with_records,
    gen_scheme,
    honest_money,
    kraus_equivalence_check,
    label_table,
    make_label_scheme,
    max_eigenvalue_check,
    mint,
    moments,
    pe_distribution,
    pe_sample,
    random_pauli,
    register_hamiltonian,
    run_clique_attack,
    spectral_clique,
    verify,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def quiet_gen(params, rng):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        return gen_scheme(params, rng)


def test_criterion_01_commutation_exact():
    t0 = time.perf_counter()
    agree = 0
    for xa in range(4):
        for za in range(4):
            for xb in range(4):
                for zb in range(4):
                    a = PauliOp(2, xa, za, 0)
                    b = PauliOp(2, xb, zb, 0)
                    da, db = dense_matrix(a), dense_matrix(b)
                    dense_commutes = np.array_equal(da @ db, db @ da)
                    agree += commutes(a, b) == dense_commutes
    dt = time.perf_counter() - t0
    report(
        1,
        agree == 256 and dt < 1.0,
        f"{agree}/256 two-qubit pairs agree with dense commutators in {dt:.2f}s",
    )


def test_criterion_02_honest_money_soundness():
    t0 = time.perf_counter()
    params = SchemeParams(8, 64, 1024, 0.25)
    secret, scheme = quiet_gen(params, np.random.default_rng(1002))
    honest = honest_money(secret)
    mixed = completely_mixed_money(params)
    rng = np.random.default_rng(2002)
    honest_rate = np.mean([verify(scheme, honest, rng).accepted for _ in range(200)])
    mixed_rate = np.mean([verify(scheme, mixed, rng).accepted for _ in range(200)])
    dt = time.perf_counter() - t0
    report(
        2,
        honest_rate >= 0.99 and mixed_rate <= 0.01 and dt < 60.0,
        f"honest accept {honest_rate:.3f} (>=0.99), mixed accept {mixed_rate:.3f} (<=0.01), {dt:.1f}s (<60s)",
    )


def test_criterion_03_moment_identities():
    rng = np.random.default_rng(1003)
    worst1 = worst2 = 0.0
    for _ in range(100):
        ops, seen = [], set()
        while len(ops) < 64:
            op = random_pauli(6, rng, allow_identity=False)
            if (op.x, op.z) not in seen:
                seen.add((op.x, op.z))
                ops.append(op)
        mu1, mu2 = moments(register_hamiltonian(ops))
        worst1 = max(worst1, abs(mu1))
        worst2 = max(worst2, abs(mu2 - 1 / 64))
    report(
        3,
        worst1 <= 1e-12 and worst2 <= 1e-12,
        f"100 registers: |Tr H|/2^n <= {worst1:.1e}, |Tr H^2/2^n - 1/m| <= {worst2:.1e} (both <=1e-12)",
    )


def test_criterion_04_phase_estimation_bound():
    r, delta = 4, 1 / 8
    q = ancilla_qubits(r, delta)
    assert q == 9
    # exact kernel normalization for q <= 12
    rng = np.random.default_rng(1004)
    worst_norm = 0.0
    for q_norm in range(1, 13):
        for phi in (0.0, float(rng.random()), float(rng.random())):
            worst_norm = max(worst_norm, abs(float(pe_distribution(phi, q_norm).sum()) - 1.0))
    # empirical tail over 100 random phases x 10^4 samples
    size = 1 << q
    worst_tail = 0.0
    for _ in range(100):
        phi = float(rng.random())
        z = np.array([pe_sample(phi, q, rng) for _ in range(10_000)])
        err = np.abs(z / size - phi)
        err = np.minimum(err, 1.0 - err)
        worst_tail = max(worst_tail, float((err > 2.0**-r).mean()))
    report(
        4,
        worst_tail <= delta and worst_norm <= 1e-10,
        f"worst tail {worst_tail:.4f} (<=0.125) over 100 phases, kernel norm err {worst_norm:.1e} (<=1e-10)",
    )


def test_criterion_05_low_epsilon_forgery():
    t0 = time.perf_counter()
    params = SchemeParams(6, 64, 512, 1 / 128)
    assert params.epsilon <= 1 / (16 * math.sqrt(params.m))
    secret, scheme = quiet_gen(params, np.random.default_rng(1005))
    hams = [register_hamiltonian(ops) for ops in scheme.table]
    _, analysis = forge_low_eps_with_records(hams, mode="analysis")
    mean_p1 = float(np.mean([(1.0 + rec.trace_h_rho) / 2.0 for rec in analysis]))
    p1_bar = 0.5 + 1.0 / (8.0 * math.sqrt(64)) - 0.01
    rng = np.random.default_rng(2005)
    accepts = 0
    for _ in range(50):
        money, _ = forge_low_eps_with_records(hams, rng, "sample")
        accepts += verify(scheme, money, rng).accepted
    rate = accepts / 50
    dt = time.perf_counter() - t0
    report(
        5,
        rate >= 0.75 and mean_p1 >= p1_bar and dt < 600.0,
        f"forged accept {rate:.2f} (>=0.75), analysis mean Pr(+1) {mean_p1:.4f} (>={p1_bar:.4f}), {dt:.0f}s (<600s)",
    )


def test_criterion_06_spectral_clique_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1006)
    m = 2000
    k = 10 * math.ceil(math.sqrt(m))
    exact_hits = 0
    for _ in range(25):
        a = rng.random((m, m)) < 0.5
        a = np.triu(a, 1)
        a = (a | a.T).astype(np.uint8)
        planted = sorted(rng.choice(m, size=k, replace=False).tolist())
        ix = np.ix_(planted, planted)
        a[ix] = 1
        np.fill_diagonal(a, 0)
        found = spectral_clique(MeasurementGraph(a), k)
        exact_hits += sorted(found.vertices) == planted
    # small-graph sanity: spectral never beats the brute-force maximum
    never_exceeds = True
    for _ in range(10):
        mm = int(rng.integers(20, 31))
        a = rng.random((mm, mm)) < 0.5
        a = np.triu(a, 1)
        a = (a | a.T).astype(np.uint8)
        g = MeasurementGraph(a)
        best = len(exact_max_clique(g))
        for kk in (3, 6):
            if len(spectral_clique(g, kk).vertices) > best:
                never_exceeds = False
    dt = time.perf_counter() - t0
    report(
        6,
        exact_hits >= 20 and never_exceeds and dt < 600.0,
        f"exact recovery {exact_hits}/25 (>=20) at m=2000 k={k}, brute-force bound holds, {dt:.0f}s (<600s)",
    )


def test_criterion_07_high_epsilon_secret_recovery():
    t0 = time.perf_counter()
    params = SchemeParams(50, 400, 256, 0.5)
    secret, scheme = quiet_gen(params, np.random.default_rng(1007))
    rng = np.random.default_rng(2007)
    attack = run_clique_attack(scheme, secret, rng)
    accepts = sum(verify(scheme, attack.money, rng).accepted for _ in range(50))
    rate = accepts / 50
    dt = time.perf_counter() - t0
    report(
        7,
        rate >= 0.90 and dt < 300.0,
        f"recovered-key money accept {rate:.2f} (>=0.90) at n=50 m=400 l=256, {dt:.0f}s (<300s)",
    )


def test_criterion_08_eigenvalue_bound():
    rng = np.random.default_rng(1008)
    m, n = 1000, 64
    bound = 10.0 * math.sqrt(m)
    worst = 0.0
    for _ in range(20):
        ops = [random_pauli(n, rng, allow_identity=False) for _ in range(m)]
        worst = max(worst, max_eigenvalue_check(ops))
    report(
        8,
        worst <= bound,
        f"max lambda_max(B) {worst:.1f} <= 10 sqrt(m) = {bound:.1f} over 20 sign matrices",
    )


def test_criterion_09_postselection_money():
    rng = np.random.default_rng(1009)
    scheme = make_label_scheme(12, 4, 2, 0)
    verifier = build_verifier(scheme, 4)
    worst_fix = 0.0
    for _ in range(5):
        money = mint(scheme, rng)
        worst_fix = max(
            worst_fix,
            float(np.linalg.norm(apply_M(verifier, money.state) - money.state)),
        )
    # Kraus construction agrees with M at n <= 6
    small = make_label_scheme(6, 3, 2, 0)
    kraus_dev = kraus_equivalence_check(build_verifier(small, 2))
    # +1 eigenspace dimension == connected components, every label
    plus_ok = True
    for ell in sorted(set(label_table(scheme).tolist())):
        ca = component_analysis(scheme, int(ell))
        plus_ok &= ca.plus_dim == len(ca.components)
    # acceptance monotone non-increasing in r
    monotone = True
    for _ in range(100):
        v = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        v /= np.linalg.norm(v)
        prev = 1.0
        for _ in range(5):
            v = apply_M(verifier, v)
            cur = float(np.linalg.norm(v) ** 2)
            if cur > prev + 1e-12:
                monotone = False
            prev = cur
    report(
        9,
        worst_fix <= 1e-10 and kraus_dev <= 1e-10 and plus_ok and monotone,
        f"minted ||Mv-v|| <= {worst_fix:.1e} (<=1e-10), Kraus dev {kraus_dev:.1e} (<=1e-10), "
        f"plus-dim == components: {plus_ok}, acceptance monotone: {monotone}",
    )


def test_criterion_10_beta_chain_diagnostics():
    scheme = make_label_scheme(10, 4, 2, 0)
    table = label_table(scheme)
    steps = math.ceil(10 * scheme.n * math.log(2**scheme.n))
    cold = beta_chain_mixing(
        scheme, int(table[0]), 0.0, steps, np.random.default_rng(1010)
    )
    frozen_strings = find_frozen_strings(scheme)
    assert len(frozen_strings) > 0
    x0 = int(frozen_strings[0])
    hot = beta_chain_mixing(
        scheme, int(table[x0]), 12.0, steps, np.random.default_rng(2010), start=x0
    )
    report(
        10,
        cold.tv_distance <= 0.05 and hot.frozen,
        f"beta=0 TV {cold.tv_distance:.2e} (<=0.05) in {steps} steps; beta=12 frozen reported: {hot.frozen}",
    )
