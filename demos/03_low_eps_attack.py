"""Forge money without learning any secret when epsilon is tiny.

For epsilon <= 1/(16 sqrt(m)) the table is essentially random, yet the
register Hamiltonian H = (1/m) sum_j P_j always has a constant fraction
of eigenvalues above 1/(2 sqrt(m)) in magnitude.  Phase estimation on
exp(2 pi i H/4) postselects onto that part of the spectrum, producing a
state whose q-value clears the (tiny) epsilon/2 threshold.
"""

import numpy as np

from qmoney import (
    SchemeParams,
    accept_window,
    forge_low_eps_with_records,
    gen_scheme,
    moments,
    register_fractions,
    register_hamiltonian,
    verify,
)

rng = np.random.default_rng(3)
params = SchemeParams(n=6, m=64, l=128, epsilon=1 / 128)
secret, scheme = gen_scheme(params, rng)

hams = [register_hamiltonian(ops) for ops in scheme.table]
ham = hams[0]
mu1, mu2 = moments(ham)
f, g = register_fractions(ham)
lo, hi = accept_window(params.m)
print(f"register 0: Tr[H]/2^n = {mu1:.2e}, Tr[H^2]/2^n = {mu2:.6f} "
      f"(m = {params.m}, 1/m = {1 / params.m:.6f})")
print(f"eigenvalue fractions: f = {f:.3f} two-sided, g = {g:.3f} one-sided")
print(f"forger keeps phases in [{lo:.4f}, {hi:.4f}]\n")

# Analysis mode evaluates the postselected state exactly (no sampling).
money, records = forge_low_eps_with_records(hams, mode="analysis")
mean_p1 = np.mean([(1 + r.trace_h_rho) / 2 for r in records])
bar = 0.5 + 1 / (8 * np.sqrt(params.m))
print(f"analysis mode: mean Pr(+1 outcome) = {mean_p1:.4f} "
      f"(structureless bound {bar:.4f})")

sampled, _ = forge_low_eps_with_records(hams, rng, mode="sample")
accept = np.mean([verify(scheme, sampled, rng).accepted for _ in range(100)])
print(f"sampled forgery accepted {accept:.0%} of 100 verifications "
      f"(threshold q >= {params.epsilon / 2:.4f})")
