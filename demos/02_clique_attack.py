"""Recover the bank's secrets from the public table when epsilon is large.

Table entries that stabilize the same state pairwise commute, so each
register hides a planted clique of expected size epsilon*m inside the
commutation graph of its m columns.  Finding that clique and completing
it to a full stabilizer group reproduces a state the verifier accepts.
"""

import numpy as np

from qmoney import (
    SchemeParams,
    build_graph,
    gen_scheme,
    run_clique_attack,
    spectral_clique,
    stab_expectation,
    verify,
)

rng = np.random.default_rng(21)
params = SchemeParams(n=10, m=128, l=16, epsilon=0.5)
secret, scheme = gen_scheme(params, rng)

# Peek at one register's commutation graph.
register = scheme.register(0)
graph = build_graph(register)
planted = {j for j, op in enumerate(register.ops())
           if stab_expectation(secret.states[0], op) == 1}
found = spectral_clique(graph, round(params.epsilon * params.m))
overlap = len(planted & set(found.vertices)) / len(planted)
print(f"register 0: planted clique size {len(planted)}, "
      f"spectral method found {len(found.vertices)} vertices, "
      f"overlap {overlap:.0%}")

# Full attack: recover every register, then forge.
result = run_clique_attack(scheme, secret=secret, rng=rng)
accept = np.mean([verify(scheme, result.money, rng).accepted
                  for _ in range(100)])
overlaps = [r.planted_overlap for r in result.reports
            if r.planted_overlap is not None]

print(f"\nfull attack: {len(result.reports)} registers, "
      f"{len(result.failed_registers)} failures, "
      f"mean planted overlap {np.mean(overlaps):.0%}")
print(f"forged money accepted {accept:.0%} of 100 verifications")
