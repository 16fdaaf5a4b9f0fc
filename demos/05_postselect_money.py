"""Mint collision-free labeled money and verify it with a Markov projector.

Labels come from a d-regular parity hash of bit subsets.  A note for
label l is the uniform superposition over the hash's preimage class.
The verifier averages n label-preserving bit-flip involutions into
M = (1/n) sum_i P_i and applies it r times: honest notes are +1
eigenvectors and survive, while anything off the class decays.
"""

import numpy as np

from qmoney import (
    build_verifier,
    component_analysis,
    default_iteration_count,
    find_frozen_strings,
    label_bits,
    make_label_scheme,
    mint,
    verify_money,
)

rng = np.random.default_rng(5)
scheme = make_label_scheme(n=10, s=4, d=2, seed=0)

note = mint(scheme, rng)
print(f"minted note: label {label_bits(note.label, scheme.s)} "
      f"({note.support_size} strings in its class)")

analysis = component_analysis(scheme, note.label)
r = default_iteration_count(analysis)
verifier = build_verifier(scheme, r)
ok, prob = verify_money(verifier, note, rng)
print(f"honest verification (r = {r}): accepted={ok}, "
      f"acceptance probability {prob:.12f}")

# Claiming the wrong label projects the state away almost entirely.
wrong = (note.label + 1) % (1 << scheme.s)
forged = type(note)(wrong, note.state, note.support_size)
ok, prob = verify_money(verifier, forged, rng)
print(f"same state, wrong label:  accepted={ok}, probability {prob:.2e}\n")

print(f"class structure: {len(analysis.components)} connected component(s) "
      f"under single-bit flips, top eigenvalues "
      f"{np.sort(analysis.eigenvalues)[-3:][::-1].round(6)}")
frozen = find_frozen_strings(scheme)
print(f"{len(frozen)} frozen strings (no label-preserving flip at all) "
      f"out of {1 << scheme.n}")
