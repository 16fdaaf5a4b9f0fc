"""Outside-in span tracer for the qmoney modules.

The modules import each other's functions by name (``clique`` binds
``stab_expectation``, ``harness`` binds ``verify``), so patching one
module attribute would miss most calls.  ``install`` replaces a function
object in every loaded ``qmoney`` namespace that holds it and ``uninstall``
puts the originals back.  Spans (function, start, end, parent, raised)
go to flat in-memory arrays; nothing is written until ``save``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# The public functions timed per layer, by module.
LAYER_FUNCTIONS = {
    "pauli": ("pauli_mul", "commutation_matrix", "apply_pauli", "random_pauli"),
    "gf2": ("solve", "nullspace", "rref"),
    "stabilizer": (
        "stab_expectation",
        "random_stabilizer_state",
        "greedy_consistent_subset",
        "complete_to_stabilizer_state",
    ),
    "money": ("gen_scheme", "verify", "measure_register"),
    "clique": (
        "attack_register",
        "second_eigenvector",
        "degree_sort_clique",
        "spectral_clique",
        "bootstrap_clique",
        "max_eigenvalue_check",
    ),
    "phase": (
        "register_hamiltonian",
        "window_probability",
        "pe_sample",
        "generate_rho_with_record",
    ),
    "postselect": (
        "apply_M",
        "build_verifier",
        "verify_money",
        "component_analysis",
        "beta_chain_mixing",
        "find_frozen_strings",
    ),
    "harness": ("run_experiment",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns)

# Bytes of the dense float64 m x m matrix each eigensolver call works on.
_EIG_INPUT_BYTES = {
    "clique.second_eigenvector": lambda args: 8 * len(args[0]) ** 2,
    "clique.max_eigenvalue_check": lambda args: 8 * len(args[0]) ** 2,
}


class Tracer:
    def __init__(self):
        self.fid = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.errors: dict[int, str] = {}
        self.eig_input_bytes = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, name: str, fn):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        raised, stack, clock = self.raised, self._stack, time.perf_counter
        input_bytes = _EIG_INPUT_BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            raised.append(0)
            if input_bytes is not None:
                self.eig_input_bytes += input_bytes(args)
            stack.append(idx)
            t = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[idx] = 1
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t
                stack.pop()

        return traced

    def install(self) -> None:
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "qmoney" or name.startswith("qmoney.")
        ]
        for fid, name in enumerate(SPAN_NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"qmoney.{mod_name}"), fn_name)
            traced = self._wrap(fid, name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, traced)
                        self._patched.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays, with each span's self time (duration minus direct children)."""
        fid = np.frombuffer(self.fid, dtype=np.uint16).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        child = np.zeros(len(fid))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            "fid": fid,
            "parent": parent,
            "start": start,
            "end": end,
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "self_s": dur - child,
        }

    def layer_metrics(self, spans: dict[str, np.ndarray], runs: int) -> dict[str, float]:
        """Calls and self seconds per function, and the per-layer ratios, per run."""
        fid, parent = spans["fid"], spans["parent"]
        calls = np.bincount(fid, minlength=len(SPAN_NAMES))
        self_s = np.bincount(fid, weights=spans["self_s"], minlength=len(SPAN_NAMES))
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = float(calls[i] / runs)
            out[f"{name}.self_s"] = float(self_s[i] / runs)

        attack = SPAN_NAMES.index("clique.attack_register")
        failures = sum(
            1 for idx, err in self.errors.items() if fid[idx] == attack and err == "AttackFailure"
        )
        out["clique.attack_register.fail_frac"] = (
            float(failures / calls[attack]) if calls[attack] else 0.0
        )
        # Sample-mode forges are the generate_rho_with_record spans that draw;
        # analysis mode computes window probabilities instead.
        forge = SPAN_NAMES.index("phase.generate_rho_with_record")
        draws = parent[(fid == SPAN_NAMES.index("phase.pe_sample")) & (parent >= 0)]
        draws = draws[fid[draws] == forge]
        forges = len(np.unique(draws))
        out["phase.pe_sample.per_forge"] = len(draws) / forges if forges else 0.0
        out["clique.eig_input_mb"] = self.eig_input_bytes / runs / 2**20
        return out

    def save(self, path, spans: dict[str, np.ndarray]) -> None:
        errors = np.array(
            [(idx, name) for idx, name in sorted(self.errors.items())],
            dtype=[("span", np.int64), ("error", "U64")],
        )
        np.savez(path, names=np.array(SPAN_NAMES), errors=errors, **spans)
