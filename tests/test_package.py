"""The package's names, and what importing and running it loads, in fresh processes."""

import ast
import importlib
import json
import types
from pathlib import Path

import pytest

import qmoney
from test_demos import run_python

# Every name the package exports, by home module.  clique and phase are
# served lazily, which adds and loses none.
EXPORTS = {
    "errors": (
        "AttackFailure", "CapacityError", "DimensionError", "InconsistentGeneratorsError",
        "QMoneyError", "SchemeFormatError", "SoundnessWarning",
    ),
    "pauli": (
        "PauliOp", "apply_pauli", "commutation_matrix", "expectation", "pauli_mul",
        "random_pauli",
    ),
    "stabilizer": (
        "StabilizerState", "complete_to_stabilizer_state", "greedy_consistent_subset",
        "random_stabilizer_state", "stab_expectation",
    ),
    "money": (
        "DenseMixedRegister", "MoneyScheme", "MoneyState", "SchemeParams",
        "completely_mixed_money", "gen_scheme", "honest_money", "measure_register", "verify",
    ),
    "clique": (
        "MeasurementGraph", "attack_register", "bootstrap_clique", "build_graph",
        "degree_sort_clique", "max_eigenvalue_check", "run_clique_attack",
        "second_eigenvector", "spectral_clique",
    ),
    "phase": (
        "accept_window", "ancilla_qubits", "eigenvalue_phases", "forge_low_eps_with_records",
        "moments", "pe_sample", "register_fractions", "register_hamiltonian",
        "window_probability",
    ),
    "postselect": (
        "LabelScheme", "apply_M", "beta_chain_mixing", "build_verifier", "component_analysis",
        "default_iteration_count", "find_frozen_strings", "kraus_equivalence_check", "label",
        "label_bits", "label_table", "make_label_scheme", "mint", "parse_label_bits",
        "verify_money",
    ),
    "harness": (
        "ExperimentConfig", "LabelParams", "ResultRecord", "emit_results", "load_note",
        "load_scheme", "run_experiment", "save_note", "save_scheme", "summarize",
    ),
}

# The oracles in tests/oracles.py, by the module that must not export them:
# the package keeps no public name that only tests call.
MOVED = {
    "pauli": ("commutes", "dense_matrix", "symplectic_ip"),
    "stabilizer": ("dense_projector", "dense_statevector", "random_stabilizer_element"),
    "money": ("register_expectation",),
    "clique": ("exact_max_clique",),
    "phase": ("pe_distribution",),
    "postselect": ("class_markov_matrix",),
}
MOVED_METHODS = ("canonical_generators", "group_equal", "_draw_table")

PRINT_STATE = (
    "print(json.dumps({'scipy': sorted(m for m in sys.modules"
    " if m == 'scipy' or m.startswith('scipy.')),"
    " 'attacks': sorted(m for m in ('qmoney.clique', 'qmoney.phase') if m in sys.modules)}))"
)


def states_after(*steps):
    """Run the steps in one fresh process; the loaded scipy and attack modules after each."""
    code = "\n".join(["import json, sys", *(f"{step}\n{PRINT_STATE}" for step in steps)])
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


NOTHING_LOADED = {"scipy": [], "attacks": []}


def test_every_exported_name_is_its_home_modules_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"qmoney.{module}")
        for name in names:
            namespace = {}
            exec(f"from qmoney import {name}", namespace)
            assert namespace[name] is getattr(home, name), name
            assert name in dir(qmoney), name


def test_the_package_exports_no_other_name():
    public = {
        name for name in dir(qmoney)
        if not name.startswith("_") and not isinstance(getattr(qmoney, name), types.ModuleType)
    }
    assert public == set().union(*EXPORTS.values())


def test_no_moved_oracle_is_reachable_from_the_package_or_its_old_module():
    for module, names in MOVED.items():
        home = importlib.import_module(f"qmoney.{module}")
        for name in names:
            assert not hasattr(qmoney, name), name
            assert not hasattr(home, name), f"{module}.{name}"
            assert name not in dir(qmoney) and name not in home.__all__, name
            with pytest.raises(ImportError):
                exec(f"from qmoney import {name}", {})
    for name in MOVED_METHODS:
        assert not hasattr(qmoney.StabilizerState, name), name


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'spectral_cliques'"):
        qmoney.spectral_cliques
    assert not hasattr(qmoney, "clique_attack")


def test_lazy_names_are_listed_before_and_served_on_first_use():
    listed, served = states_after(
        "import qmoney\n"
        "assert {'clique', 'phase', 'spectral_clique', 'window_probability'} <= set(dir(qmoney))",
        "from qmoney import spectral_clique, window_probability, clique, phase\n"
        "assert spectral_clique is clique.spectral_clique\n"
        "assert window_probability is phase.window_probability",
    )
    assert listed == NOTHING_LOADED
    assert served["attacks"] == ["qmoney.clique", "qmoney.phase"]


def test_import_loads_no_scipy():
    assert states_after("import qmoney") == [NOTHING_LOADED]


def test_cli_help_loads_no_scipy():
    [state] = states_after(
        "import contextlib, io\n"
        "from qmoney import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit as exit:\n"
        "        assert exit.code == 0"
    )
    assert state == NOTHING_LOADED


def test_postselect_runs_load_no_scipy_and_a_clique_attack_loads_clique():
    postselect, attack = states_after(
        "from qmoney.harness import ExperimentConfig, LabelParams, run_experiment\n"
        "label = LabelParams(6, 3, 2, 0)\n"
        "run_experiment(ExperimentConfig('postselect-suite', 2, 1, label=label))\n"
        "run_experiment(ExperimentConfig('beta-mixing', 2, 1, label=label,"
        " options={'beta': 0.0, 'steps': 50}))\n"
        "run_experiment(ExperimentConfig('beta-mixing', 2, 1, label=label,"
        " options={'beta': 12.0, 'start_frozen': True, 'steps': 50}))",
        "from qmoney.money import SchemeParams\n"
        "run_experiment(ExperimentConfig('clique-attack', 2, 1, SchemeParams(10, 100, 4, 0.8)))",
    )
    assert postselect == NOTHING_LOADED
    assert "qmoney.clique" in attack["attacks"]
    assert "scipy.linalg" in attack["scipy"]


def test_call_counts_stay_exact_when_clique_loads_through_the_harness():
    # The benchmark's count pin: patch stab_expectation in every loaded qmoney
    # namespace, as its tracer does, after the harness has loaded clique.
    trials, (n, m, l) = 3, (10, 100, 8)
    proc = run_python("-c", f"""
import json, sys
from qmoney import harness, stabilizer
from qmoney.money import SchemeParams
config = harness.ExperimentConfig("clique-attack", {trials}, 1, SchemeParams({n}, {m}, {l}, 0.8))
assert "qmoney.clique" not in sys.modules
harness.run_experiment(config)
assert "qmoney.clique" in sys.modules
original, calls = stabilizer.stab_expectation, []
def counted(*args, **kwargs):
    calls.append(1)
    return original(*args, **kwargs)
for name, module in list(sys.modules.items()):
    if name == "qmoney" or name.startswith("qmoney."):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, counted)
records = harness.run_experiment(config)
print(json.dumps([len(calls), records[0].metrics["failed_registers"]]))
""")
    assert proc.returncode == 0, proc.stderr
    calls, failed = json.loads(proc.stdout)
    assert failed == 0  # the count holds while no register's attack fails
    assert calls == 2 * l * m + trials * l


def test_only_pauli_knows_the_packed_word_count():
    # W = ceil(n/64) and the 64-bit shifts between ints and words live in one module
    sources = {path.name: path.read_text() for path in Path(qmoney.__file__).parent.glob("*.py")}
    assert "pauli.py" in sources and len(sources) > 1
    for pattern in ("+ 63) // 64", "64 * w"):
        assert pattern in sources["pauli.py"], pattern
        assert [name for name, text in sources.items() if pattern in text] == ["pauli.py"], pattern


# The benchmark's tracer: its traced mode wraps qmoney functions by name.
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def layer_functions() -> dict[str, tuple[str, ...]]:
    """LAYER_FUNCTIONS, read from the tracer's source without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.Assign):
            continue
        if [getattr(t, "id", None) for t in node.targets] == ["LAYER_FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS assignment in {TRACER}")


def test_every_traced_name_resolves_in_its_qmoney_module():
    layers = layer_functions()
    assert layers  # the parse found the table
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qmoney.{module}"), name, None))
    ]
    assert not missing
