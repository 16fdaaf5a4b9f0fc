"""Stabilizer quantum money workbench.

Subpackages by topic: pauli/stabilizer for the group algebra, money for
scheme generation and thresholded verification, clique and phase for the
two attacks, postselect for the collision-free construction with its
Markov-chain verifier, harness/cli for seeded experiments and files.

Importing the package loads numpy only.  clique (scipy.linalg) and phase
(scipy.special) are imported on first use: ``qmoney.clique``,
``qmoney.phase`` and their re-exported names below resolve through the
module ``__getattr__`` (PEP 562), so ``from qmoney import spectral_clique``
still works.
"""

from .errors import (
    AttackFailure,
    CapacityError,
    DimensionError,
    InconsistentGeneratorsError,
    QMoneyError,
    SchemeFormatError,
    SoundnessWarning,
)
from .pauli import (
    PauliOp,
    apply_pauli,
    commutation_matrix,
    commutes,
    dense_matrix,
    expectation,
    pauli_mul,
    random_pauli,
    symplectic_ip,
)
from .stabilizer import (
    StabilizerState,
    complete_to_stabilizer_state,
    dense_projector,
    dense_statevector,
    greedy_consistent_subset,
    random_stabilizer_element,
    random_stabilizer_state,
    stab_expectation,
)
from .money import (
    DenseMixedRegister,
    MoneyScheme,
    MoneyState,
    SchemeParams,
    completely_mixed_money,
    gen_scheme,
    honest_money,
    measure_register,
    register_expectation,
    verify,
)
from .postselect import (
    LabelScheme,
    apply_M,
    beta_chain_mixing,
    build_verifier,
    component_analysis,
    default_iteration_count,
    find_frozen_strings,
    kraus_equivalence_check,
    label,
    label_bits,
    label_table,
    make_label_scheme,
    mint,
    parse_label_bits,
    verify_money,
)
from .harness import (
    ExperimentConfig,
    LabelParams,
    ResultRecord,
    emit_results,
    load_note,
    load_scheme,
    run_experiment,
    save_note,
    save_scheme,
    summarize,
)

__version__ = "0.1.0"

# The attack modules' names, served on first access so that a process that
# never attacks never loads scipy.
_LAZY = {
    "clique": (
        "MeasurementGraph",
        "attack_register",
        "bootstrap_clique",
        "build_graph",
        "degree_sort_clique",
        "exact_max_clique",
        "max_eigenvalue_check",
        "run_clique_attack",
        "second_eigenvector",
        "spectral_clique",
    ),
    "phase": (
        "accept_window",
        "ancilla_qubits",
        "eigenvalue_phases",
        "forge_low_eps_with_records",
        "moments",
        "pe_distribution",
        "pe_sample",
        "register_fractions",
        "register_hamiltonian",
        "window_probability",
    ),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _LAZY_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_HOME})
