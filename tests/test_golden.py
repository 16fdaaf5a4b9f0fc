"""Byte-for-byte pins of the harness's emitted CSV at small fixed-seed configs.

Refactors of the runners must keep every record identical for a fixed
seed; these files are the reference.  After a deliberate change to a
runner's output, regenerate them with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff of tests/golden/ like any other code change.
"""

import tempfile
import warnings
from pathlib import Path

import pytest

from qmoney import (
    ExperimentConfig,
    LabelParams,
    SchemeParams,
    SoundnessWarning,
    emit_results,
    run_experiment,
    save_note,
)
from qmoney.harness import mint_note

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIGS = {
    "honest-acceptance": ExperimentConfig(
        "honest-acceptance", 4, 3, SchemeParams(6, 16, 32, 0.5)
    ),
    "clique-attack": ExperimentConfig(
        "clique-attack", 4, 3, SchemeParams(10, 100, 8, 0.8)
    ),
    "clique-attack-spectral": ExperimentConfig(
        "clique-attack", 4, 3, SchemeParams(12, 400, 4, 0.5)
    ),
    "clique-attack-bootstrap": ExperimentConfig(
        "clique-attack", 4, 3, SchemeParams(10, 150, 8, 0.6)
    ),
    "low-eps-attack-sample": ExperimentConfig(
        "low-eps-attack", 3, 3, SchemeParams(3, 32, 16, 1 / 128), options={"mode": "sample"}
    ),
    "low-eps-attack-analysis": ExperimentConfig(
        "low-eps-attack", 2, 3, SchemeParams(3, 32, 16, 1 / 128), options={"mode": "analysis"}
    ),
    "eigenvalue-check": ExperimentConfig(
        "eigenvalue-check", 3, 3, SchemeParams(8, 50, 1, 0.5)
    ),
    "postselect-suite": ExperimentConfig(
        "postselect-suite", 4, 3, label=LabelParams(8, 4, 2, 0)
    ),
    "postselect-suite-kraus": ExperimentConfig(
        "postselect-suite", 2, 3, label=LabelParams(6, 3, 2, 0)
    ),
    "beta-mixing-cold": ExperimentConfig(
        "beta-mixing", 2, 3, label=LabelParams(6, 3, 2, 0), options={"beta": 0.0, "steps": 300}
    ),
    "beta-mixing-frozen": ExperimentConfig(
        "beta-mixing",
        3,
        3,
        label=LabelParams(8, 4, 2, 0),
        options={"beta": 12.0, "steps": 300, "start_frozen": True},
    ),
}


# postselect-suite run from a note file, which pins the state load_note builds.
NOTE = "postselect-suite-note"
NAMES = sorted([*CONFIGS, NOTE])


def emit(name: str, path: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        if name == NOTE:
            note = Path(tmp) / "golden.note"
            save_note(note, *mint_note(LabelParams(8, 4, 2, 0), 5))
            config = ExperimentConfig("postselect-suite", 3, 3, source=str(note))
        else:
            config = CONFIGS[name]
        records = run_experiment(config)
    emit_results(records, path, "csv")


@pytest.mark.parametrize("name", NAMES)
def test_emitted_csv_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    emit(name, out)
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in NAMES:
        emit(name, GOLDEN / f"{name}.csv")
