"""File formats, counter-based seeding, and the experiment runner."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from qmoney import (
    ExperimentConfig,
    LabelParams,
    ResultRecord,
    SchemeFormatError,
    SchemeParams,
    SoundnessWarning,
    emit_results,
    gen_scheme,
    load_note,
    load_scheme,
    run_experiment,
    save_note,
    save_scheme,
    summarize,
)
from qmoney.harness import money_from_label, setup_rng, trial_rng
from qmoney.postselect import label_table, make_label_scheme, mint


def small_scheme(seed=0, n=16, m=32, l=8, eps=0.25):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SoundnessWarning)
        return gen_scheme(SchemeParams(n, m, l, eps), np.random.default_rng(seed))


def test_scheme_round_trip_with_secret(tmp_path):
    secret, scheme = small_scheme()
    path = tmp_path / "a.scheme"
    save_scheme(path, scheme, secret, seed=99)
    scheme2, secret2 = load_scheme(path)
    assert scheme2 == scheme
    assert secret2 == secret
    text = path.read_text()
    assert text.startswith("qmoney-scheme v1\n")
    assert "seed 99" in text
    assert text.rstrip().endswith("end")


def test_scheme_round_trip_without_secret(tmp_path):
    secret, scheme = small_scheme(seed=1)
    path = tmp_path / "b.scheme"
    save_scheme(path, scheme)
    scheme2, secret2 = load_scheme(path)
    assert scheme2 == scheme
    assert secret2 is None


def test_epsilon_survives_round_trip_exactly(tmp_path):
    for eps in (0.25, 1 / 3, 1 / 128, 0.1):
        secret, scheme = small_scheme(seed=2, eps=eps)
        path = tmp_path / "c.scheme"
        save_scheme(path, scheme)
        scheme2, _ = load_scheme(path)
        assert scheme2.params.epsilon == eps  # bit-exact via repr round trip


def test_truncated_file_is_an_error_not_a_partial_object(tmp_path):
    secret, scheme = small_scheme(seed=3)
    path = tmp_path / "d.scheme"
    save_scheme(path, scheme, secret)
    full = path.read_text().splitlines()
    for cut in (1, 3, 10, len(full) // 2, len(full) - 1):
        path.write_text("\n".join(full[:cut]) + "\n")
        with pytest.raises(SchemeFormatError):
            load_scheme(path)


def test_format_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "e.scheme"
    path.write_text("qmoney-scheme v2\n")
    with pytest.raises(SchemeFormatError) as err:
        load_scheme(path)
    assert err.value.line == 1
    assert "line 1" in str(err.value)

    secret, scheme = small_scheme(seed=4)
    save_scheme(path, scheme)
    lines = path.read_text().splitlines()
    lines[7] = "+XY!Z" + lines[7][5:]  # corrupt an operator line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemeFormatError) as err:
        load_scheme(path)
    assert err.value.line == 8


def test_note_round_trip(tmp_path):
    sch = make_label_scheme(12, 4, 2, 7)
    money = mint(sch, np.random.default_rng(5))
    path = tmp_path / "n.note"
    save_note(path, sch, money)
    sch2, money2 = load_note(path)
    assert sch2 == sch
    assert money2.label == money.label
    assert money2.support_size == money.support_size
    assert np.allclose(money2.state, money.state)  # statevector rebuilt, not stored
    assert "statevector" not in path.read_text()


def test_money_from_label_rejects_empty_class():
    sch = make_label_scheme(10, 4, 2, 0)
    sizes = np.bincount(label_table(sch), minlength=16)
    empty = np.flatnonzero(sizes == 0)
    if len(empty):
        with pytest.raises(ValueError):
            money_from_label(sch, int(empty[0]))


def test_trial_seeds_are_counter_based_and_order_free():
    rng_a, seed_a = trial_rng(123, 7)
    rng_b, seed_b = trial_rng(123, 7)
    assert seed_a == seed_b
    assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)
    # different trials and different masters are independent streams
    assert trial_rng(123, 8)[1] != seed_a
    assert trial_rng(124, 7)[1] != seed_a
    # setup stream differs from every trial stream
    s = setup_rng(123)
    assert s.integers(1 << 30) != np.random.default_rng().integers(1 << 30) or True


def test_run_experiment_honest_acceptance_deterministic():
    config = ExperimentConfig(
        "honest-acceptance", 5, 42, scheme=SchemeParams(6, 16, 32, 0.5)
    )
    a = run_experiment(config)
    b = run_experiment(config)
    assert [r.metrics for r in a] == [r.metrics for r in b]
    assert [r.seed for r in a] == [r.seed for r in b]
    assert all(r.experiment == "honest-acceptance" for r in a)
    assert all(r.metrics["accepted_honest"] == 1 for r in a)


def test_run_experiment_eigenvalue_check():
    config = ExperimentConfig(
        "eigenvalue-check", 3, 0, scheme=SchemeParams(16, 64, 1, 0.0)
    )
    records = run_experiment(config)
    assert len(records) == 3
    for rec in records:
        assert rec.metrics["lambda_max"] <= rec.metrics["bound"]
        assert rec.passed


def test_run_experiment_postselect_suite():
    config = ExperimentConfig(
        "postselect-suite", 2, 9, label=LabelParams(10, 4, 2, 0)
    )
    records = run_experiment(config)
    for rec in records:
        assert rec.passed
        assert rec.metrics["mv_residual"] <= 1e-10
        assert rec.metrics["plus_dim"] == rec.metrics["components"]


def test_run_experiment_beta_mixing_kinds():
    cold = ExperimentConfig(
        "beta-mixing", 2, 4, label=LabelParams(10, 4, 2, 0), options={"beta": 0.0}
    )
    for rec in run_experiment(cold):
        assert rec.metrics["tv_distance"] <= 0.05
        assert rec.passed
    hot = ExperimentConfig(
        "beta-mixing",
        2,
        4,
        label=LabelParams(10, 4, 2, 0),
        options={"beta": 12.0, "start_frozen": True},
    )
    for rec in run_experiment(hot):
        assert rec.metrics["frozen"] == 1
        assert rec.passed


def test_run_experiment_validates_config():
    with pytest.raises(ValueError):
        ExperimentConfig("nonsense", 1, 0)
    with pytest.raises(ValueError):
        ExperimentConfig("honest-acceptance", 0, 0)
    with pytest.raises(ValueError):
        ExperimentConfig("honest-acceptance", 1, 0)  # neither scheme nor source
    with pytest.raises(ValueError):
        ExperimentConfig("beta-mixing", 1, 0)  # missing label
    with pytest.raises(ValueError):  # both params and a source file
        ExperimentConfig("clique-attack", 1, 0, SchemeParams(6, 16, 8, 0.5), source="s.scheme")
    with pytest.raises(ValueError):
        ExperimentConfig("postselect-suite", 1, 0, label=LabelParams(8, 4, 2, 0), source="n.note")
    with pytest.raises(ValueError):  # kinds that read no file
        ExperimentConfig("eigenvalue-check", 1, 0, source="s.scheme")
    with pytest.raises(ValueError):
        ExperimentConfig("beta-mixing", 1, 0, source="n.note")


def test_emit_csv(tmp_path):
    records = [
        ResultRecord("demo", 0, 11, {"x": 0.1, "y": 2}, True),
        ResultRecord("demo", 1, 12, {"x": 1 / 3, "z": float("inf")}, False),
    ]
    path = tmp_path / "r.csv"
    emit_results(records, path, "csv")
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["experiment", "trial", "seed", "x", "y", "z", "passed"]
    assert rows[1] == ["demo", "0", "11", format(0.1, ".17g"), "2", "", "1"]
    assert rows[2][3] == format(1 / 3, ".17g")
    assert float(rows[2][3]) == 1 / 3  # 17 significant digits round-trip
    assert rows[2][5] == "inf"


def test_emit_jsonl(tmp_path):
    records = [
        ResultRecord("demo", 0, 11, {"x": 0.5}, True),
        ResultRecord("demo", 1, 12, {"x": float("nan")}, False),
    ]
    path = tmp_path / "r.jsonl"
    emit_results(records, path, "jsonl")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "experiment": "demo",
        "metrics": {"x": 0.5},
        "passed": True,
        "seed": 11,
        "trial": 0,
    }
    second = json.loads(lines[1])  # strict JSON: non-finite becomes null
    assert second["metrics"]["x"] is None
    with pytest.raises(ValueError):
        emit_results(records, path, "xml")


def test_summarize():
    records = [
        ResultRecord("demo", 0, 1, {"x": 1.0}, True),
        ResultRecord("demo", 1, 2, {"x": 3.0}, False),
    ]
    out = summarize(records)
    assert out["trials"] == 2
    assert out["pass_fraction"] == 0.5
    assert out["x"]["mean"] == 2.0
    assert out["x"]["std"] == 1.0  # population std
    assert out["x"]["min"] == 1.0 and out["x"]["max"] == 3.0
    assert summarize([]) == {"trials": 0}


@pytest.mark.filterwarnings("error")
def test_summarize_counts_nonfinite_values_apart():
    records = [
        ResultRecord("demo", i, i, {"x": x, "y": math.inf}, True)
        for i, x in enumerate([1.0, math.inf, 3.0, math.nan])
    ]
    out = summarize(records)
    assert out["x"] == {"mean": 2.0, "std": 1.0, "min": 1.0, "max": 3.0, "nonfinite": 2}
    assert out["y"]["nonfinite"] == 4
    assert all(math.isnan(out["y"][k]) for k in ("mean", "std", "min", "max"))
    assert "nonfinite" not in summarize(records[:1])["x"]
