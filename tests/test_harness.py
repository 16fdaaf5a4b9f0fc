"""File formats, counter-based seeding, and the experiment runner."""

import ast
import csv
import inspect
import json
import math
import struct
import textwrap
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qmoney import (
    CapacityError,
    ExperimentConfig,
    LabelParams,
    MoneyScheme,
    QMoneyError,
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
    verify,
)
from qmoney import clique, harness, phase, postselect
from qmoney.harness import setup_rng, trial_rng
from qmoney.postselect import (
    find_frozen_strings,
    label_table,
    make_label_scheme,
    mint,
    money_from_label,
)


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


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(eps=st.floats(min_value=0.0, max_value=1.0))
@example(eps=0.25)
@example(eps=1 / 3)
@example(eps=1 / 128)
@example(eps=0.1)
def test_epsilon_survives_round_trip_exactly(tmp_path, eps):
    secret, scheme = small_scheme(seed=2, n=4, m=6, l=3)
    scheme = MoneyScheme(replace(scheme.params, epsilon=eps), scheme.table)
    path = tmp_path / "c.scheme"
    save_scheme(path, scheme, secret, seed=7)
    scheme2, _ = load_scheme(path)
    assert repr(scheme2.params.epsilon) == repr(eps)  # bit-exact via repr round trip


def test_truncated_file_is_an_error_not_a_partial_object(tmp_path):
    # every proper line-prefix of a scheme file with a secret, and of a note
    secret, scheme = small_scheme(seed=3)
    path = tmp_path / "d.scheme"
    save_scheme(path, scheme, secret)
    full = path.read_text().splitlines()
    for cut in range(len(full)):
        path.write_text("\n".join(full[:cut]) + "\n")
        with pytest.raises(SchemeFormatError):
            load_scheme(path)
    sch = make_label_scheme(8, 4, 2, 0)
    save_note(path, sch, mint(sch, np.random.default_rng(6)))
    full = path.read_text().splitlines()
    for cut in range(len(full)):
        path.write_text("\n".join(full[:cut]) + "\n")
        with pytest.raises(SchemeFormatError):
            load_note(path)


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


def _edited_scheme_file(path, edit):
    """Save a small scheme with its secret, apply edit to the list of lines."""
    secret, scheme = small_scheme(seed=4, n=4, m=6, l=3)
    save_scheme(path, scheme, secret, seed=99)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return lines


@pytest.mark.parametrize(
    "header, value",
    [
        ("n", "x"),
        ("epsilon", "2"),
        ("n", "0"),
        # epsilon is read only as repr writes it; float() takes all of these
        ("epsilon", "0.2_5"),
        ("epsilon", "\u0660.\u0665"),  # Arabic-Indic digits
        ("epsilon", "+0.25"),
        ("epsilon", "-0.0"),
        ("epsilon", "0.250"),
        ("seed", "banana"),
        ("seed", "9_9"),
    ],
)
def test_bad_header_values_carry_their_line(tmp_path, header, value):
    path = tmp_path / "h.scheme"

    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.split()[0] == header)
        lines[i] = f"{header} {value}"

    lines = _edited_scheme_file(path, edit)
    with pytest.raises(SchemeFormatError) as err:
        load_scheme(path)
    assert lines[err.value.line - 1] == f"{header} {value}"


@pytest.mark.parametrize(
    "loader, key",
    [("scheme", "n"), ("scheme", "epsilon"), ("scheme", "seed"), ("note", "n"), ("note", "label")],
)
def test_repeated_fields_are_refused_at_their_second_line(tmp_path, loader, key):
    path = tmp_path / f"repeat.{loader}"
    if loader == "scheme":
        secret, scheme = small_scheme(seed=4, n=4, m=6, l=3)
        save_scheme(path, scheme, secret, seed=99)
        load = load_scheme
    else:
        sch = make_label_scheme(8, 4, 2, 0)
        save_note(path, sch, mint(sch, np.random.default_rng(6)))
        load = load_note
    lines = path.read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.split()[0] == key)
    # the repeat is a valid value on its own, so only the repetition is wrong
    lines.insert(first + 1, lines[first])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemeFormatError, match=f"repeated field {key}") as err:
        load(path)
    assert err.value.line == first + 2


def test_identity_table_entry_carries_its_line(tmp_path):
    path = tmp_path / "i.scheme"

    def edit(lines):
        lines[lines.index("register 1") + 2] = "+IIII"

    lines = _edited_scheme_file(path, edit)
    with pytest.raises(SchemeFormatError) as err:
        load_scheme(path)
    assert err.value.line == lines.index("register 1") + 3


def test_dependent_secret_generators_carry_the_register_line(tmp_path):
    path = tmp_path / "g.scheme"

    def edit(lines):
        block = lines.index("secret") + 1 + 2 * 5  # secret register 2's header
        lines[block + 2] = lines[block + 1]  # a repeated generator

    lines = _edited_scheme_file(path, edit)
    with pytest.raises(SchemeFormatError) as err:
        load_scheme(path)
    assert lines[err.value.line - 1] == "register 2"
    assert lines.index("secret") < err.value.line - 1


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


def edited_note(tmp_path, index, text):
    """A minted (8,4,2,0) note file with line ``index`` replaced by ``text``."""
    sch = make_label_scheme(8, 4, 2, 0)
    path = tmp_path / "edited.note"
    save_note(path, sch, mint(sch, np.random.default_rng(6)))
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "index, text",
    [(1, "n x"), (5, "label 01x0"), (1, "n 0"), (3, "d 5"), (4, "label_seed -1")],
)
def test_bad_note_values_carry_their_line(tmp_path, index, text):
    with pytest.raises(SchemeFormatError) as err:
        load_note(edited_note(tmp_path, index, text))
    assert err.value.line == index + 1


def test_note_label_longer_than_s_is_refused_at_its_line(tmp_path):
    with pytest.raises(SchemeFormatError) as err:
        load_note(edited_note(tmp_path, 5, "label 00000000"))
    assert err.value.line == 6


def test_note_label_bit_beyond_s_is_refused_at_its_line(tmp_path):
    with pytest.raises(SchemeFormatError) as err:
        load_note(edited_note(tmp_path, 5, "label 00001"))
    assert err.value.line == 6


def test_non_utf8_bytes_are_refused_at_their_line(tmp_path):
    path = edited_note(tmp_path, 3, "d 2")
    lines = path.read_bytes().split(b"\n")
    lines[3] = b"d \xff2"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(SchemeFormatError) as err:
        load_note(path)
    assert err.value.line == 4


def test_money_from_label_rejects_empty_class():
    sch = make_label_scheme(10, 4, 2, 0)
    sizes = np.bincount(label_table(sch), minlength=16)
    empty = np.flatnonzero(sizes == 0)
    if len(empty):
        with pytest.raises(ValueError):
            money_from_label(sch, int(empty[0]))


def test_notes_above_the_dense_limit_are_refused_like_mint(tmp_path):
    sch = make_label_scheme(13, 4, 2, 0)
    with pytest.raises(CapacityError):
        mint(sch, np.random.default_rng(0))
    path = tmp_path / "big.note"
    path.write_text(
        "qmoney-note v1\nn 13\ns 4\nd 2\nlabel_seed 0\nlabel 0000\nend\n"
    )
    with pytest.raises(CapacityError):
        load_note(path)


@pytest.mark.parametrize(
    "index, text",
    [(1, "n 20000"), (1, "n 3000000000"), (2, "s 3000000000"), (3, "d 3000000000")],
)
def test_oversized_note_values_are_refused_at_their_line_before_any_build(
    tmp_path, index, text
):
    path = edited_note(tmp_path, index, text)
    start = time.perf_counter()
    with pytest.raises(QMoneyError) as err:
        load_note(path)
    assert time.perf_counter() - start < 0.1
    assert f"line {index + 1}:" in str(err.value)


def _line_of_first(lines, predicate):
    return 1 + next(i for i, ln in enumerate(lines) if predicate(ln))


@pytest.mark.parametrize("key", ["n", "m", "l"])
def test_scheme_counts_in_the_billions_are_refused_without_allocating(tmp_path, key):
    secret, scheme = gen_scheme(SchemeParams(3, 4, 2, 0.5), np.random.default_rng(0))
    path = tmp_path / "big.scheme"
    save_scheme(path, scheme, secret)
    lines = path.read_text().splitlines()
    # where the reader first meets what the huge count contradicts
    expected_line = {
        "n": _line_of_first(lines, lambda ln: ln[0] in "+-"),  # a 3-qubit operator
        "m": _line_of_first(lines, lambda ln: ln == "register 1"),  # read as operator m+1
        "l": _line_of_first(lines, lambda ln: ln == "secret"),  # read as register l+1
    }[key]
    lines[_line_of_first(lines, lambda ln: ln.split()[0] == key) - 1] = f"{key} 3000000000"
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(SchemeFormatError) as err:
            load_scheme(path)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line == expected_line
    assert elapsed < 0.1
    assert peak < 0.1 * 2**20


@pytest.mark.parametrize(
    "loader, key, value",
    [
        ("note", "n", "\u0668"),  # an Arabic-Indic eight; int() reads it as 8
        ("note", "label_seed", "1_0"),  # int() reads it as 10
        ("note", "s", "+4"),
        ("scheme", "n", "\u0664"),  # an Arabic-Indic four, the file's own n
        ("scheme", "l", "1_0"),
        ("scheme", "m", "\uff16"),  # a fullwidth six, the file's own m
        ("note", "n", "08"),  # leading zeros: int() reads it as 8
        ("note", "label_seed", "00"),
        ("scheme", "m", "03"),
        ("scheme", "m", "06"),  # the file's own m
        ("scheme", "seed", "0007"),
    ],
)
def test_integers_outside_ascii_digits_are_refused_at_their_line(tmp_path, loader, key, value):
    if loader == "note":
        path = edited_note(tmp_path, ["n", "s", "d", "label_seed"].index(key) + 1, f"{key} {value}")
        lines, load = path.read_text().splitlines(), load_note
    else:
        path = tmp_path / "int.scheme"

        def edit(lines):
            i = next(i for i, ln in enumerate(lines) if ln.split()[0] == key)
            lines[i] = f"{key} {value}"

        lines, load = _edited_scheme_file(path, edit), load_scheme
    with pytest.raises(SchemeFormatError) as err:
        load(path)
    assert lines[err.value.line - 1] == f"{key} {value}"


_KEYS = ["n", "m", "l", "epsilon", "seed", "s", "d", "label_seed", "label"]
_GARBAGE = st.text(st.characters(codec="utf-8"), max_size=12)
_LINE = _GARBAGE | st.tuples(
    st.sampled_from(_KEYS), st.integers(-3, 300).map(str) | _GARBAGE
).map(" ".join)


def garbled(data, lines):
    """A few random edits of a file's lines, then raw bytes spliced in."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["replace", "insert", "delete", "swap", "swap values", "end"]))
        i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        if kind == "replace":
            lines[i] = data.draw(_LINE)
        elif kind == "insert":
            lines.insert(i, data.draw(_LINE))
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "swap values" and " " in lines[i] and " " in lines[j]:
            (a, va), (b, vb) = lines[i].split(" ", 1), lines[j].split(" ", 1)
            lines[i], lines[j] = f"{a} {vb}", f"{b} {va}"
        elif kind == "end":
            lines.insert(i, "end")
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=6)) + raw[at:]
    return raw


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Lines of a small scheme file with its secret and seed, and of a note."""
    path = tmp_path_factory.mktemp("valid") / "f"
    secret, scheme = small_scheme(seed=4, n=4, m=6, l=3)
    save_scheme(path, scheme, secret, seed=99)
    scheme_lines = path.read_text().splitlines()
    sch = make_label_scheme(8, 4, 2, 0)
    save_note(path, sch, mint(sch, np.random.default_rng(6)))
    return {load_scheme: scheme_lines, load_note: path.read_text().splitlines()}


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("loader", [load_scheme, load_note], ids=["scheme", "note"])
def test_garbled_files_raise_only_package_errors(tmp_path, valid_files, loader, data):
    path = tmp_path / "garbled"
    path.write_bytes(garbled(data, valid_files[loader]))
    try:
        loader(path)
    except QMoneyError:
        pass


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


def per_trial_postselect_suite(config, scheme, note=None):
    """postselect-suite as a plain loop that mints and checks every trial anew."""
    records = []
    for trial in range(config.trials):
        rng, seed = trial_rng(config.master_seed, trial)
        money = postselect.mint(scheme, rng) if note is None else note
        analysis = postselect.component_analysis(scheme, money.label)
        r = postselect.default_iteration_count(analysis)
        verifier = postselect.build_verifier(scheme, r)
        _, prob = postselect.verify_money(verifier, money, rng)
        mv_residual = float(
            np.linalg.norm(postselect.apply_M(verifier, money.state) - money.state)
        )
        metrics = {
            "accept_prob": prob,
            "mv_residual": mv_residual,
            "support_size": money.support_size,
            "r": r,
            "components": len(analysis.components),
            "plus_dim": analysis.plus_dim,
        }
        if scheme.n <= 6:
            metrics["kraus_dev"] = postselect.kraus_equivalence_check(verifier)
        passed = (
            prob >= 1.0 - 1e-9
            and mv_residual <= 1e-10
            and analysis.plus_dim == len(analysis.components)
        )
        records.append(ResultRecord(config.kind, trial, seed, metrics, passed))
    return records


@pytest.mark.parametrize(
    "params, trials", [(LabelParams(6, 3, 2, 0), 40), (LabelParams(9, 4, 2, 1), 30)]
)
def test_postselect_suite_records_equal_the_per_trial_loop(params, trials):
    config = ExperimentConfig("postselect-suite", trials, 5, label=params)
    want = per_trial_postselect_suite(config, params.build())
    assert run_experiment(config) == want
    assert len({rec.metrics["support_size"] for rec in want}) > 1  # labels differ


def test_postselect_suite_from_a_note_equals_the_per_trial_loop(tmp_path):
    scheme = make_label_scheme(6, 3, 2, 2)
    path = tmp_path / "suite.note"
    save_note(path, scheme, mint(scheme, np.random.default_rng(3)))
    config = ExperimentConfig("postselect-suite", 4, 8, source=str(path))
    assert run_experiment(config) == per_trial_postselect_suite(config, *load_note(path))


def test_postselect_suite_verifies_each_distinct_label_once(monkeypatch):
    calls = []
    verify_money = postselect.verify_money

    def counted(verifier, money, rng):
        calls.append(money.label)
        return verify_money(verifier, money, rng)

    monkeypatch.setattr(postselect, "verify_money", counted)
    params = LabelParams(6, 3, 2, 0)
    scheme = params.build()
    labels = {mint(scheme, trial_rng(5, t)[0]).label for t in range(40)}
    run_experiment(ExperimentConfig("postselect-suite", 40, 5, label=params))
    assert sorted(calls) == sorted(labels) and len(labels) < 40


def trial_major_low_eps_attack(config):
    """low-eps-attack as a plain loop: every Hamiltonian first, then one whole forge per trial."""
    _, scheme = gen_scheme(config.scheme, setup_rng(config.master_seed))
    hams = [phase.register_hamiltonian(ops) for ops in scheme.table]
    analysis_money, analysis_recs = phase.forge_low_eps_with_records(hams, mode="analysis")
    mean_p1 = float(np.mean([(1.0 + rec.trace_h_rho) / 2.0 for rec in analysis_recs]))
    records = []
    for trial in range(config.trials):
        rng, seed = trial_rng(config.master_seed, trial)
        if config.options["mode"] == "analysis":
            money, recs = analysis_money, analysis_recs
        else:
            money, recs = phase.forge_low_eps_with_records(hams, rng, "sample")
        out = verify(scheme, money, rng)
        metrics = {
            "q_value": out.q_value,
            "accepted": int(out.accepted),
            "frac_fully_mixed": float(np.mean([rec.fully_mixed for rec in recs])),
            "mean_p1_analysis": mean_p1,
        }
        records.append(ResultRecord(config.kind, trial, seed, metrics, out.accepted))
    return records


def record_bytes(records):
    """The records with every float as its 8 bytes, so -0.0, 0.0 and NaNs stay apart."""
    return [
        (rec.experiment, rec.trial, rec.seed, rec.passed,
         {k: struct.pack("<d", v) if isinstance(v, float) else v for k, v in rec.metrics.items()})
        for rec in records
    ]


@pytest.mark.parametrize("mode", ["sample", "analysis"])
@pytest.mark.parametrize("n, m", [(3, 32), (6, 64)])
@pytest.mark.parametrize("seed", [3, 11])
def test_low_eps_records_equal_the_trial_major_loop(mode, n, m, seed):
    config = ExperimentConfig(
        "low-eps-attack", 3, seed, SchemeParams(n, m, 16, 1 / 128), options={"mode": mode}
    )
    assert record_bytes(run_experiment(config)) == record_bytes(trial_major_low_eps_attack(config))


def test_low_eps_records_equal_the_trial_major_loop_when_every_draw_misses(monkeypatch):
    # phase 0 lies below the accept window, so every register takes the fully mixed fallback
    monkeypatch.setattr(phase, "pe_sample", lambda phi, q, rng: 0)
    config = ExperimentConfig(
        "low-eps-attack", 3, 5, SchemeParams(3, 32, 16, 1 / 128), options={"mode": "sample"}
    )
    records = run_experiment(config)
    assert all(rec.metrics["frac_fully_mixed"] == 1.0 for rec in records)
    assert record_bytes(records) == record_bytes(trial_major_low_eps_attack(config))


def test_low_eps_run_memory_does_not_grow_with_the_register_count():
    def peak(l):
        config = ExperimentConfig(
            "low-eps-attack", 3, 2, SchemeParams(8, 64, l, 1 / 128), options={"mode": "sample"}
        )
        tracemalloc.start()
        try:
            records = run_experiment(config)
            return tracemalloc.get_traced_memory()[1], records
        finally:
            tracemalloc.stop()

    peak(2)  # warm up: imports and caches
    (small, _), (large, records) = peak(2), peak(8)
    # a fully mixed register views its eigenbasis (1 MiB at n=8); none is forged here
    assert all(rec.metrics["frac_fully_mixed"] == 0.0 for rec in records)
    # each of the 6 more registers costs 1 MiB of eigenbasis if they are all kept alive
    assert large - small <= 0.5 * 2**20, (small, large)


def counted_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that logs each call; return the log."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


_SETUP = SchemeParams(6, 16, 8, 0.5)
_LOW_EPS = SchemeParams(3, 32, 16, 1 / 128)
_BETA = LabelParams(10, 4, 2, 0)
_FROZEN = {"beta": 12.0, "start_frozen": True}


@pytest.mark.parametrize(
    "kind, inputs, options, setup",
    [
        ("honest-acceptance", {"scheme": _SETUP}, {}, {"gen_scheme": 1}),
        ("honest-acceptance", {"source": "scheme"}, {}, {"load_scheme": 1}),
        ("clique-attack", {"scheme": _SETUP}, {}, {"gen_scheme": 1, "run_clique_attack": 1}),
        # one Hamiltonian per register, l=16
        ("low-eps-attack", {"scheme": _LOW_EPS}, {}, {"gen_scheme": 1, "register_hamiltonian": 16}),
        ("postselect-suite", {"label": LabelParams(6, 3, 2, 0)}, {}, {"build": 1}),
        ("postselect-suite", {"source": "note"}, {}, {"load_note": 1}),
        ("beta-mixing", {"label": _BETA}, _FROZEN, {"build": 1, "find_frozen_strings": 1}),
        # the unbiased chain's exact kernel is evolved once, then translated
        ("beta-mixing", {"label": _BETA}, {"beta": 0.0}, {"build": 1, "_evolve_kernel": 1}),
    ],
)
def test_each_kind_sets_up_once_for_all_its_trials(
    monkeypatch, tmp_path, kind, inputs, options, setup
):
    if inputs.get("source") == "scheme":
        secret, scheme = small_scheme(n=6, m=16, l=8, eps=0.5)
        save_scheme(tmp_path / "s.scheme", scheme, secret)
        inputs = {"source": str(tmp_path / "s.scheme")}
    elif inputs.get("source") == "note":
        label_scheme = make_label_scheme(6, 3, 2, 2)
        save_note(tmp_path / "n.note", label_scheme, mint(label_scheme, np.random.default_rng(3)))
        inputs = {"source": str(tmp_path / "n.note")}
    owners = {
        "gen_scheme": harness,
        "load_scheme": harness,
        "load_note": harness,
        "build": LabelParams,
        "run_clique_attack": clique,
        "register_hamiltonian": phase,
        "find_frozen_strings": postselect,
        "_evolve_kernel": postselect,
    }
    calls = {name: counted_calls(monkeypatch, owners[name], name) for name in setup}
    records = run_experiment(ExperimentConfig(kind, 3, 7, options=options, **inputs))
    assert [rec.trial for rec in records] == [0, 1, 2]
    assert {name: len(log) for name, log in calls.items()} == setup


def test_each_beta_mixing_run_evolves_its_own_plain_kernel(monkeypatch):
    calls = counted_calls(monkeypatch, postselect, "_evolve_kernel")
    config = ExperimentConfig("beta-mixing", 3, 7, label=_BETA, options={"beta": 0.0})
    first = run_experiment(config)
    assert run_experiment(config) == first
    assert len(calls) == 2  # no kernel outlives its run's scheme


@pytest.mark.parametrize("results", [1, 2, 4])
def test_a_runner_yielding_the_wrong_number_of_results_raises(monkeypatch, results):
    kind = harness._KINDS["eigenvalue-check"]
    runner = kind._replace(run=lambda config, rngs: iter([({}, True)] * results))
    monkeypatch.setitem(harness._KINDS, "eigenvalue-check", runner)
    config = ExperimentConfig("eigenvalue-check", 3, 0, scheme=SchemeParams(4, 8, 1, 0.0))
    with pytest.raises(ValueError):
        run_experiment(config)


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
    low_eps = SchemeParams(3, 32, 16, 1 / 128)
    for mode in ("analysys", "Sample", "", None):  # a typo must not run sample mode
        with pytest.raises(ValueError, match="mode"):
            ExperimentConfig("low-eps-attack", 1, 0, low_eps, options={"mode": mode})
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="beta must be finite"):
            ExperimentConfig("beta-mixing", 1, 0, label=_BETA, options={"beta": beta})
    ExperimentConfig("beta-mixing", 1, 0, label=_BETA, options={"beta": -2.5})  # finite stays legal
    for steps in (0, -3):
        with pytest.raises(ValueError, match="need steps >= 1"):
            ExperimentConfig("beta-mixing", 1, 0, label=_BETA, options={"steps": steps})
    ExperimentConfig("beta-mixing", 1, 0, label=_BETA, options={"steps": 1})
    for target in (-1, 16, 999):  # _BETA has s=4: labels 0..15
        with pytest.raises(ValueError, match=f"target label {target} is not an s=4 bit label"):
            ExperimentConfig("beta-mixing", 1, 0, label=_BETA, options={"target_label": target})
    for target in (0, 15):
        ExperimentConfig("beta-mixing", 1, 0, label=_BETA, options={"target_label": target})


def test_config_rejects_option_keys_its_kind_does_not_read():
    with pytest.raises(ValueError, match="start-frozen"):  # hyphen, not underscore
        ExperimentConfig(
            "beta-mixing", 1, 0, label=LabelParams(8, 4, 2, 0), options={"start-frozen": True}
        )
    with pytest.raises(ValueError):
        ExperimentConfig("postselect-suite", 1, 0, label=LabelParams(8, 4, 2, 0), options={"mode": "x"})
    for kind, inputs in (
        ("clique-attack", {"scheme": SchemeParams(6, 16, 8, 0.5)}),
        ("postselect-suite", {"label": LabelParams(8, 4, 2, 0)}),  # r is always derived
    ):
        with pytest.raises(ValueError, match=r"reads no option \['r'\]"):
            ExperimentConfig(kind, 1, 0, options={"r": 3}, **inputs)
    ExperimentConfig(
        "beta-mixing",
        1,
        0,
        label=LabelParams(8, 4, 2, 0),
        options={"beta": 1.0, "steps": 10, "target_label": 0, "start_frozen": False},
    )


def _option_keys_read(run) -> set[str]:
    """The keys run reads as config.options.get("key", ...) or config.options["key"].

    Every use of config.options must be one of these two reads with a
    literal key, so no read escapes the count.
    """
    tree = ast.parse(textwrap.dedent(inspect.getsource(run)))
    uses = [node for node in ast.walk(tree) if ast.unparse(node) == "config.options"]
    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr != "get" or not node.args:
                continue
            target, key = node.func.value, node.args[0]
        else:
            continue
        if ast.unparse(target) == "config.options":
            assert isinstance(key, ast.Constant) and isinstance(key.value, str), ast.unparse(node)
            keys.append(key.value)
    assert len(keys) == len(uses), f"{run.__name__} uses config.options other than by key"
    return set(keys)


@pytest.mark.parametrize("kind", sorted(harness._KINDS))
def test_each_runner_reads_exactly_the_option_keys_its_kind_declares(kind):
    declared = harness._KINDS[kind]
    assert _option_keys_read(declared.run) == declared.options


@pytest.mark.parametrize("shape", [(0, 3, 2), (6, 0, 1), (6, 3, 0), (6, 3, 5)])
def test_label_params_refuse_a_shape_no_scheme_has(shape):
    with pytest.raises(ValueError, match=r"need n, s >= 1 and 1 <= d <= s"):
        LabelParams(*shape, 0)


def test_start_frozen_without_frozen_strings_is_an_error():
    sch = LabelParams(4, 1, 1, 1)
    assert len(find_frozen_strings(sch.build())) == 0
    config = ExperimentConfig(
        "beta-mixing", 1, 0, label=sch, options={"beta": 12.0, "start_frozen": True}
    )
    with pytest.raises(ValueError, match="no frozen strings"):
        run_experiment(config)


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
