"""End-to-end runs of every CLI subcommand through main(argv)."""

import argparse
import csv
import json

import pytest

from qmoney import harness, postselect
from qmoney.cli import build_parser, main
from qmoney.harness import (
    ExperimentConfig,
    LabelParams,
    emit_results,
    load_scheme,
    run_experiment,
)
from qmoney.money import SchemeParams


def test_gen_scheme_and_verify(tmp_path, capsys):
    scheme_path = str(tmp_path / "s.scheme")
    rc = main(
        [
            "gen-scheme", "--n", "8", "--m", "32", "--l", "16",
            "--epsilon", "0.5", "--seed", "3", "--include-secret",
            "--out", scheme_path,
        ]
    )
    assert rc == 0
    scheme, secret = load_scheme(scheme_path)
    assert scheme.params.m == 32
    assert secret is not None

    rc = main(["verify", "--scheme", scheme_path, "--trials", "10", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pass_fraction" in out

    csv_path = str(tmp_path / "v.csv")
    rc = main(
        ["verify", "--scheme", scheme_path, "--trials", "5", "--seed", "1", "--out", csv_path]
    )
    assert rc == 0
    rows = list(csv.reader(open(csv_path)))
    assert rows[0][0] == "experiment"
    assert len(rows) == 6


def test_verify_without_secret_checks_mixed_money_only(tmp_path):
    scheme_path = str(tmp_path / "nosecret.scheme")
    assert main(["gen-scheme", "--n", "6", "--m", "16", "--l", "8",
                 "--epsilon", "0.5", "--out", scheme_path]) == 0
    csv_path = str(tmp_path / "v.csv")
    assert main(["verify", "--scheme", scheme_path, "--trials", "6", "--out", csv_path]) == 0
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 6
    assert set(rows[0]) == {"experiment", "trial", "seed", "q_mixed", "accepted_mixed", "passed"}
    for row in rows:
        assert row["passed"] == str(1 - int(row["accepted_mixed"]))


@pytest.mark.parametrize("secret", [["--include-secret"], []])
def test_verify_runs_on_a_scheme_beyond_the_dense_limit(secret, tmp_path):
    # the clique-attack shape: mixed money at n=50 stores n alone
    scheme_path = str(tmp_path / "n50.scheme")
    assert main(["gen-scheme", "--n", "50", "--m", "400", "--l", "32", "--epsilon", "0.5",
                 *secret, "--out", scheme_path]) == 0
    csv_path = str(tmp_path / "v.csv")
    assert main(["verify", "--scheme", scheme_path, "--trials", "3", "--out", csv_path]) == 0
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 3
    assert ("q_honest" in rows[0]) == bool(secret)


def test_gen_scheme_requires_out():
    with pytest.raises(SystemExit) as exc:
        main(["gen-scheme", "--n", "4", "--m", "8", "--l", "4", "--epsilon", "0.5"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-scheme", "--n", "4", "--m", "8", "--l", "4", "--epsilon", "0.5", "--format", "jsonl"],
        ["mint", "--n", "6", "--s", "3", "--d", "2", "--format", "csv"],
    ],
)
def test_file_writers_take_no_format_flag(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "file")])
    assert exc.value.code == 2
    assert not (tmp_path / "file").exists()


# (CLI arguments without --out; what stderr must say)
BAD_VALUE_CASES = [
    (["gen-scheme", "--n", "0", "--m", "8", "--l", "4", "--epsilon", "0.5"],
     "n, m, l must all be >= 1"),
    (["gen-scheme", "--n", "4", "--m", "8", "--l", "4", "--epsilon", "1.5"],
     "epsilon must be in [0, 1], got 1.5"),
    (["mint", "--n", "6", "--s", "3", "--d", "5"],
     "need n, s >= 1 and 1 <= d <= s, got (6, 3, 5)"),
    (["beta-mix", "--n", "6", "--s", "3", "--d", "5"],
     "need n, s >= 1 and 1 <= d <= s, got (6, 3, 5)"),
    (["eig-check", "--n", "4", "--m", "0"], "n, m, l must all be >= 1"),
    (["verify-note", "--note", "n.note", "--r", "5"], "unrecognized arguments: --r 5"),
    (["gen-scheme", "--n", "4", "--m", "8", "--l", "4", "--epsilon", "0.5", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["mint", "--n", "6", "--s", "3", "--d", "2", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["eig-check", "--n", "4", "--m", "8", "--seed", "-1"], "master seed must be >= 0, got -1"),
    (["mint", "--n", "6", "--s", "3", "--d", "2", "--label-seed", "-1"],
     "label seed must be >= 0, got -1"),
    (["beta-mix", "--n", "6", "--s", "3", "--d", "2", "--label-seed", "-1"],
     "label seed must be >= 0, got -1"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_VALUE_CASES, ids=[" ".join(argv) for argv, _ in BAD_VALUE_CASES]
)
def test_bad_input_values_are_usage_errors(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "file")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "file").exists()


def test_each_harness_kind_is_the_kind_of_exactly_one_subcommand():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    kinds = [p.get_default("kind") for p in subparsers.choices.values()]
    assert sorted(k for k in kinds if k is not None) == sorted(harness._KINDS)


# (CLI arguments; the options they must build: exactly the flags typed)
OPTION_CASES = [
    (["attack-low-eps", "--scheme", "s.scheme"], {}),
    (["attack-low-eps", "--scheme", "s.scheme", "--mode", "analysis"], {"mode": "analysis"}),
    (["verify-note", "--note", "n.note"], {}),
    (["beta-mix", "--n", "6", "--s", "3", "--d", "2"], {}),
    (["beta-mix", "--n", "6", "--s", "3", "--d", "2", "--beta", "12"], {"beta": 12.0}),
    (["beta-mix", "--n", "6", "--s", "3", "--d", "2", "--steps", "200"], {"steps": 200}),
    (["beta-mix", "--n", "6", "--s", "3", "--d", "2", "--target-label", "1"], {"target_label": 1}),
    (["beta-mix", "--n", "6", "--s", "3", "--d", "2", "--start-frozen"], {"start_frozen": True}),
    (["verify", "--scheme", "s.scheme"], {}),
    (["attack-clique", "--scheme", "s.scheme"], {}),
    (["eig-check", "--n", "4", "--m", "8"], {}),
]


@pytest.mark.parametrize(
    "argv, options", OPTION_CASES, ids=[" ".join(argv) for argv, _ in OPTION_CASES]
)
def test_cli_options_hold_only_the_flags_typed(argv, options, monkeypatch):
    configs = []
    monkeypatch.setattr(harness, "run_experiment", lambda config: configs.append(config) or [])
    monkeypatch.setattr(harness, "summarize", lambda records: {"trials": 0, "pass_fraction": 0.0})
    assert main(argv) == 0
    (config,) = configs
    assert config.options == options
    assert (config.trials, config.master_seed) == (1, 0)


def test_attack_clique_cli(tmp_path, capsys):
    scheme_path = str(tmp_path / "s.scheme")
    main(["gen-scheme", "--n", "10", "--m", "128", "--l", "8", "--epsilon", "0.6",
          "--seed", "5", "--include-secret", "--out", scheme_path])
    rc = main(["attack-clique", "--scheme", scheme_path, "--trials", "5", "--seed", "2"])
    assert rc == 0
    assert "q_value" in capsys.readouterr().out


def test_attack_low_eps_cli(tmp_path, capsys):
    scheme_path = str(tmp_path / "low.scheme")
    main(["gen-scheme", "--n", "5", "--m", "16", "--l", "64", "--epsilon", "0.015625",
          "--seed", "6", "--out", scheme_path])
    jsonl_path = str(tmp_path / "r.jsonl")
    rc = main(["attack-low-eps", "--scheme", scheme_path, "--trials", "2",
               "--seed", "3", "--out", jsonl_path, "--format", "jsonl"])
    assert rc == 0
    lines = open(jsonl_path).read().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert "q_value" in rec["metrics"]


def test_eig_check_cli(capsys):
    rc = main(["eig-check", "--n", "12", "--m", "64", "--trials", "2", "--seed", "0"])
    assert rc == 0
    assert "lambda_max" in capsys.readouterr().out


def test_mint_and_verify_note_cli(tmp_path, capsys):
    note_path = str(tmp_path / "n.note")
    rc = main(["mint", "--n", "10", "--s", "4", "--d", "2",
               "--label-seed", "1", "--seed", "4", "--out", note_path])
    assert rc == 0
    text = open(note_path).read()
    assert text.startswith("qmoney-note v1")
    rc = main(["verify-note", "--note", note_path, "--trials", "3", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accept_prob" in out


def test_beta_mix_cli(capsys):
    rc = main(["beta-mix", "--n", "8", "--s", "4", "--d", "2", "--beta", "0",
               "--trials", "2", "--seed", "0"])
    assert rc == 0
    assert "tv_distance" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")
def test_beta_mix_cli_reports_frozen_chains_as_nonfinite(capsys):
    # a frozen chain's autocorrelation time is inf
    rc = main(["beta-mix", "--n", "6", "--s", "3", "--d", "2", "--beta", "12",
               "--steps", "200", "--start-frozen", "--trials", "3", "--seed", "7"])
    assert rc == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if "autocorr_time" in ln)
    assert "nonfinite=3" in line


def test_beta_mix_cli_steps_zero_is_rejected_not_the_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["beta-mix", "--n", "6", "--s", "3", "--d", "2", "--steps", "0"])
    assert exc.value.code == 2
    assert "steps >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["999", "-5"])
def test_beta_mix_cli_target_label_outside_s_bits_is_rejected(target, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["beta-mix", "--n", "6", "--s", "3", "--d", "2", "--target-label", target])
    assert exc.value.code == 2
    assert f"target label {target} is not an s=3 bit label" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["--beta=inf", "--beta=-inf", "--beta=nan"])
def test_beta_mix_cli_refuses_a_nonfinite_beta_as_a_usage_error(beta, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["beta-mix", "--n", "6", "--s", "3", "--d", "2", beta, "--start-frozen"])
    assert exc.value.code == 2
    assert "beta must be finite" in capsys.readouterr().err


def test_beta_mix_cli_takes_a_finite_negative_beta(capsys):
    assert main(["beta-mix", "--n", "6", "--s", "3", "--d", "2", "--beta=-1.5"]) == 0
    assert "tv_distance" in capsys.readouterr().out


def test_verify_note_cli_verifies_the_note_once(tmp_path, monkeypatch):
    note_path = str(tmp_path / "once.note")
    assert main(["mint", "--n", "8", "--s", "4", "--d", "2", "--label-seed", "1",
                 "--seed", "4", "--out", note_path]) == 0
    calls = []
    verify_money = postselect.verify_money

    def counted(*args):
        calls.append(args)
        return verify_money(*args)

    monkeypatch.setattr(postselect, "verify_money", counted)
    csv_path = tmp_path / "once.csv"
    assert main(["verify-note", "--note", note_path, "--trials", "5",
                 "--out", str(csv_path)]) == 0
    assert len(list(csv.DictReader(open(csv_path)))) == 5
    assert len(calls) == 1


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_seed_determinism_across_invocations(tmp_path):
    scheme_path = str(tmp_path / "s.scheme")
    main(["gen-scheme", "--n", "6", "--m", "16", "--l", "8", "--epsilon", "0.5",
          "--seed", "9", "--include-secret", "--out", scheme_path])
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    main(["verify", "--scheme", scheme_path, "--trials", "6", "--seed", "11", "--out", a])
    main(["verify", "--scheme", scheme_path, "--trials", "6", "--seed", "11", "--out", b])
    assert open(a).read() == open(b).read()


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    files = {"high": str(d / "high.scheme"), "low": str(d / "low.scheme"), "note": str(d / "n.note")}
    main(["gen-scheme", "--n", "10", "--m", "100", "--l", "8", "--epsilon", "0.8",
          "--seed", "5", "--include-secret", "--out", files["high"]])
    main(["gen-scheme", "--n", "3", "--m", "32", "--l", "16", "--epsilon", "0.0078125",
          "--seed", "6", "--out", files["low"]])
    main(["mint", "--n", "8", "--s", "4", "--d", "2", "--label-seed", "1",
          "--seed", "4", "--out", files["note"]])
    return files


# (CLI arguments, with input files as {placeholders}; the config they map to)
CLI_CASES = {
    "verify": (
        ["verify", "--scheme", "{high}"],
        lambda f: ExperimentConfig("honest-acceptance", 3, 7, source=f["high"]),
    ),
    "attack-clique": (
        ["attack-clique", "--scheme", "{high}"],
        lambda f: ExperimentConfig("clique-attack", 3, 7, source=f["high"]),
    ),
    "attack-low-eps": (
        ["attack-low-eps", "--scheme", "{low}"],
        lambda f: ExperimentConfig(
            "low-eps-attack", 3, 7, source=f["low"], options={"mode": "sample"}
        ),
    ),
    "attack-low-eps-analysis": (
        ["attack-low-eps", "--scheme", "{low}", "--mode", "analysis"],
        lambda f: ExperimentConfig(
            "low-eps-attack", 3, 7, source=f["low"], options={"mode": "analysis"}
        ),
    ),
    "eig-check": (
        ["eig-check", "--n", "8", "--m", "40"],
        lambda f: ExperimentConfig("eigenvalue-check", 3, 7, SchemeParams(8, 40, 1, 0.0)),
    ),
    "verify-note": (
        ["verify-note", "--note", "{note}"],
        lambda f: ExperimentConfig("postselect-suite", 3, 7, source=f["note"]),
    ),
    "beta-mix": (
        ["beta-mix", "--n", "6", "--s", "3", "--d", "2", "--beta", "12",
         "--steps", "200", "--start-frozen"],
        lambda f: ExperimentConfig(
            "beta-mixing",
            3,
            7,
            label=LabelParams(6, 3, 2, 0),
            options={"beta": 12.0, "steps": 200, "start_frozen": True},
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_out_is_the_harness_run_of_its_config(case, input_files, tmp_path):
    argv, config = CLI_CASES[case]
    cli_out, harness_out = tmp_path / "cli", tmp_path / "harness"
    argv = [arg.format(**input_files) for arg in argv]
    assert main([*argv, "--trials", "3", "--seed", "7", "--out", str(cli_out)]) == 0
    emit_results(run_experiment(config(input_files)), harness_out)
    assert cli_out.read_bytes() == harness_out.read_bytes()
