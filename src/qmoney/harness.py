"""Seeded experiment orchestration, scheme/note files, result emission.

Per-trial seeds come from a counter-based split of the master seed
(SeedSequence spawn keys), never from sequential draws, so any subset of
trials can be reproduced in isolation and in any order.  Trial 17 of a
run is the same experiment no matter how many trials surround it.

Files are versioned UTF-8 text with one operator per line in the
sign+{I,X,Y,Z}**n encoding; see save_scheme / save_note.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import clique, phase, postselect
from .errors import SchemeFormatError
from .money import (
    MoneyScheme,
    SchemeParams,
    SecretKey,
    completely_mixed_money,
    gen_scheme,
    honest_money,
    verify,
)
from .pauli import PauliOp, random_pauli
from .stabilizer import StabilizerState

__all__ = [
    "EXPERIMENT_KINDS",
    "LabelParams",
    "ExperimentConfig",
    "ResultRecord",
    "setup_rng",
    "trial_rng",
    "run_experiment",
    "save_scheme",
    "load_scheme",
    "save_note",
    "load_note",
    "money_from_label",
    "mint_note",
    "emit_results",
    "summarize",
]

EXPERIMENT_KINDS = (
    "honest-acceptance",
    "clique-attack",
    "low-eps-attack",
    "eigenvalue-check",
    "postselect-suite",
    "beta-mixing",
)


@dataclass(frozen=True)
class LabelParams:
    n: int
    s: int
    d: int
    seed: int

    def build(self) -> postselect.LabelScheme:
        return postselect.make_label_scheme(self.n, self.s, self.d, self.seed)


_SCHEME_KINDS = ("honest-acceptance", "clique-attack", "low-eps-attack", "eigenvalue-check")
_SOURCE_KINDS = ("honest-acceptance", "clique-attack", "low-eps-attack", "postselect-suite")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: its kind, trial count, master seed and inputs.

    The inputs are either generated from params (``scheme`` for the
    stabilizer kinds, ``label`` for the postselection kinds) or read from
    ``source``, the path of a scheme file or, for postselect-suite, a
    note file.  Exactly one of the two is set.
    """

    kind: str
    trials: int
    master_seed: int
    scheme: SchemeParams | None = None
    label: LabelParams | None = None
    options: dict = field(default_factory=dict)
    source: str | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.source is not None and self.kind not in _SOURCE_KINDS:
            raise ValueError(f"{self.kind} cannot run from a source file")
        need = "scheme" if self.kind in _SCHEME_KINDS else "label"
        if (getattr(self, need) is None) == (self.source is None):
            raise ValueError(f"{self.kind} needs exactly one of {need} params and a source file")


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    trial: int
    seed: int
    metrics: dict
    passed: bool


def _seed_seq(master_seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=key)


def setup_rng(master_seed: int) -> np.random.Generator:
    """Generator for one-off setup work (scheme generation etc.)."""
    return np.random.default_rng(_seed_seq(master_seed, 0))


def trial_rng(master_seed: int, trial: int) -> tuple[np.random.Generator, int]:
    """(generator, recorded seed) for one trial; independent of other trials."""
    seq = _seed_seq(master_seed, 1, trial)
    return np.random.default_rng(seq), int(seq.generate_state(1)[0])


def _record(config: ExperimentConfig, trial: int, seed: int, metrics: dict, passed: bool) -> ResultRecord:
    return ResultRecord(config.kind, trial, seed, metrics, bool(passed))


def _scheme_and_secret(
    config: ExperimentConfig, rng: np.random.Generator
) -> tuple[MoneyScheme, SecretKey | None]:
    """The source file's scheme and secret, or a fresh pair drawn from rng."""
    if config.source is not None:
        return load_scheme(config.source)
    secret, scheme = gen_scheme(config.scheme, rng)
    return scheme, secret


def _run_honest_acceptance(config: ExperimentConfig) -> list[ResultRecord]:
    """Honest and mixed money per trial; a secret-less source checks only mixed."""
    scheme, secret = _scheme_and_secret(config, setup_rng(config.master_seed))
    honest = None if secret is None else honest_money(secret)
    mixed = completely_mixed_money(scheme.params)
    records = []
    for trial in range(config.trials):
        rng, seed = trial_rng(config.master_seed, trial)
        metrics = {}
        passed = True
        if honest is not None:
            out_h = verify(scheme, honest, rng)
            metrics["q_honest"] = out_h.q_value
            metrics["accepted_honest"] = int(out_h.accepted)
            passed = out_h.accepted
        out_m = verify(scheme, mixed, rng)
        metrics["q_mixed"] = out_m.q_value
        metrics["accepted_mixed"] = int(out_m.accepted)
        records.append(_record(config, trial, seed, metrics, passed and not out_m.accepted))
    return records


def _run_clique_attack(config: ExperimentConfig) -> list[ResultRecord]:
    rng0 = setup_rng(config.master_seed)
    scheme, secret = _scheme_and_secret(config, rng0)
    attack = clique.run_clique_attack(scheme, secret, rng0)
    sizes = [r.clique_size for r in attack.reports]
    overlaps = [r.planted_overlap for r in attack.reports if r.planted_overlap is not None]
    constant = {
        "failed_registers": len(attack.failed_registers),
        "mean_clique_size": float(np.mean(sizes)),
        "mean_p1_estimate": float(np.mean([r.p1_estimate for r in attack.reports])),
    }
    if overlaps:
        constant["mean_planted_overlap"] = float(np.mean(overlaps))
    records = []
    for trial in range(config.trials):
        rng, seed = trial_rng(config.master_seed, trial)
        out = verify(scheme, attack.money, rng)
        metrics = {"q_value": out.q_value, "accepted": int(out.accepted), **constant}
        records.append(_record(config, trial, seed, metrics, out.accepted))
    return records


def _run_low_eps_attack(config: ExperimentConfig) -> list[ResultRecord]:
    scheme, _ = _scheme_and_secret(config, setup_rng(config.master_seed))
    hams = [phase.register_hamiltonian(ops) for ops in scheme.table]
    mode = config.options.get("mode", "sample")
    analysis_money, analysis_recs = phase.forge_low_eps_with_records(
        scheme, mode="analysis", hamiltonians=hams
    )
    mean_p1 = float(np.mean([(1.0 + rec.trace_h_rho) / 2.0 for rec in analysis_recs]))
    records = []
    for trial in range(config.trials):
        rng, seed = trial_rng(config.master_seed, trial)
        if mode == "analysis":
            money, recs = analysis_money, analysis_recs  # deterministic: forged once
        else:
            money, recs = phase.forge_low_eps_with_records(
                scheme, rng, "sample", hamiltonians=hams
            )
        out = verify(scheme, money, rng)
        metrics = {
            "q_value": out.q_value,
            "accepted": int(out.accepted),
            "frac_fully_mixed": float(np.mean([rec.fully_mixed for rec in recs])),
            "mean_p1_analysis": mean_p1,
        }
        records.append(_record(config, trial, seed, metrics, out.accepted))
    return records


def _run_eigenvalue_check(config: ExperimentConfig) -> list[ResultRecord]:
    p = config.scheme
    bound = 10.0 * math.sqrt(p.m)
    records = []
    for trial in range(config.trials):
        rng, seed = trial_rng(config.master_seed, trial)
        ops = [random_pauli(p.n, rng, allow_identity=False) for _ in range(p.m)]
        lam = clique.max_eigenvalue_check(ops)
        metrics = {"lambda_max": lam, "bound": bound}
        records.append(_record(config, trial, seed, metrics, lam <= bound))
    return records


def _run_postselect_suite(config: ExperimentConfig) -> list[ResultRecord]:
    """Mint (or take the source note), verify, and check the class structure.

    ``options["r"]`` fixes the verifier's iteration count; otherwise it is
    chosen per label from the class spectrum, or 64 for a gapless class.
    """
    if config.source is None:
        scheme, note = config.label.build(), None
    else:
        scheme, note = load_note(config.source)
    fixed_r = config.options.get("r")
    analyses: dict[int, postselect.ComponentAnalysis] = {}
    records = []
    for trial in range(config.trials):
        rng, seed = trial_rng(config.master_seed, trial)
        money = postselect.mint(scheme, rng) if note is None else note
        if money.label not in analyses:
            analyses[money.label] = postselect.component_analysis(scheme, money.label)
        analysis = analyses[money.label]
        r = fixed_r or postselect.default_iteration_count(analysis) or 64
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
        records.append(_record(config, trial, seed, metrics, passed))
    return records


def _run_beta_mixing(config: ExperimentConfig) -> list[ResultRecord]:
    scheme = config.label.build()
    beta = float(config.options.get("beta", 0.0))
    steps = int(
        config.options.get("steps", scheme.n * math.log(2**scheme.n) * 10)
    )
    target = config.options.get("target_label")
    start_frozen = bool(config.options.get("start_frozen", False))
    frozen = postselect.find_frozen_strings(scheme) if start_frozen else ()
    records = []
    for trial in range(config.trials):
        rng, seed = trial_rng(config.master_seed, trial)
        start = int(frozen[trial % len(frozen)]) if len(frozen) else None
        if target is not None:
            ell = int(target)
        elif start is not None:
            ell = postselect.label(scheme, start)  # pin the chain in its own class
        else:
            ell = postselect.label(scheme, int(rng.integers(1 << scheme.n)))
        diag = postselect.beta_chain_mixing(scheme, ell, beta, steps, rng, start)
        metrics = {
            "acceptance_rate": diag.acceptance_rate,
            "autocorr_time": diag.autocorr_time,
            "frozen": int(diag.frozen),
            "mean_energy": diag.mean_energy,
            "steps": steps,
        }
        if diag.tv_distance is not None:
            metrics["tv_distance"] = diag.tv_distance
        if beta >= 10:
            passed = diag.frozen if start is not None else True
        elif diag.tv_distance is not None:
            passed = diag.tv_distance <= 0.05
        else:
            passed = not diag.frozen
        records.append(_record(config, trial, seed, metrics, passed))
    return records


_RUNNERS = {
    "honest-acceptance": _run_honest_acceptance,
    "clique-attack": _run_clique_attack,
    "low-eps-attack": _run_low_eps_attack,
    "eigenvalue-check": _run_eigenvalue_check,
    "postselect-suite": _run_postselect_suite,
    "beta-mixing": _run_beta_mixing,
}


def run_experiment(config: ExperimentConfig) -> list[ResultRecord]:
    """Run all trials; fully determined by the config and its source file."""
    return _RUNNERS[config.kind](config)


# --- scheme files -----------------------------------------------------------

_SCHEME_MAGIC = "qmoney-scheme v1"
_NOTE_MAGIC = "qmoney-note v1"


def save_scheme(
    path: str | Path,
    scheme: MoneyScheme,
    secret: SecretKey | None = None,
    seed: int | None = None,
) -> None:
    p = scheme.params
    lines = [_SCHEME_MAGIC, f"n {p.n}", f"m {p.m}", f"l {p.l}", f"epsilon {p.epsilon!r}"]
    if seed is not None:
        lines.append(f"seed {seed}")
    lines.append("table")
    for i, register in enumerate(scheme.table):
        lines.append(f"register {i}")
        lines.extend(op.to_string() for op in register)
    if secret is not None:
        lines.append("secret")
        for i, state in enumerate(secret.states):
            lines.append(f"register {i}")
            lines.extend(g.to_string() for g in state.generators)
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class _LineReader:
    def __init__(self, path: str | Path):
        self.lines = Path(path).read_text(encoding="utf-8").splitlines()
        self.pos = 0

    def next(self) -> tuple[int, str]:
        while self.pos < len(self.lines):
            self.pos += 1
            text = self.lines[self.pos - 1].strip()
            if text:
                return self.pos, text
        raise SchemeFormatError("unexpected end of file", self.pos)


def _read_register_block(reader: _LineReader, i: int, count: int, n: int) -> tuple[PauliOp, ...]:
    lineno, text = reader.next()
    if text != f"register {i}":
        raise SchemeFormatError(f"expected 'register {i}', got {text!r}", lineno)
    ops = []
    for _ in range(count):
        lineno, text = reader.next()
        try:
            op = PauliOp.from_string(text)
        except ValueError as exc:
            raise SchemeFormatError(str(exc), lineno) from exc
        if op.n != n:
            raise SchemeFormatError(f"operator has {op.n} qubits, expected {n}", lineno)
        if not op.is_hermitian:
            raise SchemeFormatError("operators in files must carry a +/- sign", lineno)
        ops.append(op)
    return tuple(ops)


def load_scheme(path: str | Path) -> tuple[MoneyScheme, SecretKey | None]:
    """Parse a scheme file; errors carry the offending line number."""
    reader = _LineReader(path)
    lineno, text = reader.next()
    if text != _SCHEME_MAGIC:
        raise SchemeFormatError(f"unsupported header {text!r}", lineno)
    header: dict[str, str] = {}
    while True:
        lineno, text = reader.next()
        if text == "table":
            break
        parts = text.split(maxsplit=1)
        if len(parts) != 2 or parts[0] not in ("n", "m", "l", "epsilon", "seed"):
            raise SchemeFormatError(f"bad header line {text!r}", lineno)
        header[parts[0]] = parts[1]
    try:
        params = SchemeParams(
            int(header["n"]), int(header["m"]), int(header["l"]), float(header["epsilon"])
        )
    except KeyError as exc:
        raise SchemeFormatError(f"missing header field {exc.args[0]}", lineno) from exc
    table = tuple(
        _read_register_block(reader, i, params.m, params.n) for i in range(params.l)
    )
    scheme = MoneyScheme(params, table)
    secret = None
    lineno, text = reader.next()
    if text == "secret":
        states = tuple(
            StabilizerState(
                params.n, _read_register_block(reader, i, params.n, params.n)
            )
            for i in range(params.l)
        )
        secret = SecretKey(states)
        lineno, text = reader.next()
    if text != "end":
        raise SchemeFormatError(f"expected 'end', got {text!r}", lineno)
    return scheme, secret


# --- note files --------------------------------------------------------------


def money_from_label(scheme: postselect.LabelScheme, ell: int) -> postselect.LabeledMoney:
    """Rebuild the uniform superposition for a label (exact at small n)."""
    table = postselect.label_table(scheme)
    support = np.flatnonzero(table == ell)
    if len(support) == 0:
        raise ValueError(f"label {ell} has empty preimage")
    state = np.zeros(1 << scheme.n, dtype=complex)
    state[support] = 1.0 / math.sqrt(len(support))
    return postselect.LabeledMoney(int(ell), state, len(support))


def mint_note(
    params: LabelParams, master_seed: int
) -> tuple[postselect.LabelScheme, postselect.LabeledMoney]:
    """The note that trial 0 of a postselect-suite run with these params and seed mints."""
    scheme = params.build()
    return scheme, postselect.mint(scheme, trial_rng(master_seed, 0)[0])


def save_note(path: str | Path, scheme: postselect.LabelScheme, money: postselect.LabeledMoney) -> None:
    lines = [
        _NOTE_MAGIC,
        f"n {scheme.n}",
        f"s {scheme.s}",
        f"d {scheme.d}",
        f"label_seed {scheme.seed}",
        f"label {postselect.label_bits(money.label, scheme.s)}",
        "end",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_note(path: str | Path) -> tuple[postselect.LabelScheme, postselect.LabeledMoney]:
    reader = _LineReader(path)
    lineno, text = reader.next()
    if text != _NOTE_MAGIC:
        raise SchemeFormatError(f"unsupported header {text!r}", lineno)
    header: dict[str, str] = {}
    while True:
        lineno, text = reader.next()
        if text == "end":
            break
        parts = text.split(maxsplit=1)
        if len(parts) != 2 or parts[0] not in ("n", "s", "d", "label_seed", "label"):
            raise SchemeFormatError(f"bad note line {text!r}", lineno)
        header[parts[0]] = parts[1]
    try:
        scheme = postselect.make_label_scheme(
            int(header["n"]), int(header["s"]), int(header["d"]), int(header["label_seed"])
        )
        ell = postselect.parse_label_bits(header["label"])
    except KeyError as exc:
        raise SchemeFormatError(f"missing note field {exc.args[0]}", lineno) from exc
    except ValueError as exc:
        raise SchemeFormatError(str(exc), lineno) from exc
    return scheme, money_from_label(scheme, ell)


# --- result emission ----------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _metric_columns(records: Sequence[ResultRecord]) -> list[str]:
    keys: set[str] = set()
    for rec in records:
        keys.update(rec.metrics)
    return sorted(keys)


def emit_results(
    records: Sequence[ResultRecord], path: str | Path, fmt: str = "csv"
) -> None:
    """Write records as CSV (header row, stable column order) or line-JSON."""
    path = Path(path)
    if fmt == "csv":
        metric_cols = _metric_columns(records)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["experiment", "trial", "seed", *metric_cols, "passed"])
            for rec in records:
                row = [rec.experiment, rec.trial, rec.seed]
                row += [
                    _format_value(rec.metrics[k]) if k in rec.metrics else ""
                    for k in metric_cols
                ]
                row.append(int(rec.passed))
                writer.writerow(row)
    elif fmt == "jsonl":
        with path.open("w", encoding="utf-8") as fh:
            for rec in records:
                metrics = {
                    k: (None if isinstance(v, float) and not math.isfinite(v) else v)
                    for k, v in rec.metrics.items()
                }
                fh.write(
                    json.dumps(
                        {
                            "experiment": rec.experiment,
                            "trial": rec.trial,
                            "seed": rec.seed,
                            "metrics": metrics,
                            "passed": rec.passed,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
    else:
        raise ValueError(f"unknown format {fmt!r} (use 'csv' or 'jsonl')")


def summarize(records: Iterable[ResultRecord]) -> dict:
    """Per-metric mean/std/min/max plus the overall pass fraction.

    The statistics cover the finite values only (NaN when there are none);
    a metric with inf or NaN values also gets their count as ``nonfinite``.
    """
    records = list(records)
    out: dict = {"trials": len(records)}
    if not records:
        return out
    out["pass_fraction"] = sum(rec.passed for rec in records) / len(records)
    for key in _metric_columns(records):
        vals = np.array(
            [rec.metrics[key] for rec in records if key in rec.metrics], dtype=float
        )
        finite = vals[np.isfinite(vals)]
        stats = {
            stat: float(getattr(finite, stat)()) if finite.size else math.nan
            for stat in ("mean", "std", "min", "max")
        }
        if finite.size < vals.size:
            stats["nonfinite"] = int(vals.size - finite.size)
        out[key] = stats
    return out
