"""Seeded experiment orchestration, scheme/note files, result emission.

Per-trial seeds come from a counter-based split of the master seed
(SeedSequence spawn keys), never from sequential draws, so any subset of
trials can be reproduced in isolation and in any order.  Trial 17 of a
run is the same experiment no matter how many trials surround it.

The clique and phase runners import their attack module, and with it
scipy, when they run; the other kinds run on numpy alone.  The low-epsilon
runner walks the scheme's registers first and its trials second, so one
register Hamiltonian is alive at a time and a run's memory does not grow
with l.

Files are versioned UTF-8 text with one operator per line in the
sign+{I,X,Y,Z}**n encoding; see save_scheme / save_note.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import postselect
from .errors import CapacityError, InconsistentGeneratorsError, SchemeFormatError
from .money import (
    MoneyScheme,
    MoneyState,
    SchemeParams,
    SecretKey,
    completely_mixed_money,
    gen_scheme,
    honest_money,
    verify,
)
from .pauli import DENSE_LIMIT, PauliOp, random_pauli
from .stabilizer import StabilizerState

__all__ = [
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
    "mint_note",
    "emit_results",
    "summarize",
]


@dataclass(frozen=True)
class LabelParams:
    n: int
    s: int
    d: int
    seed: int

    def __post_init__(self):
        postselect.check_label_shape(self.n, self.s, self.d)

    def build(self) -> postselect.LabelScheme:
        return postselect.make_label_scheme(self.n, self.s, self.d, self.seed)


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
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.source is not None and not kind.from_source:
            raise ValueError(f"{self.kind} cannot run from a source file")
        if (getattr(self, kind.params) is None) == (self.source is None):
            raise ValueError(
                f"{self.kind} needs exactly one of {kind.params} params and a source file"
            )
        unknown = set(self.options) - kind.options
        if unknown:
            raise ValueError(f"{self.kind} reads no option {sorted(unknown)}")
        if self.options.get("mode", "sample") not in ("sample", "analysis"):
            raise ValueError(f"mode must be 'sample' or 'analysis', got {self.options['mode']!r}")
        if not math.isfinite(float(self.options.get("beta", 0.0))):
            raise ValueError(f"beta must be finite, got {self.options['beta']!r}")
        if int(self.options.get("steps", 1)) < 1:
            raise ValueError("need steps >= 1")
        target = self.options.get("target_label")
        if target is not None and not 0 <= int(target) < (1 << self.label.s):
            raise ValueError(f"target label {target} is not an s={self.label.s} bit label")


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


def _scheme_and_secret(
    config: ExperimentConfig, rng: np.random.Generator
) -> tuple[MoneyScheme, SecretKey | None]:
    """The source file's scheme and secret, or a fresh pair drawn from rng."""
    if config.source is not None:
        return load_scheme(config.source)
    secret, scheme = gen_scheme(config.scheme, rng)
    return scheme, secret


# Each runner does its setup once, then takes the trial generators in
# order and yields (metrics, passed) for each; run_experiment seeds the
# trials and builds the records.
_Rngs = Iterable[np.random.Generator]
_Trials = Iterator[tuple[dict, bool]]


def _run_honest_acceptance(config: ExperimentConfig, rngs: _Rngs) -> _Trials:
    """Honest and mixed money per trial; a secret-less source checks only mixed."""
    scheme, secret = _scheme_and_secret(config, setup_rng(config.master_seed))
    honest = None if secret is None else honest_money(secret)
    mixed = completely_mixed_money(scheme.params)
    for rng in rngs:
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
        yield metrics, passed and not out_m.accepted


def _run_clique_attack(config: ExperimentConfig, rngs: _Rngs) -> _Trials:
    from . import clique

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
    for rng in rngs:
        out = verify(scheme, attack.money, rng)
        yield {"q_value": out.q_value, "accepted": int(out.accepted), **constant}, out.accepted


def _run_low_eps_attack(config: ExperimentConfig, rngs: _Rngs) -> _Trials:
    """Forge register by register, then verify each trial's note.

    Each register's Hamiltonian is built, read by the analysis forge and
    by every trial's forge in trial order, and dropped before the next is
    built, so one eigenbasis is alive at a time.  In analysis mode every
    trial takes the analysis forge's register, which draws nothing.  Each
    trial generator still draws its registers in order and then verifies,
    as forge_low_eps_with_records followed by verify would.
    """
    from . import phase

    scheme, _ = _scheme_and_secret(config, setup_rng(config.master_seed))
    sample = config.options.get("mode", "sample") == "sample"
    rngs = list(rngs)
    analysis_recs = []
    forged = [[] for _ in rngs]  # each trial's (register, record) pairs
    for ops in scheme.table:
        ham = phase.register_hamiltonian(ops)
        analysis = phase.generate_rho_with_record(ham, mode="analysis")
        analysis_recs.append(analysis[1])
        for rng, pairs in zip(rngs, forged):
            pairs.append(phase.generate_rho_with_record(ham, rng, "sample") if sample else analysis)
        del ham  # before the next register's eigensolve
    mean_p1 = float(np.mean([(1.0 + rec.trace_h_rho) / 2.0 for rec in analysis_recs]))
    for rng, pairs in zip(rngs, forged):
        regs, recs = zip(*pairs)
        out = verify(scheme, MoneyState(regs), rng)
        metrics = {
            "q_value": out.q_value,
            "accepted": int(out.accepted),
            "frac_fully_mixed": float(np.mean([rec.fully_mixed for rec in recs])),
            "mean_p1_analysis": mean_p1,
        }
        yield metrics, out.accepted


def _run_eigenvalue_check(config: ExperimentConfig, rngs: _Rngs) -> _Trials:
    from . import clique

    p = config.scheme
    bound = 10.0 * math.sqrt(p.m)
    for rng in rngs:
        ops = [random_pauli(p.n, rng, allow_identity=False) for _ in range(p.m)]
        lam = clique.max_eigenvalue_check(ops)
        yield {"lambda_max": lam, "bound": bound}, lam <= bound


def _run_postselect_suite(config: ExperimentConfig, rngs: _Rngs) -> _Trials:
    """Mint (or take the source note), verify, and check the class structure.

    The verifier runs postselect.default_iteration_count of the label's
    class rounds.  Every note here is honest, a +1 eigenvector of M, so
    no round count changes its acceptance.  A note, and so every metric,
    depends on its label alone: each distinct label is checked once, by
    the first trial that mints it, and later trials reuse its metrics.
    The trial rng is not read after verification, so no draw moves.
    """
    if config.source is None:
        scheme, note = config.label.build(), None
    else:
        scheme, note = load_note(config.source)
    checked: dict[int, tuple[dict, bool]] = {}
    for rng in rngs:
        money = postselect.mint(scheme, rng) if note is None else note
        if money.label not in checked:
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
            checked[money.label] = metrics, passed
        metrics, passed = checked[money.label]
        yield dict(metrics), passed


def _run_beta_mixing(config: ExperimentConfig, rngs: _Rngs) -> _Trials:
    scheme = config.label.build()
    beta = float(config.options.get("beta", 0.0))
    steps = int(
        config.options.get("steps", scheme.n * math.log(2**scheme.n) * 10)
    )
    target = config.options.get("target_label")
    start_frozen = bool(config.options.get("start_frozen", False))
    frozen = postselect.find_frozen_strings(scheme) if start_frozen else None
    if frozen is not None and len(frozen) == 0:
        raise ValueError("start_frozen: the label scheme has no frozen strings")
    for trial, rng in enumerate(rngs):
        start = None if frozen is None else int(frozen[trial % len(frozen)])
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
        yield metrics, passed


class _Kind(NamedTuple):
    params: str  # the ExperimentConfig field that generates its inputs
    from_source: bool  # whether it may read its inputs from a file instead
    options: frozenset[str]  # the option keys it reads
    run: Callable[[ExperimentConfig, _Rngs], _Trials]


_KINDS = {
    "honest-acceptance": _Kind("scheme", True, frozenset(), _run_honest_acceptance),
    "clique-attack": _Kind("scheme", True, frozenset(), _run_clique_attack),
    "low-eps-attack": _Kind("scheme", True, frozenset({"mode"}), _run_low_eps_attack),
    "eigenvalue-check": _Kind("scheme", False, frozenset(), _run_eigenvalue_check),
    "postselect-suite": _Kind("label", True, frozenset(), _run_postselect_suite),
    "beta-mixing": _Kind(
        "label", False, frozenset({"beta", "steps", "target_label", "start_frozen"}),
        _run_beta_mixing,
    ),
}


def run_experiment(config: ExperimentConfig) -> list[ResultRecord]:
    """Run all trials; fully determined by the config and its source file."""
    trials = [trial_rng(config.master_seed, t) for t in range(config.trials)]
    results = _KINDS[config.kind].run(config, (rng for rng, _ in trials))
    return [
        ResultRecord(config.kind, t, seed, metrics, bool(passed))
        for t, ((_, seed), (metrics, passed)) in enumerate(zip(trials, results, strict=True))
    ]


# --- scheme files -----------------------------------------------------------

_SCHEME_MAGIC = "qmoney-scheme v1"
_VALID_PARAMS = SchemeParams(1, 1, 1, 0.0)
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
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the line holding the bad byte, numbered as splitlines numbers it
            lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
            raise SchemeFormatError(f"not UTF-8 text: {exc.reason}", lineno) from exc
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> tuple[int, str]:
        while self.pos < len(self.lines):
            self.pos += 1
            text = self.lines[self.pos - 1].strip()
            if text:
                return self.pos, text
        raise SchemeFormatError("unexpected end of file", self.pos)


def _parse_count(value: str) -> int:
    """A non-negative integer in ASCII digits, without leading zeros.

    Python's int also takes other scripts' digits, underscores, signs and
    leading zeros, so files outside the written format would load, and
    several files would name one value.
    """
    if not (value.isascii() and value.isdigit() and value == str(int(value))):
        raise ValueError(f"not a number in digits 0-9 without leading zeros: {value!r}")
    return int(value)


def _parse_epsilon(value: str) -> float:
    """A float as save_scheme writes it: its repr, unsigned.

    Python's float also takes underscores, other scripts' digits, signs and
    other spellings of one value, so files outside the written format would
    load, and several files would name one scheme.
    """
    epsilon = float(value)
    if repr(epsilon) != value or not value[0].isdigit():
        raise ValueError(f"not an unsigned float as repr writes it: {value!r}")
    return epsilon


def _read_fields(
    reader: _LineReader, parsers: dict, stop: str, optional: tuple[str, ...] = ()
) -> dict[str, tuple[int, object]]:
    """{key: (line, parsed value)} from the 'key value' lines up to the line ``stop``.

    Every key of parsers but the optional ones must appear, each key at most
    once, and each value is parsed at its own line.
    """
    fields: dict[str, tuple[int, object]] = {}
    while True:
        lineno, text = reader.next()
        if text == stop:
            break
        parts = text.split(maxsplit=1)
        if len(parts) != 2 or parts[0] not in parsers:
            raise SchemeFormatError(f"bad header line {text!r}", lineno)
        key, value = parts
        if key in fields:
            raise SchemeFormatError(f"repeated field {key}", lineno)
        try:
            fields[key] = (lineno, parsers[key](value))
        except ValueError as exc:
            raise SchemeFormatError(f"{key}: {exc}", lineno) from exc
    missing = [key for key in parsers if key not in fields and key not in optional]
    if missing:
        raise SchemeFormatError(f"missing field {missing[0]}", lineno)
    return fields


def _read_register_block(
    reader: _LineReader, i: int, count: int, n: int
) -> tuple[int, tuple[PauliOp, ...]]:
    """(line of the block's 'register i' header, its count operators)."""
    block_line, text = reader.next()
    if text != f"register {i}":
        raise SchemeFormatError(f"expected 'register {i}', got {text!r}", block_line)
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
        if op.is_identity:
            raise SchemeFormatError("operators in files may not be +-identity", lineno)
        ops.append(op)
    return block_line, tuple(ops)


def load_scheme(path: str | Path) -> tuple[MoneyScheme, SecretKey | None]:
    """Parse a scheme file; errors carry the offending line number."""
    reader = _LineReader(path)
    lineno, text = reader.next()
    if text != _SCHEME_MAGIC:
        raise SchemeFormatError(f"unsupported header {text!r}", lineno)
    parsers = {"n": _parse_count, "m": _parse_count, "l": _parse_count, "epsilon": _parse_epsilon}
    header = _read_fields(reader, {**parsers, "seed": _parse_count}, "table", optional=("seed",))
    fields = {}
    for key in parsers:
        field_line, fields[key] = header[key]
        try:
            # SchemeParams checks each field on its own, so a valid
            # instance with this one field swapped in checks only it.
            replace(_VALID_PARAMS, **{key: fields[key]})
        except ValueError as exc:
            raise SchemeFormatError(f"{key}: {exc}", field_line) from exc
    params = SchemeParams(**fields)
    table = tuple(
        _read_register_block(reader, i, params.m, params.n)[1] for i in range(params.l)
    )
    scheme = MoneyScheme(params, table)
    secret = None
    lineno, text = reader.next()
    if text == "secret":
        states = []
        for i in range(params.l):
            block_line, generators = _read_register_block(reader, i, params.n, params.n)
            try:
                states.append(StabilizerState(params.n, generators))
            except (ValueError, InconsistentGeneratorsError) as exc:
                raise SchemeFormatError(f"secret register {i}: {exc}", block_line) from exc
        secret = SecretKey(tuple(states))
        lineno, text = reader.next()
    if text != "end":
        raise SchemeFormatError(f"expected 'end', got {text!r}", lineno)
    return scheme, secret


# --- note files --------------------------------------------------------------


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
    """Parse a note file; errors carry the offending line number."""
    reader = _LineReader(path)
    lineno, text = reader.next()
    if text != _NOTE_MAGIC:
        raise SchemeFormatError(f"unsupported header {text!r}", lineno)
    parsers = dict.fromkeys(("n", "s", "d", "label_seed"), _parse_count)
    header = _read_fields(reader, {**parsers, "label": str}, "end")
    fields = {key: value for key, (_, value) in header.items()}
    # before make_label_scheme, which allocates per bit and per subset
    for key, limit, why in (
        ("n", DENSE_LIMIT, "a note is a dense state"),
        ("s", postselect.MAX_LABEL_BITS, "labels are packed into uint32"),
    ):
        if fields[key] > limit:
            raise CapacityError(f"line {header[key][0]}: {key}: {why}; need {key} <= {limit}")
    try:
        scheme = postselect.make_label_scheme(
            fields["n"], fields["s"], fields["d"], fields["label_seed"]
        )
    except ValueError as exc:
        # n and s can be wrong on their own; any other refusal involves d
        bad = next((k for k in ("n", "s") if fields[k] < 1), "d")
        raise SchemeFormatError(f"{bad}: {exc}", header[bad][0]) from exc
    try:
        if len(fields["label"]) != scheme.s:
            raise ValueError(f"need {scheme.s} label bits, got {fields['label']!r}")
        money = postselect.money_from_label(scheme, postselect.parse_label_bits(fields["label"]))
    except ValueError as exc:
        raise SchemeFormatError(f"label: {exc}", header["label"][0]) from exc
    return scheme, money


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
