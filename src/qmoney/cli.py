"""Command-line front end.

Every trial-running subcommand maps its arguments to one
harness.ExperimentConfig and runs it with harness.run_experiment, so the
CLI and the harness emit the same records.  Every subcommand is
deterministic given --seed.  Exit code is 0 exactly when all requested
trials completed; per-trial pass/fail lives in the emitted records, not
the exit code.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, postselect
from .money import SchemeParams, gen_scheme


def _add_common(parser: argparse.ArgumentParser, trials: bool = True) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    if trials:
        parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--out", type=str, default=None, help="write result records here")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")


def _run(args) -> int:
    records = harness.run_experiment(args.config(args))
    if args.out:
        harness.emit_results(records, args.out, args.format)
    summary = harness.summarize(records)
    print(f"trials: {summary['trials']}  pass_fraction: {summary['pass_fraction']:.3f}")
    for key, stats in summary.items():
        if isinstance(stats, dict):
            nonfinite = f" nonfinite={stats['nonfinite']}" if "nonfinite" in stats else ""
            print(
                f"  {key}: mean={stats['mean']:.6g} std={stats['std']:.3g}"
                f" min={stats['min']:.6g} max={stats['max']:.6g}{nonfinite}"
            )
    return 0


def _verify_config(args) -> harness.ExperimentConfig:
    return harness.ExperimentConfig("honest-acceptance", args.trials, args.seed, source=args.scheme)


def _attack_clique_config(args) -> harness.ExperimentConfig:
    return harness.ExperimentConfig("clique-attack", args.trials, args.seed, source=args.scheme)


def _attack_low_eps_config(args) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        "low-eps-attack", args.trials, args.seed, source=args.scheme, options={"mode": args.mode}
    )


def _eig_check_config(args) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        "eigenvalue-check", args.trials, args.seed, scheme=SchemeParams(args.n, args.m, 1, 0.0)
    )


def _verify_note_config(args) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        "postselect-suite",
        args.trials,
        args.seed,
        source=args.note,
        options={} if args.r is None else {"r": args.r},
    )


def _beta_mix_config(args) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        "beta-mixing",
        args.trials,
        args.seed,
        label=harness.LabelParams(args.n, args.s, args.d, args.label_seed),
        options={
            "beta": args.beta,
            **({"steps": args.steps} if args.steps is not None else {}),
            **({"target_label": args.target_label} if args.target_label is not None else {}),
            "start_frozen": args.start_frozen,
        },
    )


def _cmd_gen_scheme(args) -> int:
    if not args.out:
        print("gen-scheme requires --out", file=sys.stderr)
        return 2
    rng = harness.setup_rng(args.seed)
    secret, scheme = gen_scheme(SchemeParams(args.n, args.m, args.l, args.epsilon), rng)
    harness.save_scheme(
        args.out, scheme, secret if args.include_secret else None, seed=args.seed
    )
    print(f"wrote scheme n={args.n} m={args.m} l={args.l} epsilon={args.epsilon} -> {args.out}")
    return 0


def _cmd_mint(args) -> int:
    if not args.out:
        print("mint requires --out", file=sys.stderr)
        return 2
    params = harness.LabelParams(args.n, args.s, args.d, args.label_seed)
    scheme, money = harness.mint_note(params, args.seed)
    harness.save_note(args.out, scheme, money)
    print(
        f"minted note label={postselect.label_bits(money.label, scheme.s)}"
        f" support={money.support_size} -> {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmoney", description="Stabilizer quantum money workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scheme", help="generate a scheme file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--include-secret", action="store_true")
    _add_common(p, trials=False)
    p.set_defaults(func=_cmd_gen_scheme)

    p = sub.add_parser(
        "verify", help="honest-acceptance: verify honest and mixed money against a scheme file"
    )
    p.add_argument("--scheme", required=True)
    _add_common(p)
    p.set_defaults(func=_run, config=_verify_config)

    p = sub.add_parser("attack-clique", help="clique-attack: secret recovery on a scheme file")
    p.add_argument("--scheme", required=True)
    _add_common(p)
    p.set_defaults(func=_run, config=_attack_clique_config)

    p = sub.add_parser(
        "attack-low-eps", help="low-eps-attack: phase-estimation forgery on a scheme file"
    )
    p.add_argument("--scheme", required=True)
    p.add_argument("--mode", choices=("sample", "analysis"), default="sample")
    _add_common(p)
    p.set_defaults(func=_run, config=_attack_low_eps_config)

    p = sub.add_parser(
        "eig-check", help="eigenvalue-check: max eigenvalue of random operator sums"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_run, config=_eig_check_config)

    p = sub.add_parser("mint", help="mint a postselection note")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--label-seed", type=int, default=0)
    _add_common(p, trials=False)
    p.set_defaults(func=_cmd_mint)

    p = sub.add_parser(
        "verify-note", help="postselect-suite: verify a note file with the Markov verifier"
    )
    p.add_argument("--note", required=True)
    p.add_argument("--r", type=int, default=None, help="iteration count (default: auto)")
    _add_common(p)
    p.set_defaults(func=_run, config=_verify_note_config)

    p = sub.add_parser("beta-mix", help="beta-mixing: Metropolis chain mixing diagnostics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--label-seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--target-label", type=int, default=None)
    p.add_argument("--start-frozen", action="store_true")
    _add_common(p)
    p.set_defaults(func=_run, config=_beta_mix_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
