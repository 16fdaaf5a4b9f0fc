"""Command-line front end.

gen-scheme and mint build scheme or label params and write input files.
Every other subcommand declares its harness kind, how its input arguments
become the ExperimentConfig's scheme, label or source, and its option
flags; _config maps its arguments to that one config and _run runs
harness.run_experiment on it, so the CLI emits the harness's records.  An
option flag left out stays out of the options, so every option default
lives in the harness.  Every subcommand is deterministic given --seed.
Exit code is 0 exactly when all requested trials completed (per-trial
pass/fail lives in the records) and 2 on a usage error: a missing
required flag, a negative seed, or a value the params or the config
refuse when built.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, postselect
from .money import SchemeParams, gen_scheme


def _config(args) -> harness.ExperimentConfig:
    options = {k: v for k, v in vars(args).items() if k in harness._KINDS[args.kind].options}
    return harness.ExperimentConfig(
        args.kind, args.trials, args.seed, options=options, **args.inputs(args)
    )


def _run(args, config: harness.ExperimentConfig) -> int:
    records = harness.run_experiment(config)
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


def _source_file(args) -> dict:
    return {"source": args.source}


def _cmd_gen_scheme(args, params: SchemeParams) -> int:
    secret, scheme = gen_scheme(params, harness.setup_rng(args.seed))
    harness.save_scheme(args.out, scheme, secret if args.include_secret else None, seed=args.seed)
    print(f"wrote scheme n={args.n} m={args.m} l={args.l} epsilon={args.epsilon} -> {args.out}")
    return 0


def _cmd_mint(args, params: harness.LabelParams) -> int:
    scheme, money = harness.mint_note(params, args.seed)
    harness.save_note(args.out, scheme, money)
    print(
        f"minted note label={postselect.label_bits(money.label, scheme.s)}"
        f" support={money.support_size} -> {args.out}"
    )
    return 0


def _add_label_params(parser: argparse.ArgumentParser) -> None:
    for flag in ("--n", "--s", "--d"):
        parser.add_argument(flag, type=int, required=True)
    parser.add_argument("--label-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmoney", description="Stabilizer quantum money workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # build: the subcommand's inputs from its arguments; func(args, inputs) runs it
    def writer(name, help, build, func):
        # --seed is no field of a writer's params, so it is checked here
        def checked(args):
            if args.seed < 0:
                raise ValueError(f"seed must be >= 0, got {args.seed}")
            return build(args)

        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", required=True, help="write the file here")
        p.set_defaults(build=checked, func=func, parser=p)
        return p

    def trials(name, kind, help, inputs):
        # option flags added without a default stay out of the namespace unless typed
        p = sub.add_parser(name, help=f"{kind}: {help}", argument_default=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--out", default=None, help="write result records here")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        p.set_defaults(build=_config, func=_run, kind=kind, inputs=inputs, parser=p)
        return p

    p = writer(
        "gen-scheme", "generate a scheme file",
        lambda a: SchemeParams(a.n, a.m, a.l, a.epsilon), _cmd_gen_scheme,
    )
    for flag in ("--n", "--m", "--l"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--include-secret", action="store_true")

    p = trials(
        "verify", "honest-acceptance", "verify honest and mixed money against a scheme file",
        _source_file,
    )
    p.add_argument("--scheme", dest="source", required=True)

    p = trials("attack-clique", "clique-attack", "secret recovery on a scheme file", _source_file)
    p.add_argument("--scheme", dest="source", required=True)

    p = trials(
        "attack-low-eps", "low-eps-attack", "phase-estimation forgery on a scheme file",
        _source_file,
    )
    p.add_argument("--scheme", dest="source", required=True)
    p.add_argument("--mode", choices=("sample", "analysis"))

    p = trials(
        "eig-check", "eigenvalue-check", "max eigenvalue of random operator sums",
        lambda a: {"scheme": SchemeParams(a.n, a.m, 1, 0.0)},
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = writer(
        "mint", "mint a postselection note",
        lambda a: harness.LabelParams(a.n, a.s, a.d, a.label_seed), _cmd_mint,
    )
    _add_label_params(p)

    p = trials(
        "verify-note", "postselect-suite", "verify a note file with the Markov verifier",
        _source_file,
    )
    p.add_argument("--note", dest="source", required=True)

    p = trials(
        "beta-mix", "beta-mixing", "Metropolis chain mixing diagnostics",
        lambda a: {"label": harness.LabelParams(a.n, a.s, a.d, a.label_seed)},
    )
    _add_label_params(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--target-label", type=int)
    p.add_argument("--start-frozen", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs = args.build(args)
    except ValueError as exc:
        args.parser.error(str(exc))  # exits with status 2
    return args.func(args, inputs)


if __name__ == "__main__":
    sys.exit(main())
