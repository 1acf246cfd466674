"""Command-line benchmark runner with ``solve`` and ``table`` subcommands."""

import argparse
import sys
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path

from . import presets
from .krylov import SolveConfig
from .presets import RunSpec, preset_grid, run_preset, run_single
from .schwarz import WeightKind

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # Usage errors exit with code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_nel(text: str):
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            return int(parts[0]), int(parts[-1])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("--nel expects nx or nx,ny")


class _StoreNel(argparse.Action):
    """Store ``--nel``'s counts as the RunSpec fields n_x and n_y."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.n_x, namespace.n_y = values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schwarzmg")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # Each run setting is stored under its RunSpec field name, and one not
    # given is left out, so that RunSpec and SolveConfig declare every
    # default.
    s = sub.add_parser("solve", help="run one solver configuration",
                       argument_default=argparse.SUPPRESS)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--nel", type=_parse_nel, action=_StoreNel,
                   metavar="NX[,NY]")
    s.add_argument("--ar", type=float)
    s.add_argument("--solver", choices=["mg", "mgcg"])
    s.add_argument("--smoother", choices=["add", "mult"])
    s.add_argument("--weight", choices=[k.value for k in WeightKind])
    s.add_argument("--overlap", dest="overlap_rule",
                   metavar="fixed:<k>|floorp8|ceilp8|ceilp2")
    s.add_argument("--pre", type=int, dest="n_pre", metavar="PRE")
    s.add_argument("--post", type=int, dest="n_post", metavar="POST")
    s.add_argument("--cycle", choices=["std", "var"])
    s.add_argument("--tol", type=float,
                   help="target residual reduction factor")
    s.add_argument("--max-cycles", type=int)
    s.add_argument("--seed", type=int, default=SolveConfig.seed)
    s.add_argument("--nu-hat", type=float,
                   help="diffusivity fluctuation amplitude; selects the "
                        "variable-diffusion problem when given")
    s.add_argument("--format", choices=["csv", "json"], default="csv")

    t = sub.add_parser("table", help="run a full experiment preset")
    t.add_argument("--name", required=True, choices=list(presets.PRESET_NAMES))
    t.add_argument("--seeds", default="1,2,3",
                   help="comma-separated list of seeds")
    t.add_argument("--out", default=None, help="output CSV path")
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    t.add_argument("--full", action="store_true",
                   help="include the largest tabulated meshes")
    return parser


def _cmd_solve(args) -> int:
    given = vars(args)
    spec = RunSpec(**{f.name: given[f.name] for f in fields(RunSpec)
                      if f.name in given})
    record = run_single(spec, args.seed)
    if args.format == "csv":
        presets.write_csv([record], sys.stdout)
    else:
        print(presets.records_to_json([record]))
    return 0 if record.converged else 2


def _cmd_table(args) -> int:
    try:  # an empty item is no integer either: '' and '1,' fail too
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ValueError("--seeds expects comma-separated integers, "
                         f"got {args.seeds!r}") from None
    for seed in seeds:
        SolveConfig(seed=seed)  # a bad seed fails before any output opens
    out = args.out or f"{args.name}.csv"
    json_out = Path(out).with_suffix(".json")
    if args.format == "json" and json_out == Path(out):
        raise ValueError(f"--out {out} would be both the CSV and the JSON")
    paths = [out] + [json_out] * (args.format == "json")
    with ExitStack() as stack:
        # Open every output before the first cell runs, so an unwritable
        # path fails at once instead of after the whole preset.
        csv_fh, *json_fh = [stack.enter_context(open(path, "w", newline=""))
                            for path in paths]
        records, summary = run_preset(args.name, seeds, full=args.full)
        presets.write_csv(records, csv_fh)
        for fh in json_fh:
            fh.write(presets.records_to_json(records))
    print(f"wrote {len(records)} records to {out}")
    for spec, mean_rbar, ref, passed in summary:
        tag = spec.weight if spec.smoother == "add" else "mult"
        label = (f"{spec.solver} {tag} p={spec.p} "
                 f"{spec.n_x}x{spec.n_y} ar={spec.ar:g}")
        if spec.nu_hat is not None:
            label += f" nu_hat={spec.nu_hat:g}"
        line = f"{label}: rbar={mean_rbar:.4g}"
        if ref is not None:
            line += f" (published {ref:.4g}, {'pass' if passed else 'FAIL'})"
        print(line)
    # Any unconverged record fails; so does a missed published rate.
    failed = any(passed is False for *_, passed in summary)
    return 2 if failed or not all(r.converged for r in records) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_table(args)
    except (ValueError, OSError) as exc:
        # Bad input (order, overlap rule, tolerance, mesh too small) or an
        # output file that cannot be written.
        print(f"schwarzmg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
