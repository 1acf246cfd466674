"""Command-line benchmark runner with ``solve`` and ``table`` subcommands."""

import argparse
import sys
from contextlib import ExitStack

from . import presets
from .presets import RunSpec, preset_grid, run_preset, run_single

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # Usage errors exit with code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_nel(text: str):
    parts = text.split(",")
    if len(parts) == 1:
        return int(parts[0]), int(parts[0])
    if len(parts) == 2:
        return int(parts[0]), int(parts[1])
    raise argparse.ArgumentTypeError("--nel expects nx or nx,ny")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schwarzmg")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    s = sub.add_parser("solve", help="run one solver configuration")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--nel", type=_parse_nel, default=(8, 8),
                   metavar="NX[,NY]")
    s.add_argument("--ar", type=float, default=1.0)
    s.add_argument("--solver", choices=["mg", "mgcg"], default="mg")
    s.add_argument("--smoother", choices=["add", "mult"], default="add")
    s.add_argument("--weight", choices=["wa", "w1", "w3", "w5", "w7", "wt"],
                   default="w5")
    s.add_argument("--overlap", default="fixed:1",
                   metavar="fixed:<k>|floorp8|ceilp8|ceilp2")
    s.add_argument("--pre", type=int, default=1)
    s.add_argument("--post", type=int, default=0)
    s.add_argument("--cycle", choices=["std", "var"], default="std")
    s.add_argument("--tol", type=float, default=1e10,
                   help="target residual reduction factor")
    s.add_argument("--max-cycles", type=int, default=200)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--nu-hat", type=float, default=None,
                   help="diffusivity fluctuation amplitude; selects the "
                        "variable-diffusion problem when given")
    s.add_argument("--nu-shift", type=float, default=0.2)
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
    n_x, n_y = args.nel
    spec = RunSpec(solver=args.solver, smoother=args.smoother,
                   weight=args.weight, p=args.p, n_x=n_x, n_y=n_y,
                   ar=args.ar, overlap_rule=args.overlap,
                   n_pre=args.pre, n_post=args.post, cycle=args.cycle,
                   tol=args.tol, max_cycles=args.max_cycles,
                   nu_hat=args.nu_hat, nu_shift=args.nu_shift)
    record = run_single(spec, args.seed)
    if args.format == "csv":
        presets.write_csv([record], sys.stdout)
    else:
        print(presets.records_to_json([record]))
    return 0 if record.converged else 2


def _cmd_table(args) -> int:
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not seeds:
        raise ValueError("need at least one seed")
    out = args.out or f"{args.name}.csv"
    paths = [out] + [out.rsplit(".", 1)[0] + ".json"] * (args.format == "json")
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
    for row in summary:
        tag = row["weight"] if row["smoother"] == "add" else "mult"
        label = (f"{row['solver']} {tag} p={row['p']} "
                 f"{row['n_x']}x{row['n_y']} ar={row['ar']:g}")
        if row["nu_hat"] is not None:
            label += f" nu_hat={row['nu_hat']:g}"
        line = f"{label}: rbar={row['mean_rbar']:.4g}"
        if row["reference_rbar"] is not None:
            verdict = "pass" if row["passed"] else "FAIL"
            line += f" (published {row['reference_rbar']:.4g}, {verdict})"
        print(line)
    # Any unconverged record fails; so does a missed published rate.
    failed = any(row["passed"] is False for row in summary)
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
