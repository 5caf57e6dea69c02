"""Command-line entry point: fene run / resume / report."""

import argparse
import sys

from . import runner


def _add_run_flags(sub):
    sub.add_argument("--output", default=None,
                     help="override the configured output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fene",
        description="Deterministic simulator for the compressible "
                    "Navier-Stokes / Fokker-Planck FENE dumbbell model "
                    "on the 2-D torus.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="execute a configured scenario")
    p_run.add_argument("config", help="path to the run configuration file")
    _add_run_flags(p_run)

    p_res = subs.add_parser("resume", help="continue a run from a checkpoint")
    p_res.add_argument("checkpoint", help="path to a .fkp snapshot")
    p_res.add_argument("config", help="path to the run configuration file")
    _add_run_flags(p_res)

    p_rep = subs.add_parser("report", help="summarize a finished run")
    p_rep.add_argument("run_dir", help="output directory of a previous run")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return runner.run(args.config, output=args.output)
    if args.command == "resume":
        return runner.run(args.config, output=args.output,
                          resume_from=args.checkpoint)
    return runner.report(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
