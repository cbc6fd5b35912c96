"""Command-line driver.

Usage::

    dfplace place <config.json> [--seed N] [--stage STAGE] [--push-boundary W]
                  [--no-finetune] [--loss eq5|eq6|eq8] [--out DIR]

Exit codes: 0 success, 2 usage/config error, 3 input file missing (or a
directory), 4 netlist validation error, 5 clustering error, 6
placement/metrics error, 7 unexpected internal error.
"""

from __future__ import annotations

import argparse
import sys

from . import errors
from .pipeline import STAGES, load_config, run_pipeline

_EXIT_CODES = [
    (errors.ConfigError, 2),
    ((FileNotFoundError, IsADirectoryError), 3),
    (
        (
            errors.MissingInstances,
            errors.DanglingPin,
            errors.DuplicateName,
            errors.BadOutline,
            errors.UnsupportedConstruct,
            errors.UnknownMaster,
            errors.MalformedDocument,
        ),
        4,
    ),
    (errors.ThresholdConflict, 5),
    (
        (
            errors.DegenerateCluster,
            errors.EmptyGraph,
            errors.BadPermutation,
            errors.UnplacedCluster,
            errors.EmptyCluster,
            errors.EmptyPointSet,
        ),
        6,
    ),
]


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, errors.PipelineStageError):
        return _exit_code(exc.cause)
    for types, code in _EXIT_CODES:
        if isinstance(exc, types):
            return code
    return 7


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dfplace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    place = sub.add_parser("place", help="run the placement pipeline")
    place.add_argument("config", help="pipeline config JSON file")
    place.add_argument("--seed", type=int, default=None, help="override config seed")
    place.add_argument("--stage", choices=STAGES, default=None,
                       help="stop after this stage")
    place.add_argument("--push-boundary", type=float, default=None, metavar="W",
                       help="weight of the pull-to-boundary loss term")
    place.add_argument("--no-finetune", action="store_true",
                       help="skip the orientation flipping stage")
    place.add_argument("--loss", choices=("eq5", "eq6", "eq8"), default=None,
                       help="two-hop loss variant")
    place.add_argument("--out", default=None, metavar="DIR", help="output directory")
    return parser


def _overrides(args) -> dict:
    """The flags given, in the config file's layout."""
    top = {"seed": args.seed, "stop_stage": args.stage, "out_dir": args.out}
    loss = {"push_boundary": args.push_boundary, "variant": args.loss}
    out = {k: v for k, v in top.items() if v is not None}
    loss = {k: v for k, v in loss.items() if v is not None}
    if loss:
        out["loss"] = loss
    if args.no_finetune:
        out["flip"] = {"enabled": False}
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, _overrides(args))
        result = run_pipeline(config)
    except Exception as exc:  # noqa: BLE001 - map every failure to an exit code
        print(f"dfplace: error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    t = result.timing
    print(f"completed stages through '{config.stop_stage}' "
          f"({t.total:.3f}s, extraction share {t.extraction_share:.1%})")
    if result.report is not None:
        print(f"hpwl_total={result.report.hpwl_total:.3f} "
              f"overflow={result.report.congestion_overflow:.3f}")
    for name in sorted(result.files):
        print(f"wrote {result.files[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
