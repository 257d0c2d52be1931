"""Command-line entry point.

Subcommands: `gen` writes a complex in the JSON interchange format,
`homology` prints exact homology of a model's nerve, `verify` runs the
proposition suite, `export` renders models as JSON or DOT.  Exit codes:
0 pass, 1 verification failure, 2 usage error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .categories import (
    build_break_category,
    nerve_complex,
    poset_category,
    regular_orders_poset,
    semi_regular_orders_poset,
    symmetric_order_quotient,
)
from .chains import chain_poset
from .complexes import build_final_complex, build_final_covering, build_ordered_cover, default_labels
from .errors import ContractError, ResourceCapError, StructuralError, UsageError
from .homology import homology, homology_to_json
from .posets import Poset
from .suite import REGISTRY, exit_code, run_suite

# model id -> builder for size n.  The first three build precubical
# complexes (`gen`); the others build posets and categories, whose nerves
# `homology` computes.  Every model exports as JSON and DOT.  Each entry
# looks its builder up by name when called, so a wrapper bound to that
# module name (the benchmark's tracer) sees the call.
MODELS = {
    "z": lambda n: build_final_complex(n),
    "z-tilde": lambda n: build_final_covering(n)[0],
    "yA": lambda n: build_ordered_cover(n).complex,
    "chain-poset": lambda n: chain_poset(build_ordered_cover(n).complex)[0],
    "r-poset": lambda n: regular_orders_poset(default_labels(n), "sqsubseteq")[0],
    "rplus-poset": lambda n: semi_regular_orders_poset(default_labels(n))[0],
    "en": lambda n: build_break_category(n),
    "quotient": lambda n: symmetric_order_quotient(default_labels(n), "regular").quotient,
}
COMPLEX_MODELS = tuple(MODELS)[:3]
NERVE_MODELS = tuple(MODELS)[3:]


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_gen(args) -> int:
    _emit(MODELS[args.model](args.n).to_json(), args.out)
    return 0


def _cmd_homology(args) -> int:
    M = MODELS[args.model](args.n)
    complex_ = nerve_complex(poset_category(M) if isinstance(M, Poset) else M)
    del M  # the complex holds no reference to the model, which is freed before elimination
    _emit(json.dumps(homology_to_json(homology(complex_)), separators=(",", ":")), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        selection = None
    else:
        selection = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not selection:
            raise UsageError(f"--suite {args.suite!r} names no check")
    params = {}
    if args.target:
        params["target"] = args.target
    reports = run_suite(selection, n_max=args.n_max, params=params)
    payload = json.dumps([r.to_json_dict() for r in reports], indent=2)
    _emit(payload, args.out)
    return exit_code(reports)


def _cmd_export(args) -> int:
    M = MODELS[args.model](args.n)
    if args.format == "json":
        text = json.dumps(M.to_json_dict(), separators=(",", ":"))
    else:
        text = M.to_dot(name=args.model.replace("-", "_"))
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dicube", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a complex in the JSON interchange format")
    gen.add_argument("model", choices=COMPLEX_MODELS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--out")
    gen.set_defaults(fn=_cmd_gen)

    hom = sub.add_parser("homology", help="exact homology of a model's nerve")
    hom.add_argument("--model", required=True, choices=NERVE_MODELS)
    hom.add_argument("--n", type=int, required=True)
    hom.add_argument("--out")
    hom.set_defaults(fn=_cmd_homology)

    ver = sub.add_parser("verify", help="run the proposition suite")
    ver.add_argument("--suite", default="all", help="'all' or comma-separated ids: " + ", ".join(REGISTRY))
    ver.add_argument("--n-max", type=int, default=None, dest="n_max")
    ver.add_argument(
        "--jobs",
        type=int,
        help="ignored, as the checks run one after another; removed once the benchmark harness stops passing it",
    )
    ver.add_argument("--target", default=None, help="override for the non-self-linked check")
    ver.add_argument("--out")
    ver.set_defaults(fn=_cmd_verify)

    exp = sub.add_parser("export", help="render a model as JSON or DOT")
    exp.add_argument("--model", required=True, choices=tuple(MODELS))
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--format", required=True, choices=("json", "dot"))
    exp.add_argument("--out")
    exp.set_defaults(fn=_cmd_export)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ContractError, StructuralError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
