"""Command-line front end.

Subcommands: scheme, eval, search, bound, render, report.  All structured
output is JSON with sorted keys (or CSV rows for search --format csv), so
runs are byte-reproducible.  eval and search decide feasibility by rules
that do not depend on channel values, so their "warnings" and
"disagreements" fields are always 0; they stay for output stability.

Exit codes: 0 success, 2 invalid input (bad flags, unreadable or malformed
files, an unwritable --out, budget/range violations in an association),
3 refused size or candidate budgets, 4 internal consistency failure (a
witness or claim that should certify did not).

main builds the argparse parser on its first call and reuses it for every
later call in the process: a parse keeps no state in the parser (each call
gets a fresh Namespace, and "append" copies its default), so a process that
serves many small calls pays the build once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import (
    counting_bound,
    lemma2_chain_bound,
    ncone_bound,
    reconstruction_bound,
)
from .downlink_zf import max_downlink_dof
from .errors import (
    CellAssocError,
    InternalCheckError,
    SizeLimitError,
    ValidationError,
)
from .model import (
    DEFAULT_SEEDS,
    CellAssociation,
    average_per_user,
    frac_to_str,
    validate_association,
)
from .render import render_ascii, render_svg
from .schemes import MAX_SCHEME_K, SchemePlan, avg_optimal, downlink_optimal
from .search import (
    DEFAULT_CAP,
    compare_with_theorem,
    exhaustive_search,
    load_search_config,
)
from .uplink_decode import max_uplink_dof


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8 and integers too long to convert
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj: object, out: Optional[str]) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _seeds(args) -> tuple:
    if getattr(args, "seed", None):
        return tuple(args.seed)
    return DEFAULT_SEEDS


def _load_assoc(path: str) -> CellAssociation:
    assoc = CellAssociation.from_json(_load_json(path))
    problems = validate_association(assoc)
    if problems:
        details = "; ".join(f"user {v.i}: {v.reason}" for v in problems)
        raise ValidationError(f"invalid association: {details}")
    return assoc


def _cmd_scheme(args) -> int:
    seeds = _seeds(args)
    kind = args.type
    if kind == "pair":
        if args.nc not in (None, 2):
            raise ValidationError("--type pair fixes nc = 2")
        plan = avg_optimal(args.k, 2, seeds=seeds)
    elif kind == "ncone":
        if args.nc not in (None, 1):
            raise ValidationError("--type ncone fixes nc = 1")
        plan = avg_optimal(args.k, 1, seeds=seeds)
    else:
        if args.nc is None:
            raise ValidationError(f"--type {kind} requires --nc")
        builder = avg_optimal if kind == "avg" else downlink_optimal
        plan = builder(args.k, args.nc, seeds=seeds)
    _emit_json(plan.to_json(), args.out)
    return 0


def _cmd_eval(args) -> int:
    assoc = _load_assoc(args.assoc)
    seeds = _seeds(args)
    dl = ul = None
    if args.session in ("down", "avg"):
        dl = max_downlink_dof(assoc, seeds=seeds)
    if args.session in ("up", "avg"):
        ul = max_uplink_dof(assoc)

    payload = {
        "k": assoc.k,
        "nc": assoc.nc,
        "session": args.session,
        "dl": dl.to_json() if dl else None,
        "ul": ul.to_json() if ul else None,
        "avg": (
            frac_to_str(average_per_user(dl.sum_dof, ul.sum_dof, assoc.k))
            if dl and ul
            else None
        ),
        "warnings": 0,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_search(args) -> int:
    merged = {
        "k": None,
        "nc": None,
        "window": None,
        "objective": "avg",
        "seeds": DEFAULT_SEEDS,
        "cap": DEFAULT_CAP,
    }
    if args.config:
        merged.update(load_search_config(_load_json(args.config)))
    for key, value in (
        ("k", args.k),
        ("nc", args.nc),
        ("window", args.window),
        ("objective", args.objective),
        ("cap", args.cap),
    ):
        if value is not None:
            merged[key] = value
    if args.seed:
        merged["seeds"] = tuple(args.seed)
    if merged["k"] is None or merged["nc"] is None:
        raise ValidationError("search needs k and nc (flags or --config)")

    want_csv = args.format == "csv"
    result = exhaustive_search(
        merged["k"],
        merged["nc"],
        merged["window"],
        merged["objective"],
        seeds=tuple(merged["seeds"]),
        cap=merged["cap"],
        collect_rows=want_csv,
    )

    if want_csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["assoc_id", "dl_dof", "ul_dof", "avg_num", "avg_den",
             "bound_num", "bound_den"]
        )
        bound_pu = result.bound.per_user
        for index, dl, ul in result.rows:
            avg = Fraction(dl + ul, 2 * result.k)
            writer.writerow(
                [index, dl, ul, avg.numerator, avg.denominator,
                 bound_pu.numerator, bound_pu.denominator]
            )
        _emit(buf.getvalue(), args.out)
    else:
        _emit_json(result.to_json(), args.out)
    return 0


_BOUND_KINDS = ("lemma2", "counting", "reconstruction")


def _cmd_bound(args) -> int:
    assoc = _load_assoc(args.assoc)
    wanted = _BOUND_KINDS if args.kind == "all" else (args.kind,)
    certs = {}
    for kind in wanted:
        if kind == "lemma2":
            cert = lemma2_chain_bound(assoc)
        elif kind == "counting":
            cert = counting_bound(assoc) if assoc.nc >= 2 else ncone_bound(assoc.k)
        else:
            if assoc.nc < 2:
                if args.kind == "all":
                    continue
                raise ValidationError("reconstruction bound requires nc >= 2")
            cert = reconstruction_bound(assoc)
        certs[cert.kind] = cert.to_json()
    _emit_json({"k": assoc.k, "nc": assoc.nc, "certificates": certs}, args.out)
    return 0


def _cmd_render(args) -> int:
    data = _load_json(args.file)
    plan = None
    if isinstance(data, dict) and "assoc" in data:
        plan = SchemePlan.from_json(data)
        assoc = plan.assoc
    else:
        assoc = CellAssociation.from_json(data)
    text = render_svg(assoc, plan) if args.format == "svg" else render_ascii(assoc, plan)
    _emit(text, args.out)
    return 0


def _cmd_report(args) -> int:
    try:
        ncs = [int(tok) for tok in args.nc.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"--nc must be a comma list of integers: {exc}") from exc
    if not ncs:
        raise ValidationError("--nc must name at least one budget")
    comparisons = [compare_with_theorem(nc) for nc in ncs]
    if args.format == "text":
        lines = ["nc  avg_target  dl_target  recursion"]
        for c in comparisons:
            rel = "-" if c.relation_holds is None else str(c.relation_holds).lower()
            lines.append(
                f"{c.nc:<3} {frac_to_str(c.tau):<11} "
                f"{frac_to_str(c.tau_downlink):<10} {rel}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit_json([c.to_json() for c in comparisons], args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellassoc",
        description="Exact cell-association tools for linear interference networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scheme", help="construct a certified reference plan")
    p.add_argument(
        "--k", type=int, required=True,
        help=(
            f"number of user/bs pairs (at most {MAX_SCHEME_K}, "
            f"and k*min(nc, k) at most {4 * MAX_SCHEME_K})"
        ),
    )
    p.add_argument("--nc", type=int, help="association budget per user")
    p.add_argument(
        "--type",
        required=True,
        choices=("avg", "downlink", "pair", "ncone"),
        help="scheme family",
    )
    p.add_argument(
        "--seed", type=int, action="append",
        help="channel seed of the witness (repeatable; only the first is used)",
    )
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(func=_cmd_scheme)

    p = sub.add_parser("eval", help="evaluate an association file")
    p.add_argument("assoc", help="path to an association JSON file")
    p.add_argument("--session", choices=("up", "down", "avg"), default="avg")
    p.add_argument("--seed", type=int, action="append", help="channel seed (repeatable)")
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("search", help="exhaustive windowed search")
    p.add_argument("--k", type=int)
    p.add_argument("--nc", type=int)
    p.add_argument("--window", type=int, help="association window half-width")
    p.add_argument("--objective", help="avg, ul/up, or dl/down")
    p.add_argument("--seed", type=int, action="append")
    p.add_argument("--cap", type=int, help=f"candidate cap (default {DEFAULT_CAP})")
    p.add_argument("--config", help="JSON run configuration (flags override it)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bound", help="converse certificates for an association")
    p.add_argument("assoc", help="path to an association JSON file")
    p.add_argument(
        "--kind",
        choices=_BOUND_KINDS + ("all",),
        default="all",
        help="which certificate family to emit",
    )
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("render", help="draw an association or plan file")
    p.add_argument("file", help="association or plan JSON")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("report", help="closed-form targets per budget")
    p.add_argument("--nc", default="1,2,3,4", help="comma list of budgets")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CellAssocError as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
