"""Command-line front end.

Subcommands: scheme, eval, search, bound, render, report.  All structured
output is JSON with sorted keys (or CSV rows for search --format csv), so
runs are byte-reproducible; _json_text writes the bytes of
json.dumps(obj, indent=2, sort_keys=True) without the standard library's
pure-Python indenting encoder, joining containers and writing flat records
in C, and a CSV search formats each piece of its rows with one % in C.
eval and search decide feasibility by rules that do not depend on
channel values, so their "warnings" and "disagreements" fields are
always 0; they stay for output stability.

Exit codes: 0 success, 2 invalid input (bad flags, unreadable or malformed
files, an unwritable --out, budget/range violations in an association),
3 refused size or candidate budgets, 4 internal consistency failure (a
witness or claim that should certify did not).

--out rewrites its file in place, not atomically: the file is opened
without truncation, written from its start and then cut to the bytes
written (see _emit), so it keeps its inode, a symlink reaches its target,
and a device or FIFO is written but not cut.  A process killed before the
cut leaves the old file's tail after the new bytes.  On ext4 this skips
the writeback that a truncate to zero followed by a rewrite starts at
close().

main builds the argparse parser on its first call and reuses it for every
later call in the process: a parse keeps no state in the parser (each call
gets a fresh Namespace, and "append" copies its default), so a process that
serves many small calls pays the build once.

argparse is the only place the grammar is declared, but its interpreter
costs about 0.1 ms an argv.  So main first reads a plain argv straight
from the command parser's own actions (_plain_args): a command name, then
that command's positionals and exact option strings, each option followed
by one value that does not start with "-", every value passing its
option's type and choices, every required argument given.  That gives
the Namespace parse_args would give.  Every other argv (help, "--k=5",
an abbreviation, "--", a value starting with "-", an unknown option, a
refused value, a missing or extra argument) goes to parse_args, so its
messages and exit codes are argparse's own.

Integer flags (--k, --nc, --seed, --window, --cap) and the items of
report --nc are ASCII decimal, read by model.int_from_text: "1_2" and
non-ASCII digits are refused with exit 2.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from typing import Optional, Sequence

from ._kernels import family_texts
from .bounds import ISSUERS, KIND_CHAIN, KIND_COUNTING, KIND_RECONSTRUCTION
from .downlink_zf import max_downlink_dof
from .errors import (
    CellAssocError,
    SizeLimitError,
    ValidationError,
)
from .model import (
    DEFAULT_SEEDS,
    CellAssociation,
    average_per_user,
    frac_to_str,
    int_from_text,
    validate_association,
)
from .render import render_ascii, render_svg
from .schemes import MAX_SCHEME_K, SchemePlan, avg_optimal, downlink_optimal
from .search import (
    DEFAULT_CAP,
    MAX_CANDIDATES,
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


def _emit(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write the pieces of text in chunks to the file out, or to stdout.

    out is rewritten in place: opened without O_TRUNC (so a symlink is
    followed and the inode, its hard links and its mode stay), written from
    its start, then cut at the position reached.  The cut runs even when a
    chunk raises, so no old bytes are left after the new ones; a target
    that is not a regular file (os.devnull, a FIFO) is written but not
    cut.  A process killed before the cut (SIGKILL, an OOM kill, a power
    loss) leaves the new bytes followed by the old file's tail, which for
    a streamed CSV can read as well-formed rows of an earlier run.  On
    ext4, truncating a file to zero and writing it again makes close()
    start writeback, which costs several times the write itself.
    """
    if not out:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            try:
                fh.writelines(chunks)
            finally:
                if regular:
                    fh.truncate()
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc}") from exc


_quote = json.encoder.encode_basestring_ascii


def _json_text(obj: object, newline: str = "\n") -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True), without its encoder.

    With an indent, the standard library encodes in pure Python, one
    generator step per value.  Here a list, a tuple, or a dict whose keys
    are all str or all int is written by joining its members' texts (see
    _json_texts for the members written in C).  newline is a line break
    followed by the indent of obj's own line.  Anything else (floats, other
    keys, subclasses and unsupported types) goes through json.dumps itself,
    re-indented, so the bytes and the errors are its own.
    """
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _quote(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(_json_texts(obj, inner)) + newline + "]"
    if kind is dict:
        if not obj:
            return "{}"
        keys = sorted(obj)
        key_kinds = {*map(type, keys)}
        if key_kinds == {str} or key_kinds == {int}:
            inner = newline + "  "
            names = map(_quote, keys if str in key_kinds else map(int.__repr__, keys))
            items = zip(names, _json_texts(list(map(obj.__getitem__, keys)), inner))
            return "{" + inner + ("," + inner).join(map(": ".join, items)) + newline + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


def _json_texts(values: Sequence, newline: str) -> Iterable[str]:
    """The texts of the values, each on a line that begins with newline.

    Ints and strs are written in C, and so is a list of int lists (a
    plan's cells): one % over all their ints fills a format string made
    for each list length that occurs, the lists' texts parted by NUL,
    which no JSON text holds.  Flat records (non-empty dicts with str keys
    and None, bool, int or str values, such as precoders, decoding steps
    and block flags) are each written by one call of the C encoder kept for
    newline.  Other values, and records where the C encoder is missing, go
    through _json_text one by one.
    """
    kinds = {*map(type, values)}
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {str}:
        return map(_quote, values)
    if kinds == {list} and {*map(type, itertools.chain.from_iterable(values))} <= {int}:
        inner = newline + "  "
        item = "%d," + inner
        forms = {
            n: "[" + inner + item * (n - 1) + "%d" + newline + "]" if n else "[]"
            for n in {*map(len, values)}
        }
        text = "\0".join(map(forms.__getitem__, map(len, values)))
        return (text % tuple(itertools.chain.from_iterable(values))).split("\0")
    if (
        kinds == {dict}
        and _make_encoder is not None
        and all(values)
        and {*map(type, itertools.chain.from_iterable(values))} == {str}
        and {*map(type, itertools.chain.from_iterable(map(dict.values, values)))} <= _SCALARS
    ):
        encode, inner = _record_encoder(newline), newline + "  "
        return ["{" + inner + "".join(encode(value, 0))[1:-1] + newline + "}" for value in values]
    return [_json_text(value, newline) for value in values]


_make_encoder = json.encoder.c_make_encoder  # None without the _json extension
_SCALARS = {type(None), bool, int, str}


@functools.cache
def _record_encoder(newline: str):
    """The C encoder that writes a flat record's items one to a line after newline.

    It writes json.dumps's one-line text of the record, sorted keys and
    ASCII escapes, with each item separator a line break; the caller
    swaps its braces for indented ones.  It holds only its separators, and
    there is one per indent depth that a document reaches.
    """
    return _make_encoder(None, None, _quote, None, ": ", "," + newline + "  ", True, False, True)


def _emit_json(obj: object, out: Optional[str]) -> None:
    _emit((_json_text(obj) + "\n",), out)


# Rows of search --format csv joined into one piece of text (a few hundred
# kB), so the text of a whole family is never held at once.
_CSV_CHUNK_ROWS = 8192
# Most rows in the subtree of one prefix whose text a CSV search builds;
# no more than _CSV_CHUNK_ROWS, so a piece holds at least one subtree.
_CSV_BLOCK_ROWS = 512


def _csv_chunks(result) -> Iterator[str]:
    """The CSV text of a search's rows, in pieces of at most _CSV_CHUNK_ROWS rows.

    The bytes are those csv.writer writes for integers (comma-separated,
    "\\r\\n" after each row).  Everything after a row's index depends
    only on its (dl, ul) sums, so a row's text has "%d" for the index.
    Every prefix of the first d users has a subtree of the same size, the
    product of the later users' option counts, and d is the shallowest
    depth whose subtrees hold at most _CSV_BLOCK_ROWS rows.
    _kernels.family_texts yields each depth-d prefix's subtree text in
    enumeration order, each distinct subtree's text built once, so no
    candidate is listed.  A piece joins the texts of whole subtrees and
    fills in their indices with one % in C.
    """
    yield "assoc_id,dl_dof,ul_dof,avg_num,avg_den,bound_num,bound_den\r\n"
    bound = result.bound.per_user
    tail = f",{bound.numerator},{bound.denominator}\r\n"

    def text(sums):
        avg = average_per_user(*sums, result.k)
        return f"%d,{sums[0]},{sums[1]},{avg.numerator},{avg.denominator}{tail}"

    counts = list(map(len, result.rows.graph[1]))  # options per user
    depth, size = len(counts), 1
    while depth and size * counts[depth - 1] <= _CSV_BLOCK_ROWS:
        depth -= 1
        size *= counts[depth]
    texts = family_texts(result.rows.graph, text, depth)
    per_piece = _CSV_CHUNK_ROWS // size
    for start in range(0, len(result.rows) // size, per_piece):
        part = list(itertools.islice(texts, per_piece))
        first = start * size
        yield "".join(part) % tuple(range(first, first + len(part) * size))


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
    # Only the keys that --config and the flags give (flags win) reach
    # exhaustive_search, which supplies its own defaults for the rest.
    given = load_search_config(_load_json(args.config)) if args.config else {}
    flags = {
        "k": args.k,
        "nc": args.nc,
        "window": args.window,
        "objective": args.objective,
        "cap": args.cap,
        "seeds": tuple(args.seed) if args.seed else None,
    }
    given.update((key, value) for key, value in flags.items() if value is not None)
    if "k" not in given or "nc" not in given:
        raise ValidationError("search needs k and nc (flags or --config)")

    want_csv = args.format == "csv"
    result = exhaustive_search(given.pop("k"), given.pop("nc"), **given, collect_rows=want_csv)

    if want_csv:
        _emit(_csv_chunks(result), args.out)
    else:
        _emit_json(result.to_json(), args.out)
    return 0


# --kind names -> certificate kinds (bounds.ISSUERS), in the order "all" emits them.
_BOUND_KINDS = {"lemma2": KIND_CHAIN, "counting": KIND_COUNTING,
                "reconstruction": KIND_RECONSTRUCTION}


def _cmd_bound(args) -> int:
    assoc = _load_assoc(args.assoc)
    wanted = _BOUND_KINDS if args.kind == "all" else (args.kind,)
    certs = {}
    for name in wanted:
        kind = _BOUND_KINDS[name]
        if kind == KIND_RECONSTRUCTION and assoc.nc < 2:
            if args.kind == "all":
                continue
            raise ValidationError("reconstruction bound requires nc >= 2")
        certs[kind] = ISSUERS[kind](assoc).to_json()
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
    _emit((text,), args.out)
    return 0


def _cmd_report(args) -> int:
    try:
        ncs = [int_from_text(tok) for tok in args.nc.split(",") if tok.strip()]
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
        _emit(("\n".join(lines) + "\n",), args.out)
    else:
        _emit_json([c.to_json() for c in comparisons], args.out)
    return 0


def _int(text: str) -> int:
    return int_from_text(text)


_int.__name__ = "int"  # argparse names a refused value's type: "invalid int value: '1_2'"


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and the table _plain_args reads from its command parsers.

    Both are built on the first call and kept together in this one cache,
    so clearing it drops both.
    """
    parser = argparse.ArgumentParser(
        prog="cellassoc",
        description="Exact cell-association tools for linear interference networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scheme", help="construct a certified reference plan")
    p.add_argument(
        "--k", type=_int, required=True,
        help=(
            f"number of user/bs pairs (at most {MAX_SCHEME_K}, "
            f"and k*min(nc, k) at most {4 * MAX_SCHEME_K})"
        ),
    )
    p.add_argument("--nc", type=_int, help="association budget per user")
    p.add_argument(
        "--type",
        required=True,
        choices=("avg", "downlink", "pair", "ncone"),
        help="scheme family",
    )
    p.add_argument(
        "--seed", type=_int, action="append",
        help="channel seed of the witness (repeatable; only the first is used)",
    )
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(func=_cmd_scheme)

    p = sub.add_parser("eval", help="evaluate an association file")
    p.add_argument("assoc", help="path to an association JSON file")
    p.add_argument("--session", choices=("up", "down", "avg"), default="avg")
    p.add_argument("--seed", type=_int, action="append", help="channel seed (repeatable)")
    p.add_argument("--format", choices=("json",), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("search", help="exhaustive windowed search")
    p.add_argument("--k", type=_int)
    p.add_argument("--nc", type=_int)
    p.add_argument("--window", type=_int, help="association window half-width")
    p.add_argument("--objective", help="avg, ul/up, or dl/down")
    p.add_argument("--seed", type=_int, action="append")
    cap_help = f"candidate cap (default {DEFAULT_CAP}); no family above {MAX_CANDIDATES} runs"
    p.add_argument("--cap", type=_int, help=cap_help)
    p.add_argument("--config", help="JSON run configuration (flags override it)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bound", help="converse certificates for an association")
    p.add_argument("assoc", help="path to an association JSON file")
    p.add_argument(
        "--kind",
        choices=(*_BOUND_KINDS, "all"),
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

    return parser, {name: _plain_command(p) for name, p in sub.choices.items()}


_PLAIN_ACTIONS = (argparse._StoreAction, argparse._AppendAction)


def _plain_command(parser: argparse.ArgumentParser) -> tuple:
    """What _plain_args reads of one command's parser, taken from its actions.

    (options, positionals, defaults, required): argparse's own map from
    each option string to its action; the positional actions in order;
    the values parse_args starts from (action defaults over set_defaults);
    and the actions that must be given.
    """
    actions = parser._actions
    defaults = parser._defaults | {
        a.dest: a.default for a in actions if a.default is not argparse.SUPPRESS
    }
    positionals = tuple(a for a in actions if not a.option_strings)
    return (
        parser._option_string_actions,
        positionals,
        defaults,
        frozenset(a for a in actions if a.required),
    )


def _plain_args(commands: dict, argv: list) -> Optional[dict]:
    """vars(parse_args(argv)) for a plain argv, or None for parse_args to read it.

    commands maps each command name to its _plain_command table.  Every
    token is read as parse_args reads it: an option is a store or append
    action that takes one value (a store keeps the last value, an append
    adds to a fresh list), and type then choices check each value.  Any
    token or value that would need more of argparse declines.
    """
    if not argv or {*map(type, argv)} != {str} or argv[0] not in commands:
        return None
    options, positionals, defaults, required = commands[argv[0]]
    values = {"command": argv[0], **defaults}
    pending, seen = iter(positionals), set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] == "-":
            action, value = options.get(token), next(tokens, "-")  # "-": no value left
            if type(action) not in _PLAIN_ACTIONS or action.nargs is not None or value[:1] == "-":
                return None
        else:
            action, value = next(pending, None), token
            if action is None:
                return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        if type(action) is argparse._AppendAction:
            value = [*(values[action.dest] or ()), value]
        values[action.dest] = value
        seen.add(action)
    return values if required <= seen else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    values = _plain_args(commands, argv)
    if values is None and not all(isinstance(item, str) for item in argv):
        parser.error("every argument must be a str")
    args = parser.parse_args(argv) if values is None else argparse.Namespace(**values)
    try:
        return args.func(args)
    except CellAssocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValidationError):
            return 2
        return 3 if isinstance(exc, SizeLimitError) else 4


if __name__ == "__main__":
    sys.exit(main())
