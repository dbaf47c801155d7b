"""The benchmark's three workloads: inputs, calls and output checks.

Every workload is a fixed list of calls (one "pass").  A call drives the
public CLI in-process, `cellassoc.cli.main(argv)` with `--out` files, except
the soundness sweep, which has no CLI command and is called as
`search.soundness_sweep`.  The workload seed chooses the three channel
seeds every call uses and the order of the calls; it does not change what
the calls compute, because every rank decision in this topology is
independent of the channel values.  That keeps the cost of a pass the same
for every seed and lets the checks compare against values pinned once.

Why these workloads:

* scheme -- certified plans on long lines.  Time goes to plan
  certification in `downlink_zf` and `uplink_decode` (and the channel
  draws), growing about as k**3; the kernels only see trailing partial
  blocks.  A kernel-only change should not move it.
* eval -- exact evaluation and converse certificates of given
  associations, mostly at the exact limits (k = 16 downlink, k = 20
  uplink) plus three long lines (k = 100..200) where evaluation falls back
  to greedy and reports exact = false.  Time goes to the kernels' branch
  and bound and greedy passes on a few deep instances.
* search -- exhaustive windowed searches and soundness sweeps over
  families of 5k-10k candidates.  The same kernels run on thousands of
  tiny instances with repeated structure (the uplink memo), next to an
  association object and bound flags per candidate.

Checks run after each pass, outside the timed calls.  They compare exact
results with values pinned in pinned.json and check every result, exact or
not, against invariants: witnesses and decoding orders re-verify on fresh
channel draws, certificates re-verify, and achieved sums stay within the
certificates' bounds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

SCHEME_CASES = tuple(
    (kind, nc, k)
    for kind in ("avg", "downlink")
    for nc in (1, 2, 3)
    for k in (30, 100, 300)
)

# Fixed structure seed of the eval association pool; the values pinned for
# the pool are tied to it through the pool's sha256.
EVAL_POOL_SEED = 1
DL_EXACT_LIMIT, UL_EXACT_LIMIT = 16, 20  # the CLI's default eval limits
EVAL_AT_LIMITS = tuple(
    (nc, w, k)
    for nc, w in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
    for k in (DL_EXACT_LIMIT, UL_EXACT_LIMIT)
    for _rep in range(3)
)
EVAL_LONG = ((2, 1, 100), (3, 2, 150), (2, 2, 200))

SEARCH_FAMILIES = ((5, 2, 1), (5, 3, 1), (7, 1, 1))
CSV_FAMILY = (5, 2, 1)


def load_pinned() -> dict:
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)


def channel_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31 - 1) for _ in range(3)]


def _seed_args(seeds) -> list[str]:
    out = []
    for s in seeds:
        out += ["--seed", str(s)]
    return out


def _dense_assoc(rng: random.Random, k: int, nc: int, w: int) -> dict:
    """Every user takes nc base stations (fewer at the edges) in its window."""
    cells = []
    for i in range(1, k + 1):
        pool = [j for j in range(i - w, i + w + 1) if 1 <= j <= k]
        cells.append(sorted(rng.sample(pool, min(nc, len(pool)))))
    return {"k": k, "nc": nc, "cells": cells}


def eval_pool() -> list[dict]:
    rng = random.Random(EVAL_POOL_SEED)
    return [_dense_assoc(rng, k, nc, w) for nc, w, k in EVAL_AT_LIMITS + EVAL_LONG]


def pool_sha256(pool: list[dict]) -> str:
    return hashlib.sha256(json.dumps(pool, sort_keys=True).encode()).hexdigest()


def family_key(family) -> str:
    return "/".join(str(x) for x in family)


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    exact: list = field(default_factory=list)  # one flag per session result


@dataclass
class Call:
    """One unit of timed work and the check of its result."""

    label: str
    work: int  # network users (scheme, eval) or candidate associations (search)
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    outs: tuple = ()  # files the call writes, for cli.out_bytes


def _cli(program, argv):
    # Look cli.main up at call time so a traced run sees the wrapped one.
    return lambda: program.cli.main(argv)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _exit_problems(label, codes) -> list[str]:
    return [f"{label}: exit code {rc}" for rc in codes if rc != 0]


# --- scheme -----------------------------------------------------------------


def scheme_calls(program, workdir, seed, pinned) -> list[Call]:
    seeds = channel_seeds(seed)
    calls = []
    for kind, nc, k in SCHEME_CASES:
        label = f"scheme {kind} nc={nc} k={k}"
        out = os.path.join(workdir, f"scheme-{kind}-{nc}-{k}.json")
        argv = ["scheme", "--type", kind, "--nc", str(nc), "--k", str(k),
                *_seed_args(seeds), "--out", out]
        want = pinned["scheme"][f"{kind}/{nc}/{k}"]

        def check(rc, label=label, out=out, k=k, nc=nc, want=want):
            res = Outcome(problems=_exit_problems(label, [rc]))
            if res.problems:
                return res
            plan = _read_json(out)
            dl, ul = Fraction(plan["claimed_dl_dof"]), Fraction(plan["claimed_ul_dof"])
            if [str(dl), str(ul)] != want:
                res.problems.append(f"{label}: claims {dl}/{ul}, pinned {want}")
            if dl != len(plan["dl_active_users"]) or ul != len(plan["ul_active_users"]):
                res.problems.append(f"{label}: claims differ from active-set sizes")
            if plan["assoc"]["k"] != k or plan["assoc"]["nc"] != nc:
                res.problems.append(f"{label}: plan is for another network")
            res.exact.append(True)  # claims are certified by the oracles
            return res

        calls.append(Call(label, k, _cli(program, argv), check, (out,)))
    random.Random(seed).shuffle(calls)
    return calls


# --- eval -------------------------------------------------------------------


def _check_eval(program, assoc_data, seeds, eval_out, bound_out, want, label):
    model, dz, ud, bounds = (program.model, program.downlink_zf,
                             program.uplink_decode, program.bounds)
    res = Outcome()
    assoc = model.CellAssociation.from_json(assoc_data)
    ev = _read_json(eval_out)
    dl, ul = ev["dl"], ev["ul"]
    res.exact += [dl["exact"], ul["exact"]]

    for session, got, pin in (("dl", dl, want["dl"]), ("ul", ul, want["ul"])):
        if got["sum_dof"] != len(got["active_users"]):
            res.problems.append(f"{label}: {session} sum differs from its active set")
        if got["exact"] and pin is not None and got["sum_dof"] != pin:
            res.problems.append(f"{label}: exact {session} sum {got['sum_dof']}, pinned {pin}")
    if Fraction(ev["avg"]) != Fraction(dl["sum_dof"] + ul["sum_dof"], 2 * assoc.k):
        res.problems.append(f"{label}: avg is not the mean of the session sums")

    witness = dz.ZfWitness.from_json(dl["witness"])
    active = frozenset(dl["active_users"])
    if active and witness.seed not in seeds:
        res.problems.append(f"{label}: witness seed {witness.seed} was not requested")
    ch = model.draw_channels(assoc.k, witness.seed, witness.prime)
    if not dz.verify_witness(witness, assoc, active, ch):
        res.problems.append(f"{label}: downlink witness fails re-verification")
    order = ud.DecodingOrder.from_json(ul["order"])
    if not ud.verify_order(order, assoc, frozenset(ul["active_users"])):
        res.problems.append(f"{label}: uplink order fails re-verification")

    certs = _read_json(bound_out)["certificates"]
    for data in certs.values():
        if not bounds.verify_certificate(bounds.BoundCertificate.from_json(data), assoc):
            res.problems.append(f"{label}: certificate {data['kind']} fails re-verification")
    limits = (
        (bounds.KIND_CHAIN, ul["sum_dof"]),
        (bounds.KIND_RECONSTRUCTION, dl["sum_dof"]),
        (bounds.KIND_COUNTING, Fraction(dl["sum_dof"] + ul["sum_dof"], 2)),
    )
    expected_kinds = {bounds.KIND_CHAIN, bounds.KIND_COUNTING}
    if assoc.nc >= 2:
        expected_kinds.add(bounds.KIND_RECONSTRUCTION)
    if set(certs) != expected_kinds:
        res.problems.append(f"{label}: certificates {sorted(certs)}")
    for kind, achieved in limits:
        # The nc = 1 counting certificate is an asymptotic constant, not a
        # finite-k bound, so it caps nothing here.
        if kind in certs and not (kind == bounds.KIND_COUNTING and assoc.nc == 1):
            if achieved > Fraction(certs[kind]["value"]):
                res.problems.append(f"{label}: achieved {achieved} exceeds {kind}")
    return res


def eval_calls(program, workdir, seed, pinned) -> list[Call]:
    seeds = channel_seeds(seed)
    pool = eval_pool()
    if pool_sha256(pool) != pinned["eval"]["pool_sha256"]:
        raise RuntimeError("eval pool differs from the pool the pinned values belong to")
    calls = []
    for idx, (data, want) in enumerate(zip(pool, pinned["eval"]["sums"])):
        label = f"eval #{idx} k={data['k']} nc={data['nc']}"
        path = os.path.join(workdir, f"assoc-{idx}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        eval_out = os.path.join(workdir, f"eval-{idx}.json")
        bound_out = os.path.join(workdir, f"bound-{idx}.json")
        eval_argv = ["eval", path, "--session", "avg", *_seed_args(seeds), "--out", eval_out]
        bound_argv = ["bound", path, "--kind", "all", "--out", bound_out]

        def run(eval_argv=eval_argv, bound_argv=bound_argv):
            return program.cli.main(eval_argv), program.cli.main(bound_argv)

        def check(codes, data=data, eval_out=eval_out, bound_out=bound_out,
                  want=want, label=label):
            problems = _exit_problems(label, codes)
            if problems:
                return Outcome(problems=problems)
            return _check_eval(program, data, seeds, eval_out, bound_out, want, label)

        calls.append(Call(label, data["k"], run, check, (eval_out, bound_out)))
    random.Random(seed).shuffle(calls)
    return calls


# --- search -----------------------------------------------------------------


def _check_search_json(out, want, label) -> Outcome:
    res = Outcome()
    got = _read_json(out)
    res.exact += [got["dl"]["exact"], got["ul"]["exact"]]
    for key in ("candidates", "value", "best_index"):
        if got[key] != want[key]:
            res.problems.append(f"{label}: {key} {got[key]!r}, pinned {want[key]!r}")
    if got["disagreements"] != 0:
        res.problems.append(f"{label}: {got['disagreements']} seed disagreements")
    return res


def _check_search_csv(out, want, label) -> Outcome:
    res = Outcome()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    if header != ["assoc_id", "dl_dof", "ul_dof", "avg_num", "avg_den",
                  "bound_num", "bound_den"]:
        res.problems.append(f"{label}: header {header}")
        return res
    values = [(Fraction(int(r[3]), int(r[4])), int(r[0])) for r in rows]
    best = max(values, key=lambda v: (v[0], -v[1]))
    got = {
        "candidates": len(rows),
        "value": str(best[0]),
        "best_index": best[1],
        "dl_total": sum(int(r[1]) for r in rows),
        "ul_total": sum(int(r[2]) for r in rows),
    }
    for key, value in got.items():
        if value != want[key]:
            res.problems.append(f"{label}: {key} {value!r}, pinned {want[key]!r}")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        res.problems.append(f"{label}: rows are not numbered 0..n-1")
    return res


def search_calls(program, workdir, seed, pinned) -> list[Call]:
    seeds = channel_seeds(seed)
    calls = []
    for family in SEARCH_FAMILIES:
        k, nc, w = family
        key = family_key(family)
        stem = os.path.join(workdir, "search-" + key.replace("/", "-"))
        count = program.search.count_associations(k, nc, w)
        config = stem + ".json"
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"k": k, "nc": nc, "window": w, "objective": "avg",
                       "seeds": seeds}, fh)

        label = f"search {key}"
        out = stem + ".out.json"
        want = pinned["search"][key]

        def check(rc, out=out, want=want, label=label):
            problems = _exit_problems(label, [rc])
            return Outcome(problems=problems) if problems else _check_search_json(out, want, label)

        calls.append(Call(label, count, _cli(program, ["search", "--config", config,
                                                       "--out", out]), check, (out,)))

        if family == CSV_FAMILY:
            label_csv = f"search {key} csv"
            out_csv = stem + ".csv"
            want_csv = pinned["csv"]

            def check_csv(rc, out=out_csv, want=want_csv, label=label_csv):
                problems = _exit_problems(label, [rc])
                return Outcome(problems=problems) if problems else _check_search_csv(out, want, label)

            argv = ["search", "--config", config, "--format", "csv", "--out", out_csv]
            calls.append(Call(label_csv, count, _cli(program, argv), check_csv, (out_csv,)))

        label_sweep = f"sweep {key}"
        want_sweep = pinned["sweep"][key]

        def sweep(k=k, nc=nc, w=w):
            return program.search.soundness_sweep(k, nc, w, seeds=seeds)

        def check_sweep(report, want=want_sweep, label=label_sweep):
            res = Outcome()
            got = {"total": report.total, "sound": report.sound, "tight": report.tight}
            for name, value in got.items():
                if value != want[name]:
                    res.problems.append(f"{label}: {name} {value!r}, pinned {want[name]!r}")
            return res

        calls.append(Call(label_sweep, count, sweep, check_sweep))
    random.Random(seed).shuffle(calls)
    return calls


# --- warm-up ----------------------------------------------------------------


def warm_up(name, program, workdir) -> None:
    """A few small calls of the kinds the workload makes, run during set-up."""
    out = os.path.join(workdir, "warm.json")
    if name == "scheme":
        argvs = [["scheme", "--type", "avg", "--nc", "2", "--k", "30", "--out", out]]
    elif name == "eval":
        path = os.path.join(workdir, "warm-assoc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_dense_assoc(random.Random(0), 12, 2, 1), fh)
        argvs = [["eval", path, "--out", out], ["bound", path, "--out", out]]
    else:
        argvs = [["search", "--k", "3", "--nc", "1", "--window", "1", "--out", out],
                 ["search", "--k", "3", "--nc", "1", "--window", "1",
                  "--format", "csv", "--out", out]]
        program.search.soundness_sweep(3, 1, 1)
    for argv in argvs:
        rc = program.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up call {argv} exited {rc}")


WORKLOADS = {"scheme": scheme_calls, "eval": eval_calls, "search": search_calls}


# --- backend parity ---------------------------------------------------------


def kernel_parity(program) -> list[str]:
    """Pure and compiled kernels must give bit-identical results.

    Runs only when the compiled extension is built; compares both
    maximizers on the eval pool's instances at the downlink exact limit.
    """
    kernels = program.kernels
    compiled = getattr(kernels, "_speedups", None)
    if compiled is None:
        return []
    model, enc = program.model, program.encode
    problems = []
    seeds = channel_seeds(0)
    for idx, data in enumerate(eval_pool()):
        k = data["k"]
        if k > DL_EXACT_LIMIT:
            continue
        assoc = model.CellAssociation.from_json(data)
        cells = enc.cells_masks(assoc)
        h0s, h1s = zip(*(enc.channel_arrays(model.draw_channels(k, s)) for s in seeds))
        h0s, h1s = [list(h) for h in h0s], [list(h) for h in h1s]
        cands = [i for i in range(1, k + 1) if cells[i - 1]]
        prime = model.DEFAULT_PRIME
        dl = [impl.dl_max_active(k, cells, h0s, h1s, prime, cands)
              for impl in (kernels._pure, compiled)]
        ul = [impl.ul_max_active(k, cells, cands) for impl in (kernels._pure, compiled)]
        if dl[0] != dl[1] or ul[0] != ul[1]:
            problems.append(f"pool #{idx}: pure and compiled kernels differ")
    return problems
