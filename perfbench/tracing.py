"""In-memory span tracer that wraps the program's functions from outside.

The tracer replaces each traced function in every `cellassoc` module
namespace that holds it, so a call is seen wherever its caller looks the
name up (`cellassoc.schemes.zf_feasible_majority`, the `_kernels` module
attributes that `search` calls, and so on).  Each call records a span:
name, start, end and parent span.  Self time is a span's duration minus
the time covered by its child spans, accumulated as spans close.

The active kernel backend's per-seed oracles (`dl_set_feasible`,
`ul_set_feasible` of `_kernels._pure`) are counted, not spanned: they run
hundreds of thousands of times and a span each would swamp the trace.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, function) pairs that get a span, in report order.  Metric names
# drop the leading underscore of private modules, because benchmark metric
# names must start with a letter or digit.
TRACED = (
    ("_kernels", "dl_max_active"),
    ("_kernels", "ul_max_active"),
    ("_kernels", "dl_set_feasible"),
    ("_kernels", "ul_set_feasible"),
    ("downlink_zf", "max_downlink_dof"),
    ("downlink_zf", "zf_feasible"),
    ("downlink_zf", "zf_feasible_majority"),
    ("downlink_zf", "verify_witness"),
    ("uplink_decode", "max_uplink_dof"),
    ("uplink_decode", "uplink_feasible"),
    ("uplink_decode", "verify_order"),
    ("model", "draw_channels"),
    ("model", "association"),
    ("_encode", "channel_arrays"),
    ("_encode", "cells_masks"),
    ("_encode", "set_to_mask"),
    ("bounds", "lemma2_chain_bound"),
    ("bounds", "reconstruction_bound"),
    ("bounds", "counting_bound"),
    ("bounds", "chain_flags"),
    ("bounds", "_chain_dp"),
    ("bounds", "_block_flags"),
    ("schemes", "avg_optimal"),
    ("schemes", "downlink_optimal"),
    ("search", "exhaustive_search"),
    ("search", "soundness_sweep"),
    ("cli", "main"),
)

LAYERS = (
    "cli", "schemes", "search", "downlink_zf", "uplink_decode",
    "bounds", "_kernels", "_encode", "model",
)

ORACLES = (("dl_oracle", "dl_set_feasible"), ("ul_oracle", "ul_set_feasible"))

# Raw spans beyond this count are dropped (aggregates stay exact), so a
# traced run cannot exhaust memory.  Each kept span costs about 22 bytes.
MAX_SPANS = 4_000_000


def metric_prefix(module: str) -> str:
    return module.lstrip("_")


class Tracer:
    """Wraps the traced functions on install() and restores them on uninstall()."""

    def __init__(self):
        self.names = [f"{metric_prefix(mod)}.{fn}" for mod, fn in TRACED]
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        # (parent name index, child name index) -> calls
        self.edges: dict[tuple[int, int], int] = {}
        self.oracle = {name: [0, 0] for name, _fn in ORACLES}  # calls, accepted
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.root_s = 0.0  # time inside spans that have no parent
        self._stack: list[list] = []  # [span id, name index, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, fn, idx):
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s, edges = self.calls, self.self_s, self.edges

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(names)
            if sid < MAX_SPANS:
                names.append(idx)
                parents.append(parent[0] if parent else -1)
                starts.append(0.0)
                ends.append(0.0)
            else:
                sid = -1
                self.dropped += 1
            frame = [sid, idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[2]
                if sid >= 0:
                    starts[sid] = t0
                    ends[sid] = t1
                if parent is not None:
                    parent[2] += dur
                    key = (parent[1], idx)
                    edges[key] = edges.get(key, 0) + 1
                else:
                    self.root_s += dur

        return wrapper

    def _counter(self, fn, counts):
        def counted(*args):
            ok = fn(*args)
            counts[0] += 1
            if ok:
                counts[1] += 1
            return ok

        return counted

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if not (name == "cellassoc" or name.startswith("cellassoc.")):
                continue
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self, program, count_oracles: bool) -> None:
        for idx, (mod, fn) in enumerate(TRACED):
            original = getattr(getattr(program, metric_prefix(mod)), fn)
            self._replace_everywhere(original, self._span(original, idx))
        if count_oracles:
            pure = program.kernels._pure
            for name, fn in ORACLES:
                original = getattr(pure, fn)
                setattr(pure, fn, self._counter(original, self.oracle[name]))
                self._patched.append((pure, fn, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def child_calls(self, parent: str, child: str) -> int:
        return self.edges.get((self.names.index(parent), self.names.index(child)), 0)

    def layer_self_s(self) -> dict[str, float]:
        out = {metric_prefix(layer): 0.0 for layer in LAYERS}
        for (mod, _fn), secs in zip(TRACED, self.self_s):
            out[metric_prefix(mod)] += secs
        return out

    def write(self, path: str, header: dict) -> None:
        """Write every kept span as gzip'd TSV: id, parent, name, start, end.

        Times are seconds from the first span's start.
        """
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for key, value in sorted(header.items()):
                fh.write(f"# {key}: {value}\n")
            fh.write(f"# dropped_spans: {self.dropped}\n")
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid] - origin:.7f}\t{self.span_end[sid] - origin:.7f}\n"
                )
