"""Span tracing of fpu's layers, installed from outside the library.

`Tracer.install()` replaces each public function of fpu.cli, fpu.operators,
fpu.gnvw, fpu.matutil and fpu.sequences with a wrapper that records a span.
The wrapper goes into every fpu module that holds the name, since gnvw holds
its own `multiply` and cli its own `unitarity_residual`. Three methods are
wrapped as well. The EventuallyPeriodicSeq constructor becomes the span
`sequences.canonicalize`. `entry` of both operator classes and
`EventuallyPeriodicSeq.at` only count their calls, since they run millions
of times. `uninstall()` puts the originals back.

A span records its id, its parent's id, the command id, the name, and its
start and end. Self time is a span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple

MODULES = ("cli", "operators", "gnvw", "matutil", "sequences")

# Spans reported as <name>.calls, <name>.total_s and <name>.self_s.
REPORTED_SPANS = (
    "cli.run_command", "cli.parse_operator_text", "cli.serialize_operator",
    "cli.parse_seq_text", "cli.serialize_seq",
    "operators.multiply", "operators.unitarity_residual",
    "operators.max_entry_difference", "operators.corner_data",
    "operators.block_diagonal", "operators.apply_state",
    "gnvw.decompose", "gnvw.factor_end_periodic", "gnvw.conjugating_unitary",
    "gnvw.index",
    "matutil.unitary_defect", "matutil.polar_unitary",
    "sequences.canonicalize", "sequences.from_window", "sequences.divide_class",
    "sequences.in_image_one_minus_s", "sequences.coinv_equal",
)
# Work counts and ratios, each exact for a given seed.
COUNTS = ("operators.entry.calls", "sequences.at.calls",
          "gnvw.decompose.block_rows", "gnvw.eigh_work",
          "operators.multiply.band_use", "matutil.snap_ratio")
UNITS = {"calls": "count", "total_s": "s", "self_s": "s",
         "block_rows": "count", "eigh_work": "count",
         "band_use": "ratio", "snap_ratio": "ratio", "overhead_x": "ratio"}


def layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, by name."""
    names = [f"{span}.{part}" for span in REPORTED_SPANS
             for part in ("calls", "total_s", "self_s")]
    names += [*COUNTS, *(f"{m}.self_s" for m in MODULES), "trace.overhead_x"]
    return {name: UNITS[name.rsplit(".", 1)[1]] for name in names}


class Tracer:
    def __init__(self):
        # finished spans: (id, parent id, command id, name, start, end)
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.command = 0
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[list] = []  # open spans: [id, seconds in children]
        self._depth: Counter = Counter()
        self._next_id = 0
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        tracer, clock = self, time.perf_counter

        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            stack = tracer._stack
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            tracer._depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._depth[name] -= 1
                elapsed = end - start
                tracer.calls[name] += 1
                tracer.self_time[name] += elapsed - frame[1]
                if not tracer._depth[name]:  # a recursive call is inside its caller's total
                    tracer.total[name] += elapsed
                tracer.spans.append((frame[0], parent, tracer.command, name, start, end))
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                hook_start = clock()
                after(args, result)
                if stack:  # the hook is tracing work, not the caller's
                    stack[-1][1] += clock() - hook_start
            return result

        return wrapper

    def _counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _hooks(self, modules) -> Dict[str, Callable]:
        counts = self.counts
        propagation = modules["operators"].propagation

        def block_rows(args, result):
            counts["gnvw.decompose.block_rows"] += result.block_size

        def eigh_work(args, result):
            counts["gnvw.eigh_work"] += len(args[0]) ** 3

        def band_use(args, result):
            counts["multiply.propagation"] += propagation(result)
            counts["multiply.band"] += result.prop_bound()

        return {"gnvw.decompose": block_rows, "gnvw.conjugating_unitary": eigh_work,
                "operators.multiply": band_use}

    def _replace(self, holder, name: str, new) -> None:
        self._restore.append((holder, name, vars(holder)[name]))
        setattr(holder, name, new)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"fpu.{m}") for m in MODULES}
        holders = [importlib.import_module("fpu"), *modules.values()]
        hooks = self._hooks(modules)
        for short, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                key = f"{short}.{name}"
                wrapped = self._span(key, fn, hooks.get(key))
                for holder in holders:
                    if vars(holder).get(name) is fn:
                        self._replace(holder, name, wrapped)
        seq = modules["sequences"].EventuallyPeriodicSeq
        self._replace(seq, "__init__", self._span("sequences.canonicalize", seq.__init__))
        self._replace(seq, "at", self._counter("sequences.at.calls", seq.at))
        ops = modules["operators"]
        for cls in (ops.PeriodicBandOperator, ops.EndPeriodicOperator):
            self._replace(cls, "entry", self._counter("operators.entry.calls", cls.entry))

    def uninstall(self) -> None:
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)

    # -- results ---------------------------------------------------------------

    def exact_counts(self) -> Dict[str, int]:
        """Every count the run must repeat exactly for a given seed."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        return out

    def layer_metrics(self, passes: int, counts: Dict[str, int]) -> Dict[str, float]:
        """Per-layer metrics per pass over the script. `counts` are the exact
        counts of one pass; times are averaged over `passes` passes."""
        out = {}
        for span in REPORTED_SPANS:
            out[f"{span}.calls"] = counts.get(f"{span}.calls", 0)
            out[f"{span}.total_s"] = self.total[span] / passes
            out[f"{span}.self_s"] = self.self_time[span] / passes
        out["operators.entry.calls"] = counts.get("operators.entry.calls", 0)
        out["sequences.at.calls"] = counts.get("sequences.at.calls", 0)
        out["gnvw.decompose.block_rows"] = counts.get("gnvw.decompose.block_rows", 0)
        out["gnvw.eigh_work"] = counts.get("gnvw.eigh_work", 0)
        band = counts.get("multiply.band", 0)
        out["operators.multiply.band_use"] = (
            counts.get("multiply.propagation", 0) / band if band else 0.0)
        defects = counts.get("matutil.unitary_defect.calls", 0)
        out["matutil.snap_ratio"] = (
            counts.get("matutil.polar_unitary.calls", 0) / defects if defects else 0.0)
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                t for name, t in self.self_time.items()
                if name.startswith(module + ".")) / passes
        return out

    def write(self, path: Path) -> None:
        """One JSON object per line: a span, times in seconds from the first."""
        origin = min((s[4] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, command, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "command": command, "name": name,
                     "start": round(start - origin, 9), "end": round(end - origin, 9)})
                    + "\n")
