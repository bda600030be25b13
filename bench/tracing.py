"""Per-layer tracing of magnonbs, installed from outside the program.

`Tracer.install` wraps every public function of each layer module and
puts the wrapper at every place the original is bound by name: the
defining module, every module that did `from .x import f`, and module-level
dicts that hold it (such as the CLI's command table).  A call records one
span (name, parent span, start, end) in memory; `write` dumps the spans as
JSON lines when the pass is over, and `summary` reduces them to calls,
seconds, self seconds and work counts per span name, from which
`layer_metric` reads each per-layer figure by its name.  `uninstall` puts
the originals back.

`scipy.linalg.expm` as bound in `mbloch` is wrapped too, so that the
solver's matrix-exponential calls are counted where they are made.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from functools import wraps

LAYERS = ("mbloch", "splitter", "fock_oracle", "stats", "scenarios",
          "acceptance", "cli")
# Modules whose namespaces may hold a layer function by name.
MODULES = ("magnonbs",) + tuple(f"magnonbs.{m}" for m in LAYERS)


def _evolve_extra(result, args, kwargs):
    steps = int(result.times.size)
    return {"steps": steps, "cell_steps": steps * int(result.final_state.z_grid.size)}


def _write_csv_extra(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Work counts read off a call's arguments and result, per span name.
EXTRAS = {
    "mbloch.evolve": _evolve_extra,
    "cli.write_csv": _write_csv_extra,
}


def rebind(wrappers: dict[int, tuple[object, object]]) -> list[tuple[object, object, object]]:
    """Put each wrapper wherever its original is bound by name.

    `wrappers` maps id(original) to (original, wrapper).  The places are
    the attributes of MODULES and the items of their module-level dicts.
    Returns what `restore` needs to put the originals back.
    """
    undo = []
    for mod in (importlib.import_module(m) for m in MODULES):
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in list(obj.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        undo.append((obj, key, value))
                        obj[key] = hit[1]
    return undo


def restore(undo: list[tuple[object, object, object]]) -> None:
    """Undo a `rebind`."""
    for where, key, original in reversed(undo):
        if isinstance(where, dict):
            where[key] = original
        else:
            setattr(where, key, original)


class Tracer:
    """Spans and work counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        # (name, parent index or -1, start, end); parents precede children.
        self.spans: list[tuple[str, int, float, float]] = []
        self.extras: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._undo: list[tuple[object, object, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, extras = self.spans, self._stack, self.extras
        extra = EXTRAS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, stack[-1] if stack else -1, 0.0, 0.0))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, spans[index][1], start, end)
            if extra is not None:
                for key, value in extra(result, args, kwargs).items():
                    extras[name][key] += value
            return result

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"magnonbs.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        mbloch = importlib.import_module("magnonbs.mbloch")
        wrappers[id(mbloch.expm)] = (mbloch.expm, self._wrap("mbloch.expm", mbloch.expm))
        self._undo = rebind(wrappers)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps(
                    {"name": name, "parent": parent, "start": start, "end": end}
                ) + "\n")

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, _, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """totals() per span name, with that name's work counts added."""
        out = self.totals()
        for name, counts in self.extras.items():
            out[name].update(counts)
        return dict(out)


# Per-layer metrics that divide a span's seconds by one of its work counts.
RATES = {"us_per_step": "steps", "us_per_cell_step": "cell_steps"}


def layer_metric(summary: dict[str, dict[str, float]], name: str) -> float:
    """A per-layer metric read off its name, `<span>.<kind>`.

    kind is `calls`, `s`, `self_s`, a work count of the span (`steps`,
    `bytes`), or a rate in RATES.  A span that was never entered reads 0.
    """
    span, _, kind = name.rpartition(".")
    if span not in summary:
        return 0
    entry = summary[span]
    if kind in RATES:
        work = entry[RATES[kind]]
        return 1e6 * entry["s"] / work if work else 0.0
    return entry[kind]
