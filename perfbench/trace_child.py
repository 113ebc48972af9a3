"""Run one pellsum CLI job with spans recorded at the package's layer boundaries.

Usage: PYTHONPATH=src python3 perfbench/trace_child.py SUBCOMMAND [ARGS...]

Before calling pellsum.cli.main, every public function of each layer module
is replaced by a wrapper at every place it is bound: the defining module,
each module that imported it with `from .x import f`, and the package
namespace. The sources are not touched, and the document written to stdout
is the one the plain CLI writes.

Most wrappers open a span (layer self time is span time minus child span
time). The calls made per arithmetic operation only count, so that tracing
does not swamp the work it measures. A few wrappers also read counts from
the arguments or the return value.

On exit, or on SIGTERM at the job's time cap, one line holding the layer
totals goes to stderr after a marker; spans still open at SIGTERM are
closed at that moment and listed as timed out.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import signal
import sys
import time
from collections import Counter
from math import comb

TRACE_MARK = "\x1eperfbench-trace "
PACKAGE = "pellsum"
LAYERS = (
    "cli",
    "fixtures",
    "search",
    "normform",
    "pell",
    "recurrences",
    "sunits",
    "partitions",
    "quadfield",
)
# Called once or more per arithmetic step: counted, never timed.
COUNT_ONLY = {
    "quadfield": {"is_squarefree", "quad", "value_equal"},
    "normform": {"step", "inv_step", "sign_variants"},
}
# Methods wrapped besides the module-level functions: (layer, class, method, timed).
METHODS = (
    ("quadfield", "QuadNum", "__post_init__", False),
    ("quadfield", "QuadNum", "__mul__", False),
    ("normform", "SolutionOrbit", "elements", True),
)


def _pair_count(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def _solution_classes(counts, args, result):
    counts["normform.seed_window"] += result.scan_bound + 1
    counts["normform.seeds"] += sum(len(orbit.seeds) for orbit in result.orbits)
    counts["normform.orbits"] += len(result.orbits)


def _pair_sum_search(counts, args, result):
    counts["search.pair_candidates"] += _pair_count(args["nbound"])
    counts["search.pair_hits"] += len(result.hits)


def _sunit_sum_search(counts, args, result):
    units = 2 * (2 * args["expbound"] + 1) ** len(args["basis"].primes)
    counts["search.sunit_units"] += units
    counts["search.sunit_candidates"] += comb(units + args["tuple_size"] - 1, args["tuple_size"])
    counts["search.sunit_hits"] += len(result.hits)


# Counts read from arguments and return values, keyed by (layer, function).
HOOKS = {
    ("pell", "pell_data"): lambda c, a, r: c.update({"pell.cf_period_sum": r.cf_period}),
    ("normform", "solution_classes"): _solution_classes,
    ("normform", "SolutionOrbit.elements"): lambda c, a, r: c.update(
        {"normform.elements.pairs": len(r)}
    ),
    ("search", "coordinate_index"): lambda c, a, r: c.update(
        {"search.index_entries": len(r[1]) + len(r[2])}
    ),
    ("search", "pair_sum_search"): _pair_sum_search,
    ("search", "sunit_sum_search"): _sunit_sum_search,
    ("search", "vanishing_pair_sums"): lambda c, a, r: c.update(
        {"search.vanishing_candidates": _pair_count(a["nbound"])}
    ),
    ("recurrences", "terms_up_to"): lambda c, a, r: c.update({"recurrences.terms": len(r)}),
}


class Recorder:
    """Open spans as a stack; per-layer self time and counts as totals."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, name, start, child time]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter = Counter()
        self.dependence_args: set = set()
        self.timed_out: list[str] = []
        self.unwrapped: list[str] = []  # import sites install() missed

    def close(self, frame: list, end: float) -> None:
        layer, _, start, child = frame
        duration = end - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][3] += duration

    def timed(self, layer: str, name: str, fn):
        hook = HOOKS.get((layer, name))
        signature = inspect.signature(fn) if hook else None
        key = f"{layer}.{name}.calls"
        clock, stack, counts = time.perf_counter, self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            frame = [layer, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.close(frame, clock())
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counts, bound.arguments, result)
            return result

        return wrapper

    def counted(self, layer: str, name: str, fn):
        key = f"{layer}.{name}.calls"
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            items = f"{layer}.{name}.items"

            def generator(*args, **kwargs):
                counts[key] += 1
                for item in fn(*args, **kwargs):
                    counts[items] += 1
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dependence(self, fn):
        # verdict reuse: how many calls repeat an earlier argument triple
        timed = self.timed("recurrences", "roots_multiplicatively_independent", fn)
        seen = self.dependence_args

        def wrapper(*args, **kwargs):
            seen.add(repr((args, sorted(kwargs.items()))))
            return timed(*args, **kwargs)

        return wrapper

    def time_out(self) -> None:
        now = time.perf_counter()
        while self.stack:
            frame = self.stack.pop()
            self.timed_out.append(f"{frame[0]}.{frame[1]}")
            self.close(frame, now)

    def payload(self) -> dict:
        counts = dict(self.counts)
        counts["recurrences.dependence.distinct"] = len(self.dependence_args)
        return {
            "self_s": self.self_s,
            "counts": counts,
            "timed_out": self.timed_out,
            "unwrapped": self.unwrapped,
        }


def load_layers() -> dict:
    """Import the package and every layer module; name -> module."""
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
    modules[PACKAGE] = importlib.import_module(PACKAGE)
    return modules


def install(recorder: Recorder, modules: dict) -> tuple[list[str], list[str]]:
    """Wrap every public function and the listed methods of each layer.

    Returns the rebound sites as "module:name" and the sites that still hold
    an unwrapped original afterwards (empty unless an import was missed).
    """
    replacements: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = modules[layer]
        for name, obj in vars(module).items():
            if (
                name.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__
            ):
                continue
            if (layer, name) == ("recurrences", "roots_multiplicatively_independent"):
                wrapper = recorder.dependence(obj)
            elif name in COUNT_ONLY.get(layer, ()) or inspect.isgeneratorfunction(obj):
                wrapper = recorder.counted(layer, name, obj)
            else:
                wrapper = recorder.timed(layer, name, obj)
            replacements[id(obj)] = (obj, wrapper)

    sites = []
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            pair = replacements.get(id(obj))
            if pair is not None and pair[0] is obj:
                setattr(module, name, pair[1])
                sites.append(f"{module.__name__}:{name}")

    for layer, cls_name, method, timed in METHODS:
        cls = getattr(modules[layer], cls_name)
        original = vars(cls)[method]
        label = f"{cls_name}.{method}"
        wrapper = (recorder.timed if timed else recorder.counted)(layer, label, original)
        replacements[id(original)] = (original, wrapper)
        for name, obj in list(vars(cls).items()):
            if obj is original:  # __rmul__ is bound to the same function as __mul__
                setattr(cls, name, wrapper)
                sites.append(f"{modules[layer].__name__}:{cls_name}.{name}")

    originals = {id(pair[0]): pair[0] for pair in replacements.values()}
    missed = [
        f"{module.__name__}:{name}"
        for module in modules.values()
        for name, obj in vars(module).items()
        if originals.get(id(obj)) is obj
    ]
    return sites, missed


def _emit(recorder: Recorder) -> None:
    sys.stderr.write(TRACE_MARK + json.dumps(recorder.payload(), sort_keys=True) + "\n")
    sys.stderr.flush()


def main(argv: list[str]) -> int:
    recorder = Recorder()
    start = time.perf_counter()
    modules = load_layers()
    recorder.self_s["cli"] += time.perf_counter() - start  # import, outside any span
    _, recorder.unwrapped = install(recorder, modules)

    def on_term(signum, frame):
        recorder.time_out()
        _emit(recorder)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        code = modules["cli"].main(argv)
    except SystemExit as exc:  # argparse usage errors, --version
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _emit(recorder)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
