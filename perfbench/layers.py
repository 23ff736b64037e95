"""Per-layer tracing from outside the program.

ffb binds names with "from .x import y", so one function object sits in
several module namespaces (ffb.cli.make_field, ffb.counters.rep_product,
...).  Tracer.install replaces every ffb.* module attribute that is one of
the original public functions with a wrapper that records a span (name,
parent, start, end) in memory, so each call is seen where it is made.
uninstall puts the originals back.  Nothing inside src/ffb changes.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Scalar per-element helpers, called inside the loops of other layers.  A
# wrapper would cost more than their work, so their time stays in the
# caller's self time.
SCALAR_HELPERS = {
    "setsgen.stream_value", "setsgen.derive_seed", "characters.char_eval",
    "field.field_add", "field.field_neg", "field.field_sub", "field.field_mul",
    "field.field_inv",
}

# Functions whose distinct inputs are counted (for unique_frac).
KEYED = {
    "field.make_field", "setsgen.realize", "repfn.rep_product",
    "characters.set_char_sums", "characters.repfn_char_sums",
}

CHAR_SUMS = ("characters.set_char_sums", "characters.repfn_char_sums")
CHARFORM = ("counters.count_bilinear_charform", "counters.count_additive_charform")

# Every function the per-layer metrics name; tracing refuses to start
# without them.
NAMED = ("field.make_field", "field.add_codes", "setsgen.realize",
         "repfn.rep_product", "repfn.rep_sum", "repfn.additive_convolve",
         *CHAR_SUMS, *CHARFORM, "bounds.compute_W", "bounds.compute_V",
         "sumprod.garaev_solution_count", "cli.run")


class LayerError(RuntimeError):
    """A named layer function is gone or a required layer never ran."""


def _fingerprint(value) -> object:
    """Hashable stand-in for one argument: arrays by content, fields by shape."""
    if hasattr(value, "modulus") and hasattr(value, "q"):
        return ("field", value.p, value.k, tuple(value.modulus))
    for attr in ("membership", "counts"):
        if hasattr(value, attr):
            value = getattr(value, attr)
            break
    if hasattr(value, "tobytes"):
        return hashlib.blake2b(value.tobytes(), digest_size=16).digest()
    return repr(value)


def _ffb_modules() -> dict[str, object]:
    """Loaded ffb modules by short name ("" for the package itself)."""
    return {name.partition(".")[2]: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ffb" or name.startswith("ffb."))}


class Tracer:
    """Spans and input counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.keys: dict[str, set] = defaultdict(set)
        self.sizes: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _ffb_modules()
        originals = {}
        for short, mod in modules.items():
            if not short:
                continue
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SCALAR_HELPERS):
                    originals[obj] = name
        missing = [n for n in NAMED if n not in originals.values()]
        if missing:
            raise LayerError(f"named layer functions not found: {', '.join(missing)}")
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)
        keyed = name in KEYED
        sized = name == "field.add_codes" or name in CHAR_SUMS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed or sized:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                if keyed:
                    self.keys[name].add(tuple(_fingerprint(v) for v in arguments.values()))
                if name == "field.add_codes":
                    self.sizes[name] += len(arguments["codes"])
                elif sized:
                    self.sizes[name] += arguments["field"].q - 1
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return wrapper

    def summary(self) -> dict:
        """Calls, inclusive seconds and self seconds per span name, and per module."""
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        module_self: defaultdict = defaultdict(float)
        for (name, _, start, end), children in zip(self.spans, child_time):
            module_self[name.partition(".")[0]] += end - start - children
        return {"calls": calls, "s": inclusive, "module_self_s": module_self,
                "unique": {n: len(k) for n, k in self.keys.items()},
                "sizes": dict(self.sizes)}


def layer_metrics(summary: dict, fires: tuple[str, ...]) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced pass.

    Raises LayerError when a layer listed in fires recorded no calls.
    """
    calls, secs = summary["calls"], summary["s"]
    silent = [name for name in fires if calls[name] == 0]
    if silent:
        raise LayerError(f"layers expected to run recorded zero calls: {', '.join(silent)}")

    def group(names):
        return sum(calls[n] for n in names), sum(secs[n] for n in names)

    def unique_frac(names):
        n_calls = sum(calls[n] for n in names)
        distinct = sum(summary["unique"].get(n, 0) for n in names)
        return distinct / n_calls if n_calls else 0.0

    char_calls, char_s = group(CHAR_SUMS)
    out = {
        "field.make_field.calls": calls["field.make_field"],
        "field.make_field.s": secs["field.make_field"],
        "field.make_field.unique_frac": unique_frac(["field.make_field"]),
        "field.add_codes.calls": calls["field.add_codes"],
        "field.add_codes.elems": summary["sizes"].get("field.add_codes", 0),
        "field.add_codes.s": secs["field.add_codes"],
        "setsgen.realize.calls": calls["setsgen.realize"],
        "setsgen.realize.s": secs["setsgen.realize"],
        "setsgen.realize.unique_frac": unique_frac(["setsgen.realize"]),
        "repfn.rep_product.calls": calls["repfn.rep_product"],
        "repfn.rep_product.s": secs["repfn.rep_product"],
        "repfn.rep_product.unique_frac": unique_frac(["repfn.rep_product"]),
        "repfn.rep_sum.calls": calls["repfn.rep_sum"],
        "repfn.rep_sum.s": secs["repfn.rep_sum"],
        "repfn.additive_convolve.calls": calls["repfn.additive_convolve"],
        "repfn.additive_convolve.s": secs["repfn.additive_convolve"],
        "characters.char_sums.calls": char_calls,
        "characters.char_sums.s": char_s,
        "characters.char_sums.points": sum(summary["sizes"].get(n, 0) for n in CHAR_SUMS),
        "characters.char_sums.unique_frac": unique_frac(CHAR_SUMS),
        "counters.charform.calls": group(CHARFORM)[0],
        "bounds.compute_W.calls": calls["bounds.compute_W"],
        "bounds.compute_V.calls": calls["bounds.compute_V"],
        "sumprod.garaev_solution_count.s": secs["sumprod.garaev_solution_count"],
    }
    for module in ("repfn", "counters", "bounds", "sumprod", "cli"):
        out[f"{module}.self_s"] = summary["module_self_s"][module]
    return out
