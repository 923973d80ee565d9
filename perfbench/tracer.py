"""Per-layer tracing for the escalier benchmark, installed from outside the
library.

install() replaces the public functions of each escalier module, and a few
methods, with wrappers in every namespace that holds a reference to them
(oracle.py and crypto.py, for example, bind their own buchberger and
normal_form), so calls made inside the library are traced too.
uninstall() puts the originals back.

Spanned functions record (op id, span id, parent span id, name, start,
end) and accumulate self time: span time minus the time of child spans.
The hottest primitives (term order keys, divides, lcm, is_factor) are too
hot to span and are only counted.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPANNED_MODULES = ("polynomials", "oracle", "staircase", "nc_polynomials", "peeling", "crypto", "forge")
SPAN_CAP = 200_000  # spans kept in memory per run; the rest are only aggregated


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.active = False  # wrappers record only while an op runs
        self.op_id = 0
        self.spans: list = []
        self.spans_dropped = 0
        self._next_id = 0
        self._stack: list = []  # [span id, seconds covered by child spans]
        self._depth: Counter = Counter()
        self._patches: list = []
        self.begin_pass()

    # --- per-pass accumulators ---------------------------------------------

    def begin_pass(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()

    # --- wrappers -------------------------------------------------------------

    def _span(self, name, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            tracer._depth[name] += 1
            finish = hook(tracer, args, kwargs) if hook else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._depth[name] -= 1
                span = end - start
                tracer.self_s[name] += span - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += span
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((tracer.op_id, sid, parent, name, start, end))
                else:
                    tracer.spans_dropped += 1
            if finish:
                finish(result)
            return result

        return traced

    def _count(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # --- hooks for derived per-layer metrics ---------------------------------

    @staticmethod
    def _normal_form_hook(tracer, args, kwargs):
        if tracer._depth["polynomials.buchberger"] == 0:
            return None

        def finish(result):
            tracer.extra["nf_in_buchberger"] += 1
            if result.is_zero():
                tracer.extra["nf_zero_in_buchberger"] += 1

        return finish

    @staticmethod
    def _buchberger_hook(tracer, args, kwargs):
        return lambda result: tracer.extra.update(basis_elements=len(result.elements))

    @staticmethod
    def _can_term_hook(tracer, args, kwargs):
        if tracer._depth["oracle.can_poly"]:
            tracer.extra["can_term_in_can_poly"] += 1
        return None

    @staticmethod
    def _reconstruct_hook(tracer, args, kwargs):
        binary = kwargs.get("binary", args[3] if len(args) > 3 else False)

        def finish(result):
            mode = "binary" if binary else "linear"
            tracer.extra[f"recon_queries_{mode}"] += result.queries_used
            tracer.extra["recon_generators"] += len(result.generators)
            tracer.extra["recon_box"] += (result.bound + 1) ** result.nvars

        return finish

    @staticmethod
    def _peel_hook(tracer, args, kwargs):
        oracle = args[0]
        before = oracle.queries
        return lambda result: tracer.extra.update(peel_queries=oracle.queries - before)

    # --- install / uninstall --------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "escalier" and not modname.startswith("escalier."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_attr(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        lib = self.lib
        hooks = {
            "polynomials.normal_form": self._normal_form_hook,
            "polynomials.buchberger": self._buchberger_hook,
            "staircase.reconstruct": self._reconstruct_hook,
            "peeling.peel": self._peel_hook,
        }
        for modname in SPANNED_MODULES:
            mod = getattr(lib, modname)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{modname}.{attr}"
                self._replace_everywhere(fn, self._span(name, fn, hooks.get(name)))

        poly = lib.polynomials.Polynomial
        self._replace_attr(poly, "__mul__", self._span("polynomials.mul", poly.__dict__["__mul__"]))
        oracle = lib.oracle.CanOracle
        for attr in ("commutative", "noncommutative"):
            fn = oracle.__dict__[attr].__func__
            self._replace_attr(oracle, attr, classmethod(self._span("oracle.construct", fn)))
        for attr in ("member_T", "can_term", "can_poly", "masked_can"):
            hook = self._can_term_hook if attr == "can_term" else None
            self._replace_attr(oracle, attr, self._span(f"oracle.{attr}", oracle.__dict__[attr], hook))

        terms, words = lib.terms, lib.words
        self._replace_attr(terms.TermOrder, "key", self._count("terms.order_key", terms.TermOrder.key))
        self._replace_attr(words.WordOrder, "key", self._count("words.word_key", words.WordOrder.key))
        for name, fn in (
            ("terms.divides", terms.divides),
            ("terms.lcm", terms.lcm),
            ("words.is_factor", words.is_factor),
        ):
            self._replace_everywhere(fn, self._count(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results --------------------------------------------------------------

    def pass_counts(self) -> dict:
        """Every count of the pass; these must repeat exactly for a seed."""
        out = {f"{name}.calls": n for name, n in sorted(self.calls.items())}
        out.update(sorted(self.extra.items()))
        return out

    def write_spans(self, path) -> None:
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["op", "span", "parent", "name", "start", "end"],
                    "names": names,
                    "dropped": self.spans_dropped,
                    "spans": [[o, s, p, index[n], a, b] for o, s, p, n, a, b in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
