"""Tracing of `modcat` from outside the program.

`Tracer.install` lists the package's public names at run time and wraps
each where its callers look it up: every module-level function (also the
`lru_cache`d ones), replaced in every `modcat` module that holds it, and
the arithmetic methods of the kernel classes `CycNum`, `QRatFn`,
`LaurentPoly` and `WPoly`.  A wrapped module-level function is a stage:
besides counts and times it records spans (name, case, start, end, parent
span).  A kernel method records counts and times only.  Self time is a
call's duration minus the time spent in the wrapped calls it made.
Everything stays in memory until `result`.

`LAYER_METRICS` turns a traced pass into the per-layer metrics that
BENCHMARK.json lists.
"""

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter
from math import gcd

KERNEL_CLASSES = ("CycNum", "QRatFn", "LaurentPoly", "WPoly")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
              "__neg__", "__eq__", "inverse", "conjugate", "bar", "scale")
# Hot stages such as lie.form run ~10^5 times a pass; their later spans
# are dropped (and counted) so the span list stays small.
SPANS_PER_NAME = 1000
VERLINDE = "fusion.verlinde_coefficient"


@functools.lru_cache(maxsize=None)
def _totient(n):
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _mul_field(tracer, args, result):
    orders = [getattr(a, "order", 1) for a in args[:2]]
    lcm = orders[0] * orders[1] // gcd(orders[0], orders[1])
    tracer.counts["cyc_mul.phi_sum"] += _totient(lcm)


def _inverse_site(tracer, args, result):
    if tracer.active[VERLINDE]:
        tracer.counts["cyc_inverse.in_verlinde"] += 1


def _fold_outcome(tracer, args, result):
    if getattr(result, "sign", 0) != 0:
        tracer.counts["fold_to_alcove.useful"] += 1


HOOKS = {
    "numeric.CycNum.__mul__": _mul_field,
    "numeric.CycNum.__rmul__": _mul_field,
    "numeric.CycNum.inverse": _inverse_site,
    "weyl.fold_to_alcove": _fold_outcome,
}


def _modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Wraps the public names of one package; one instance per pass."""

    def __init__(self, package):
        self.package = package
        self.case = None
        self.stats = {}            # name -> [calls, inclusive_s, self_s]
        self.counts = Counter()
        self.active = Counter()    # open calls per stage name
        self.spans = []            # [name, case, start, end, parent index]
        self.dropped = Counter()
        self._recorded = Counter()
        self._children = []       # child-time accumulator per open call
        self._open_spans = []
        self._patches = []
        self._caches = []
        self._t0 = 0.0

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, stage):
        stat = self.stats[name] = [0, 0.0, 0.0]
        hook = HOOKS.get(name)
        children = self._children
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            span = tracer._open_span(name) if stage else None
            child = [0.0]
            children.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child[0]
                if children:
                    children[-1][0] += elapsed
                if stage:
                    tracer._close_span(name, span, start + elapsed)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return call

    def _open_span(self, name):
        self.active[name] += 1
        parent = self._open_spans[-1] if self._open_spans else None
        if self._recorded[name] >= SPANS_PER_NAME:
            self.dropped[name] += 1
            self._open_spans.append(parent)
            return None
        self._recorded[name] += 1
        index = len(self.spans)
        self.spans.append([name, self.case, time.perf_counter() - self._t0,
                           None, parent])
        self._open_spans.append(index)
        return index

    def _close_span(self, name, index, end):
        self.active[name] -= 1
        self._open_spans.pop()
        if index is not None:
            self.spans[index][3] = end - self._t0

    def _patch(self, holder, attr, value):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self):
        """Wrap every public function and kernel arithmetic method."""
        modules = _modules(self.package)
        wrappers = {}
        for mod in modules[1:]:
            short = _short(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if hasattr(obj, "cache_info") and short == "numeric":
                    self._caches.append((obj, obj.cache_info()))
                if inspect.isclass(obj) and attr in KERNEL_CLASSES:
                    for meth in ARITHMETIC:
                        if meth in vars(obj):
                            fn = vars(obj)[meth]
                            self._patch(obj, meth, self._wrap(
                                f"{short}.{attr}.{meth}", fn, stage=False))
                elif (not attr.startswith("_")
                      and (inspect.isfunction(obj)
                           or hasattr(obj, "cache_info"))):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj,
                                                   stage=True)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        self._t0 = time.perf_counter()

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def result(self):
        hits = sum(fn.cache_info().hits - before.hits
                   for fn, before in self._caches)
        misses = sum(fn.cache_info().misses - before.misses
                     for fn, before in self._caches)
        return {"stats": self.stats, "counts": dict(self.counts),
                "cache": {"hits": hits, "misses": misses},
                "spans": self.spans, "spans_dropped": dict(self.dropped)}


# -- per-layer metrics ----------------------------------------------------

def _calls(trace, *names):
    return sum(trace["stats"].get(n, (0,))[0] for n in names)


def _self(trace, *names):
    return sum(trace["stats"].get(n, (0, 0.0, 0.0))[2] for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


CYC_MUL = ("numeric.CycNum.__mul__", "numeric.CycNum.__rmul__")
CYC_ADD = ("numeric.CycNum.__add__", "numeric.CycNum.__radd__")
QRAT_ARITH = tuple(f"numeric.QRatFn.{m}" for m in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__"))


def _calls_of(*names):
    return lambda t, rec: _calls(t, *names)


def _self_of(*names):
    return lambda t, rec: _self(t, *names)


# (metric, unit, better, function of (trace, pass record));
# trace.overhead_frac is added by run.py from the untraced passes
LAYER_METRICS = [
    ("numeric.cyc_mul.calls", "count", "lower",
     _calls_of(*CYC_MUL)),
    ("numeric.cyc_mul.self_s", "s", "lower",
     _self_of(*CYC_MUL)),
    ("numeric.cyc_mul.mean_phi", "count", "lower",
     lambda t, rec: _ratio(t["counts"].get("cyc_mul.phi_sum", 0),
                           _calls(t, *CYC_MUL))),
    ("numeric.cyc_add.calls", "count", "lower",
     _calls_of(*CYC_ADD)),
    ("numeric.cyc_add.self_s", "s", "lower",
     _self_of(*CYC_ADD)),
    ("numeric.cyc_eq.calls", "count", "lower",
     _calls_of("numeric.CycNum.__eq__")),
    ("numeric.cyc_inverse.calls", "count", "lower",
     _calls_of("numeric.CycNum.inverse")),
    ("numeric.cyc_inverse.self_s", "s", "lower",
     _self_of("numeric.CycNum.inverse")),
    ("numeric.qrat_arith.calls", "count", "lower",
     _calls_of(*QRAT_ARITH)),
    ("numeric.qrat_arith.self_s", "s", "lower",
     _self_of(*QRAT_ARITH)),
    ("numeric.laurent_mul.calls", "count", "lower",
     _calls_of("numeric.LaurentPoly.__mul__")),
    ("numeric.cyclotomic_cache.hit_ratio", "ratio", "higher",
     lambda t, rec: _ratio(t["cache"]["hits"],
                           t["cache"]["hits"] + t["cache"]["misses"])),
    ("lie.form.calls", "count", "lower", _calls_of("lie.form")),
    ("lie.form.self_s", "s", "lower", _self_of("lie.form")),
    ("lie.build_root_system.self_s", "s", "lower",
     _self_of("lie.build_root_system")),
    ("weyl.enumerate_weyl.self_s", "s", "lower",
     _self_of("weyl.enumerate_weyl")),
    ("weyl.enumerate_alcove.self_s", "s", "lower",
     _self_of("weyl.enumerate_alcove")),
    ("weyl.fold_to_alcove.calls", "count", "lower",
     _calls_of("weyl.fold_to_alcove")),
    ("weyl.fold_to_alcove.self_s", "s", "lower",
     _self_of("weyl.fold_to_alcove")),
    ("weyl.fold_to_alcove.useful_ratio", "ratio", "higher",
     lambda t, rec: _ratio(t["counts"].get("fold_to_alcove.useful", 0),
                           _calls(t, "weyl.fold_to_alcove"))),
    ("chardata.quantum_dim.calls", "count", "lower",
     _calls_of("chardata.quantum_dim")),
    ("chardata.quantum_dim.self_s", "s", "lower",
     _self_of("chardata.quantum_dim")),
    ("chardata.weight_multiplicities.self_s", "s", "lower",
     _self_of("chardata.weight_multiplicities")),
    ("modular.build_modular_data.self_s", "s", "lower",
     _self_of("modular.build_modular_data")),
    ("modular.verify_modular_relations.self_s", "s", "lower",
     _self_of("modular.verify_modular_relations")),
    ("modular.mat_mul.calls", "count", "lower",
     _calls_of("modular.mat_mul")),
    ("modular.mat_mul.self_s", "s", "lower",
     _self_of("modular.mat_mul")),
    ("modular.mat_det_is_nonzero.self_s", "s", "lower",
     _self_of("modular.mat_det_is_nonzero")),
    ("fusion.build_fusion_table.self_s", "s", "lower",
     _self_of("fusion.build_fusion_table")),
    ("fusion.verify_fusion.self_s", "s", "lower",
     _self_of("fusion.verify_fusion")),
    ("fusion.verlinde_coefficient.calls", "count", "lower",
     _calls_of(VERLINDE)),
    ("fusion.verlinde_coefficient.self_s", "s", "lower",
     _self_of(VERLINDE)),
    ("fusion.inverses_per_verlinde", "ratio", "lower",
     lambda t, rec: _ratio(t["counts"].get("cyc_inverse.in_verlinde", 0),
                           _calls(t, VERLINDE))),
    ("fusion.verify_grothendieck.self_s", "s", "lower",
     _self_of("fusion.verify_grothendieck")),
    ("macdonald.build_context.self_s", "s", "lower",
     _self_of("macdonald.build_context")),
    ("macdonald.macdonald_polynomial.self_s", "s", "lower",
     _self_of("macdonald.macdonald_polynomial")),
    ("macdonald.inner_product_k.calls", "count", "lower",
     _calls_of("macdonald.inner_product_k")),
    ("macdonald.inner_product_k.self_s", "s", "lower",
     _self_of("macdonald.inner_product_k")),
    ("macdonald.wpoly_mul.calls", "count", "lower",
     _calls_of("macdonald.WPoly.__mul__")),
    ("macdonald.verify_generic_macdonald.self_s", "s", "lower",
     _self_of("macdonald.verify_generic_macdonald")),
    ("macdonald.verify_section5.self_s", "s", "lower",
     _self_of("macdonald.verify_section5")),
    ("report.checks.attempted", "count", "higher",
     lambda t, rec: rec["checks_attempted"]),
    ("report.checks.failed", "count", "lower",
     lambda t, rec: rec["checks_failed"]),
    ("cli.main.self_s", "s", "lower", _self_of("cli.main")),
    ("cli.output_bytes", "bytes", "lower",
     lambda t, rec: rec["output_bytes"]),
]


def layer_shares(trace, wall):
    """Shares of the pass wall time: self time per module, and inclusive
    time of each stage that takes at least 5% of it."""
    if not wall:
        return {}
    per_module = Counter()
    inclusive = {}
    for name, (_, total, self_s) in trace["stats"].items():
        per_module[name.split(".", 1)[0]] += self_s
        if total >= 0.05 * wall and name.count(".") == 1:
            inclusive[name] = total / wall
    return {"self_by_module": {m: per_module[m] / wall
                               for m in sorted(per_module)},
            "inclusive_by_stage": dict(sorted(inclusive.items(),
                                              key=lambda kv: -kv[1]))}
