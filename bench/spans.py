"""Spans around hrtwist's layers, recorded from outside the program.

`Tracer.install()` replaces each traced function or method by a wrapper
that records a span (name, start, end, parent, thread, answer).  Functions
are replaced under every name a loaded hrtwist module binds them to:
`cli` and `oracles` import `solve_pprime`, `is_estimate`, `naive_mc` and
`tail_convolution_2` by name, so patching only the defining module would
miss their calls.  Methods are replaced on their classes.

Calls too frequent for one span each are counted instead: hazard
evaluations inside a solve (their time is kept on the solve span and
taken out of its self time) and log-density calls inside an oracle span.

Spans stay in memory until `write()`.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "thread", "answer",
                 "leaf_s", "leaf_n", "attrs")

    def __init__(self, id, parent, name, thread, answer):
        self.id, self.parent, self.name = id, parent, name
        self.thread, self.answer = thread, answer
        self.t0 = self.t1 = 0.0
        self.leaf_s, self.leaf_n = 0.0, 0
        self.attrs = {}

    @property
    def seconds(self):
        return self.t1 - self.t0


def _estimate_attrs(span, result):
    span.attrs.update(samples=result.sample_count, hits=result.hit_frequency,
                      alpha=result.alpha_hat, m2=result.second_moment_weight)


def _size_attr(key):
    def record(span, result):
        span.attrs[key] = int(np.size(result))
    return record


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(int)
        self.answer = 0          # set by the caller before each answer
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _current(self):
        """Innermost open span of this thread; a pool worker's is its caller's."""
        stack = self._stack() or self._main_stack
        return stack[-1] if stack else None

    def _span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current()
            span = Span(next(self._ids), parent.id if parent else None, name,
                        threading.get_ident(), self.answer)
            stack = self._stack()
            stack.append(span)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                self.spans.append(span)
            if on_result is not None:
                on_result(span, result)
            return result
        return wrapper

    def _leaf(self, parent_name, fn):
        """Time and count calls made directly inside a `parent_name` span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current()
            if parent is None or parent.name != parent_name:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                parent.leaf_s += perf_counter() - t0
                parent.leaf_n += 1
        return wrapper

    def _counter(self, parent_name, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current()
            if parent is not None and parent.name == parent_name:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch_function(self, module, attr, make):
        """Replace `module.attr` under every name hrtwist binds it to."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "hrtwist" and not name.startswith("hrtwist."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def install(self):
        from hrtwist import distributions, streams, twisting

        fn = self._patch_function
        fn("hrtwist.cli", "main", lambda f: self._span("cli.main", f))
        fn("hrtwist.solver", "solve_pprime",
           lambda f: self._span("solver.solve_pprime", f))
        fn("hrtwist.estimators", "is_estimate",
           lambda f: self._span("estimators.is_estimate", f, _estimate_attrs))
        fn("hrtwist.estimators", "naive_mc",
           lambda f: self._span("estimators.naive_mc", f, _estimate_attrs))
        fn("hrtwist.oracles", "tail_convolution_2",
           lambda f: self._span("oracles.tail_convolution_2", f))

        m = self._patch_method
        m(streams.RandomStream, "uniforms_at",
          lambda f: self._span("streams.uniforms_at", f, _size_attr("words")))
        for cls in (distributions.Weibull, distributions.Lognormal):
            m(cls, "quantile_from_log_sf",
              lambda f, c=cls: self._span(f"distributions.quantile.{c.family}",
                                          f, _size_attr("values")))
            m(cls, "log_pdf", lambda f: self._counter(
                "oracles.tail_convolution_2", "oracles.integrand_evals", f))
        m(twisting.TwistedDistribution, "quantile",
          lambda f: self._span("twisting.quantile", f, _size_attr("values")))
        for cls, attr in ((distributions.Distribution, "hazard_function"),
                          (distributions.Distribution, "hazard_rate"),
                          (distributions.Weibull, "hazard_rate")):
            m(cls, attr, lambda f: self._leaf("solver.solve_pprime", f))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write the spans, one JSON object a line, times relative to the first."""
        base = min((s.t0 for s in self.spans), default=0.0)
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s.t0):
                f.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "answer": s.answer, "thread": s.thread,
                    "start_s": s.t0 - base, "end_s": s.t1 - base,
                    "leaf_s": s.leaf_s, "leaf_calls": s.leaf_n, **s.attrs}) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans: list[Span], counts: dict) -> dict[str, float]:
    """Per-layer counts and times from one traced stretch of answers.

    A span's self time is its duration minus the part of it covered by
    child spans, minus the time of its counted leaf calls.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    self_s = {s.id: s.seconds - s.leaf_s
              - _covered([(c.t0, c.t1) for c in children[s.id]]) for s in spans}

    def by(prefix):
        return [s for s in spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def total(prefix, f=lambda s: s.seconds):
        return float(sum(f(s) for s in by(prefix)))

    est = by("estimators")
    is_runs = by("estimators.is_estimate")
    est_children = [c for s in est for c in children[s.id]]
    # an IS run whose second moment underflowed to 0 has no ESS
    ess = [s.attrs["alpha"] ** 2 / s.attrs["m2"] for s in is_runs if s.attrs["m2"] > 0]
    main_s = total("cli.main")
    out = {
        "cli.main.s": main_s,
        "cli.self_s": total("cli.main", lambda s: self_s[s.id]),
        "solver.solve_pprime.calls": len(by("solver.solve_pprime")),
        "solver.solve_pprime.s": total("solver.solve_pprime"),
        "solver.solve_pprime.self_s": total("solver.solve_pprime", lambda s: self_s[s.id]),
        "solver.hazard_evals": total("solver.solve_pprime", lambda s: s.leaf_n),
        "distributions.hazard.s": total("solver.solve_pprime", lambda s: s.leaf_s),
        "streams.uniforms_at.calls": len(by("streams.uniforms_at")),
        "streams.uniforms_at.words": total("streams.uniforms_at", lambda s: s.attrs["words"]),
        "streams.uniforms_at.s": total("streams.uniforms_at"),
        "distributions.quantile.s": total("distributions.quantile"),
    }
    for family in ("lognormal", "weibull"):
        name = f"distributions.quantile.{family}"
        out[f"{name}.values"] = total(name, lambda s: s.attrs["values"])
        out[f"{name}.s"] = total(name)
    samples = total("estimators", lambda s: s.attrs["samples"])
    est_s = total("estimators")
    out.update({
        "estimators.is_estimate.calls": len(is_runs),
        "estimators.is_estimate.s": total("estimators.is_estimate"),
        "estimators.naive_mc.calls": len(by("estimators.naive_mc")),
        "estimators.naive_mc.s": total("estimators.naive_mc"),
        "estimators.self_s": total("estimators", lambda s: self_s[s.id]),
        "estimators.samples": samples,
        "estimators.msamples_per_s": samples / est_s / 1e6 if est_s else 0.0,
        "estimators.concurrency":
            sum(c.seconds for c in est_children) / est_s if est_s else 0.0,
        "estimators.hit_ratio":
            sum(s.attrs["hits"] for s in is_runs)
            / max(1, sum(s.attrs["samples"] for s in is_runs)),
        "estimators.ess_ratio": float(np.median(ess)) if ess else 0.0,
        "twisting.quantile.calls": len(by("twisting.quantile")),
        "twisting.quantile.s": total("twisting.quantile"),
        "oracles.tail_convolution_2.calls": len(by("oracles.tail_convolution_2")),
        "oracles.tail_convolution_2.s": total("oracles.tail_convolution_2"),
        "oracles.integrand_evals": counts.get("oracles.integrand_evals", 0),
        "solver.share": out["solver.solve_pprime.s"] / main_s if main_s else 0.0,
        "estimators.share": est_s / main_s if main_s else 0.0,
        "oracles.share": total("oracles") / main_s if main_s else 0.0,
        # every span's self time plus counted leaf time; equals cli.main.s
        # when no two spans overlap, i.e. with one worker thread
        "trace.self_sum_s": float(sum(self_s.values())
                                  + sum(s.leaf_s for s in spans)),
    })
    return out
