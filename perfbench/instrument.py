"""Wrap muonlab's layers in spans for one traced cycle, then restore them.

Only the benchmark process is changed: module attributes are replaced while
a cycle runs and put back afterwards.  Calls between and within modules go
through module attributes (``linalg.polar_exact``, ``harness.run_experiment``),
so they reach the wrappers.  Spans are named ``<module>.<function>``; the
norms entry points that dispatch on a spec get the spec's type as a suffix.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os

import numpy as np

from muonlab import counterexample, harness, linalg, norms, optim

# Modules whose public functions are all wrapped.
WRAPPED_MODULES = (linalg, norms, harness)
# Norms entry points whose span name carries the spec type.
PER_SPEC = ("lmo_min", "dual_norm", "compress", "primal_norm")


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


def _short(mod) -> str:
    return mod.__name__.rsplit(".", 1)[-1]


class TracedOracle:
    """An oracle whose ``evaluate`` is spanned as ``name``."""

    def __init__(self, tracer, base, name):
        self._tracer = tracer
        self._base = base
        self._name = name

    def evaluate(self, W):
        return self._tracer.span(self._name, self._base.evaluate, W)


@functools.cache
def _traced_schedule_class(cls):
    def value(self, t, momentum=None):
        return self._tracer.span("optim.schedule", cls.value, self, t, momentum=momentum)

    return type("Traced" + cls.__name__, (cls,), {"value": value})


def traced_schedule(tracer, schedule):
    """A copy of ``schedule`` whose ``value`` is spanned as ``optim.schedule``.

    The copy's class derives from the schedule's own, so isinstance checks
    in the step rules see the same type.
    """
    cls = _traced_schedule_class(type(schedule))
    copy = cls.__new__(cls)
    copy.__dict__.update(schedule.__dict__, _tracer=tracer)
    return copy


def _per_spec(tracer, fname, fn):
    def traced(W, spec, *args, **kwargs):
        name = f"norms.{fname}.{type(spec).__name__}"
        return tracer.span(name, fn, W, spec, *args, **kwargs)

    return traced


def _newton_schulz(tracer, fn):
    def traced(A, *args, **kwargs):
        if tracer.in_item:
            m, n = np.shape(A)
            default = getattr(linalg, "NEWTON_SCHULZ_DEFAULT_ITERS", 0)
            iters = kwargs.get("iters", args[0] if args else default)
            # X @ X.T costs 2 m n m flops and (X X^T) @ X another 2 m m n.
            tracer.counts["ns_flop"] += 4 * m * m * n * iters
        return tracer.span("linalg.polar_newton_schulz", fn, A, *args, **kwargs)

    return traced


def _write_csv(tracer, fn):
    def traced(path, *args, **kwargs):
        out = tracer.span("harness.write_csv", fn, path, *args, **kwargs)
        if tracer.in_item:
            tracer.counts["csv_bytes"] += os.path.getsize(path)
        return out

    return traced


def _run(tracer, fn):
    def traced(method, oracle, state0, T, *args, **kwargs):
        if tracer.in_item:
            tracer.counts["run_steps"] += int(T)
        return tracer.span("optim.run", fn, method, oracle, state0, T, *args, **kwargs)

    return traced


def _svd_counter(tracer, fn):
    def counted(*args, **kwargs):
        if tracer.in_item:
            tracer.counts[("svd", tracer.item_kind)] += 1
        return fn(*args, **kwargs)

    return counted


@contextlib.contextmanager
def installed(tracer):
    """Replace the layers' entry points with spanned wrappers while active."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for mod in WRAPPED_MODULES:
            for name, fn in _public_functions(mod):
                if mod is norms and name in PER_SPEC:
                    patch(mod, name, _per_spec(tracer, name, fn))
                elif mod is linalg and name == "polar_newton_schulz":
                    patch(mod, name, _newton_schulz(tracer, fn))
                elif mod is harness and name == "write_csv":
                    patch(mod, name, _write_csv(tracer, fn))
                else:
                    patch(mod, name, tracer.wrap(f"{_short(mod)}.{name}", fn))
        for key, fn in list(harness.SUITES.items()):
            saved.append((harness.SUITES, key, fn))
            harness.SUITES[key] = tracer.wrap(f"harness.suite.{key}", fn)
        patch(optim, "run", _run(tracer, optim.run))
        patch(optim, "efm_bound", tracer.wrap("optim.efm_bound", optim.efm_bound))
        patch(counterexample, "cex1_build",
              tracer.wrap("counterexample.cex1_build", counterexample.cex1_build))
        kinky_oracle = counterexample.KinkyFunction.oracle
        patch(counterexample.KinkyFunction, "oracle",
              lambda fn, *a, **k: TracedOracle(tracer, kinky_oracle(fn, *a, **k),
                                               "counterexample.oracle"))
        patch(np.linalg, "svd", _svd_counter(tracer, np.linalg.svd))
        yield
    finally:
        for owner, attr, value in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
