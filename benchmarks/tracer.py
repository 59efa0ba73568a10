"""Outside-in tracing of openbooks.

Spans and counters are recorded by wrapping calls into each module's
public functions from the benchmark's side; nothing under src/ knows
about the tracer.  `Instrumentation.install` replaces every target in
each openbooks module namespace that bound it by name (`tangent_bases`
is bound in manifolds, contact, monodromy, liouville, prelagrangian and
the package itself) and `remove` puts the originals back.  Timed,
untraced passes run with nothing installed.

A span's self time is its duration minus the durations of its direct
child spans.  Per-name aggregates (calls, self seconds) are kept online;
only spans given a label (the passes and the checks) are stored whole,
and run.py writes them out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Attribute set on every wrapper; it holds the wrapped original.
TRACED = "__bench_traced__"

# Layers in which every public module-level function is a span named
# "<layer>.<function>", so that the layer's self time is the sum of them.
WHOLE_LAYERS = ("contact", "bourgeois", "monodromy", "liouville",
                "prelagrangian", "report")

# Single targets in the kernel layers: (span name, module, attribute).
# A dotted attribute is a method, replaced on its class.
TARGETS = (
    ("forms.at_basis", "forms", "KForm.at_basis"),
    ("forms.jacobian", "forms", "SmoothMap.jacobian"),
    ("manifolds.constraint_jacobian", "manifolds", "Submanifold.jacobian"),
    ("manifolds.tangent_bases", "manifolds", "tangent_bases"),
    ("manifolds.project", "manifolds", "project_to_constraints"),
    ("manifolds.sample", "manifolds", "sample"),
    ("prelagrangian.simpson", "prelagrangian", "simpson"),
)


class Tracer:
    """Nested spans with per-name call counts and self times, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.reset()

    def reset(self):
        """Clear the per-name aggregates; labelled spans are kept."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def start(self, name, label=None):
        self._stack.append([name, label, self.clock(), 0.0])

    def stop(self):
        name, label, t0, child_s = self._stack.pop()
        t1 = self.clock()
        self.calls[name] += 1
        self.self_s[name] += (t1 - t0) - child_s
        if self._stack:
            self._stack[-1][3] += t1 - t0
        if label is not None:
            parent = next((frame[1] for frame in reversed(self._stack)
                           if frame[1] is not None), None)
            self.spans.append({"name": label, "parent": parent,
                               "start_s": t0, "end_s": t1})

    @contextmanager
    def span(self, name, label=None):
        self.start(name, label)
        try:
            yield
        finally:
            self.stop()

    def count(self, name, n=1):
        self.counts[name] += n

    def wrap(self, name, fn):
        """`fn` recorded as a span `name` on every call."""
        start, stop = self.start, self.stop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stop()

        setattr(traced, TRACED, fn)
        return traced

    def layer_self_s(self, layer):
        """Self time summed over every span of one layer."""
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def openbooks_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "openbooks" or name.startswith("openbooks.")]


def _module(name):
    return sys.modules[f"openbooks.{name}"]


def wrappers_present():
    """Names of the openbooks functions and methods currently wrapped."""
    found = [f"{m.__name__}.{k}" for m in openbooks_modules()
             for k, v in vars(m).items() if hasattr(v, TRACED)]
    forms = _module("forms")
    for cls in (forms.KForm, forms.SmoothMap, _module("manifolds").Submanifold):
        found += [f"{cls.__name__}.{k}" for k, v in vars(cls).items()
                  if hasattr(v, TRACED)]
    return found


class Instrumentation:
    """Installs the tracer's wrappers into openbooks; a context manager."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def install(self):
        if self._undo:
            raise RuntimeError("instrumentation is already installed")
        try:
            self._install()
        except BaseException:
            self.remove()
            raise

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _rebind(self, original, new):
        """Replace `original` in every openbooks module that bound it."""
        for module in openbooks_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, new)

    def _install(self):
        t = self.tracer
        hooks = {"forms.at_basis": self._at_basis,
                 "monodromy.flow": self._flow}
        targets = []
        for span, module_name, attr in TARGETS:
            owner = _module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            targets.append((span, owner, attr))
        for layer in WHOLE_LAYERS:
            module = _module(layer)
            targets += [(f"{layer}.{name}", module, name)
                        for name, fn in vars(module).items()
                        if inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__]
        for span, owner, attr in targets:
            original = vars(owner)[attr]
            if hasattr(original, TRACED):      # an alias already wrapped
                continue
            hook = hooks.get(span)
            new = t.wrap(span, original) if hook is None else hook(original)
            if inspect.isclass(owner):
                self._set(owner, attr, new)
            else:
                self._rebind(original, new)
        self._count_coeffs()

    def _at_basis(self, original):
        t = self.tracer
        traced = t.wrap("forms.at_basis", original)

        @functools.wraps(original)
        def at_basis(form, p, vectors):
            batch = np.broadcast_shapes(np.shape(p)[:-1],
                                        np.shape(vectors)[:-2])
            t.count("forms.at_basis.points", int(np.prod(batch)))
            return traced(form, p, vectors)

        setattr(at_basis, TRACED, original)
        return at_basis

    def _flow(self, original):
        """flow() as a span; counts points x RK4 steps from its arguments
        and times each evaluation of the field it integrates."""
        t = self.tracer
        traced = t.wrap("monodromy.flow", original)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def flow(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            n_points = 1 if np.ndim(a["p0"]) == 1 else len(a["p0"])
            steps = int(round(abs(a["t_end"]) / a["step"]))
            if a["check_halving"]:
                steps += int(round(abs(a["t_end"]) / (a["step"] / 2)))
            t.count("monodromy.flow.point_steps", n_points * steps)
            y = a["y"]
            a["y"] = dataclasses.replace(
                y, eval=t.wrap("monodromy.field_eval", y.eval))
            return traced(*bound.args, **bound.kwargs)

        setattr(flow, TRACED, original)
        return flow

    def _count_coeffs(self):
        """Wrap the coefficient function of every KForm built from now on
        so that each evaluation is counted."""
        t = self.tracer
        kform = _module("forms").KForm
        original = vars(kform)["__init__"]

        def counting(fn):
            def coeffs(p):
                t.count("forms.coeffs.calls")
                return fn(p)
            return coeffs

        @functools.wraps(original)
        def init(form, *args, **kwargs):
            original(form, *args, **kwargs)
            object.__setattr__(form, "coeffs", counting(form.coeffs))

        setattr(init, TRACED, original)
        self._set(kform, "__init__", init)
