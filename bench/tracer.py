"""Spans around levyfluct's public entry points, recorded from outside the package.

``Tracer.install()`` replaces every binding of each traced function in every
loaded ``levyfluct`` module (several modules bind ``quad``, ``apply_generator``
or ``check_membership`` by name at import, so patching the defining module
alone would miss their calls), and wraps the traced methods on their classes.
``Tracer.uninstall()`` puts the originals back.

Each span records its name, start, end, parent span and request id.  Spans
stay in memory (compact arrays) until ``write`` dumps them.  The innermost
integrands (``ExtendedPenalty.h``, jump densities) are deliberately not
spanned: they run millions of times and would swamp what is measured.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) of module-level functions; every binding is patched
FUNCTIONS = [
    ("levyfluct.models", "laplace_exponent"),
    ("levyfluct.models", "right_inverse_phi"),
    ("levyfluct.quadrature", "quad"),
    ("levyfluct.quadrature", "quad_log"),
    ("levyfluct.quadrature", "quad_singular_left"),
    ("levyfluct.generator", "extend_penalty"),
    ("levyfluct.generator", "check_membership"),
    ("levyfluct.generator", "apply_generator"),
    ("levyfluct.identities", "two_sided_exit_up"),
    ("levyfluct.identities", "resolvent_density"),
    ("levyfluct.identities", "creeping_transform"),
    ("levyfluct.identities", "overshoot_functional_general"),
    ("levyfluct.identities", "overshoot_functional_simple"),
    ("levyfluct.identities", "overshoot_zero_extension"),
    ("levyfluct.identities", "boundary_start"),
    ("levyfluct.identities", "overshoot_of_scale_function"),
    ("levyfluct.identities", "mass_balance_gap"),
    ("levyfluct.montecarlo", "simulate_first_passage"),
    ("levyfluct.montecarlo", "simulate_reflected"),
    ("levyfluct.montecarlo", "simulate_refracted"),
    ("levyfluct.montecarlo", "estimate_overshoot_functional"),
    ("levyfluct.montecarlo", "estimate_exit_transform"),
    ("levyfluct.montecarlo", "estimate_creeping"),
    ("levyfluct.montecarlo", "estimate_resolvent"),
    ("levyfluct.reflected_refracted", "reflected_overshoot"),
    ("levyfluct.reflected_refracted", "refracted_overshoot"),
    ("levyfluct.cli", "main"),
]

# (module, class, method)
METHODS = [
    ("levyfluct.scale", "ScaleFunction", "__init__"),
    ("levyfluct.scale", "ScaleFunction", "w"),
    ("levyfluct.scale", "ScaleFunction", "w_prime"),
    ("levyfluct.scale", "ScaleFunction", "z"),
    ("levyfluct.reflected_refracted", "MonteCarloProvider", "reflected"),
    ("levyfluct.reflected_refracted", "MonteCarloProvider", "refracted"),
]

SIMULATORS = ("simulate_first_passage", "simulate_reflected", "simulate_refracted")


class Tracer:
    def __init__(self):
        self.names = []
        self.kind = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.request_id = -1
        self._stack = [-1]
        self._patches = []
        self.tolerance_estimates = []
        self.w_points = 0
        self.sim_paths = 0
        self.sim_steps = 0
        self.sim_capped = 0
        self.sim_slots = 0      # sum over batches of batch_size * longest path in it

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        kind, parent, request, t0, t1 = (self.kind, self.parent, self.request,
                                         self.t0, self.t1)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(t0)
            kind.append(nid)
            parent.append(stack[-1])
            request.append(self.request_id)
            t1.append(0.0)
            stack.append(idx)
            t0.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _after_build(self, args, kwargs, out):
        self.tolerance_estimates.append(float(args[0].tolerance_estimate))

    def _after_w(self, args, kwargs, out):
        self.w_points += int(np.size(args[1] if len(args) > 1 else kwargs["x"]))

    def _after_simulate(self, args, kwargs, out):
        samples = out[0] if isinstance(out, tuple) else out
        scheme = next(a for a in list(args) + list(kwargs.values())
                      if type(a).__name__ == "SimScheme")
        steps = np.ceil(samples.times / scheme.dt - 1e-9).astype(np.int64)
        self.sim_paths += int(steps.size)
        self.sim_steps += int(steps.sum())
        self.sim_capped += int(np.count_nonzero(samples.sides == 0))
        bs = scheme.batch_size
        for lo in range(0, steps.size, bs):
            chunk = steps[lo:lo + bs]
            self.sim_slots += int(chunk.size) * int(chunk.max())

    def install(self):
        for mod_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            after = self._after_simulate if attr in SIMULATORS else None
            wrapped = self._wrap(f"{mod_name.split('.')[-1]}.{attr}", original, after)
            for mod in [m for k, m in sys.modules.items()
                        if k == "levyfluct" or k.startswith("levyfluct.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[attr]
            after = {"__init__": self._after_build, "w": self._after_w}.get(attr)
            setattr(cls, attr, self._wrap(f"{cls_name}.{attr}", original, after))
            self._patches.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def tables(self):
        """Per-span arrays: name ids, inclusive and self durations."""
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return kind, dur, dur - child

    def write(self, path):
        """Dump spans as gzip CSV: name, start, end, parent, request."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,request\n")
            for k, a, b, p, r in zip(self.kind, self.t0, self.t1, self.parent,
                                     self.request):
                fh.write(f"{self.names[k]},{a:.9f},{b:.9f},{p},{r}\n")
