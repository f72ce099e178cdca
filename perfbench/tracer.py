"""Per-layer tracing of kaclab from outside the package.

The tracer rebinds kaclab's public functions, wherever a kaclab module holds
them, to wrappers that record a span (name, start, end, parent) and add to
per-name totals.  SuperLU factorizations, from kaclab.hartree and from the
shift-invert mode of scipy's ARPACK wrapper, are wrapped the same way, and
the factor objects they return count their solves.  Uninstalling restores the
original bindings.  Spans stay in memory; the frequent convolution and LU
solve calls are only totalled.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module under kaclab, function): spans named "<module>.<function>"
WRAPPED = (
    ("disorder", "build_realization"),
    ("laplace", "lowest_eigenpairs"),
    ("laplace", "ground_state_component"),
    ("laplace", "eigsh"),
    ("interaction", "build_interaction"),
    ("interaction", "convolve_density"),
    ("hartree", "minimize_hartree"),
    ("hartree", "component_ground_state"),
    ("hartree", "effective_spectrum"),
    ("certify", "build_certificate"),
    ("manybody", "build_manybody_hamiltonian"),
    ("manybody", "ground_state"),
    ("manybody", "one_body_density_matrix"),
    ("ensemble", "run_realization"),
    ("ensemble", "run_ensemble"),
)
# modules whose `splu` name is the SuperLU factorization used by kaclab
SPLU_HOLDERS = ("kaclab.hartree", "scipy.sparse.linalg._eigen.arpack.arpack")
UNSPANNED = frozenset({"interaction.convolve_density", "laplace.lu_solve"})

# per-layer metric -> (span name, "time" | "calls"), or a result counter
PER_LAYER = {
    "disorder.build_realization_s": ("disorder.build_realization", "time"),
    "laplace.lowest_eigenpairs_s": ("laplace.lowest_eigenpairs", "time"),
    "laplace.eigensolves": ("laplace.lowest_eigenpairs", "calls"),
    "laplace.arpack_eigensolves": ("laplace.eigsh", "calls"),
    "laplace.lu_factorizations": ("laplace.lu_factorize", "calls"),
    "laplace.lu_factorize_s": ("laplace.lu_factorize", "time"),
    "laplace.lu_solve_s": ("laplace.lu_solve", "time"),
    "laplace.ground_state_component_s": ("laplace.ground_state_component", "time"),
    "interaction.convolutions": ("interaction.convolve_density", "calls"),
    "interaction.convolve_density_s": ("interaction.convolve_density", "time"),
    "interaction.build_interaction_s": ("interaction.build_interaction", "time"),
    "hartree.minimize_hartree_s": ("hartree.minimize_hartree", "time"),
    "hartree.component_ground_state_s": ("hartree.component_ground_state", "time"),
    "hartree.effective_spectrum_s": ("hartree.effective_spectrum", "time"),
    "certify.build_certificate_s": ("certify.build_certificate", "time"),
    "manybody.build_s": ("manybody.build_manybody_hamiltonian", "time"),
    "manybody.ground_state_s": ("manybody.ground_state", "time"),
    "manybody.rho1_s": ("manybody.one_body_density_matrix", "time"),
    "ensemble.run_realization_s": ("ensemble.run_realization", "time"),
}
# counters read off returned objects
RESULT_COUNTERS = {
    "hartree.minimize_hartree": ("hartree.flow_iterations", lambda hs: hs.iterations),
    "manybody.build_manybody_hamiltonian": ("manybody.basis_states", lambda H: H.basis_dim),
}


class _TracedLU:
    """SuperLU factor whose solve calls are traced; other attributes pass through."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        return self._tracer.call("laplace.lu_solve", self._lu.solve, rhs, trans)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []            # (name, start, end, parent span index or -1)
        self.overhead_s = 0.0      # bookkeeping time spent inside the wrappers
        self._stack = []           # open spans: [span index, child time]
        self._bindings = []        # (module, attribute, original)

    def call(self, name, fn, *args, **kwargs):
        enter = time.perf_counter()
        parent = self._stack[-1][0] if self._stack else -1
        index = -1
        if name not in UNSPANNED:
            index = len(self.spans)
            self.spans.append(None)
        frame = [index if index >= 0 else parent, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.time[name] += duration
            self.self_time[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if index >= 0:
                self.spans[index] = (name, start, end, parent)
        counter = RESULT_COUNTERS.get(name)
        if counter is not None:
            self.counters[counter[0]] += counter[1](result)
        self.overhead_s += (start - enter) + (time.perf_counter() - end)
        return result

    def _rebind(self, original, replacement, modules):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._bindings.append((module, attr, original))

    def install(self):
        kaclab_modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "kaclab" or name.startswith("kaclab.")
        ]
        for module_name, func_name in WRAPPED:
            module = importlib.import_module(f"kaclab.{module_name}")
            original = getattr(module, func_name)
            # a function kaclab imports (eigsh) is traced only where it is named
            own = original.__module__.startswith("kaclab")
            self._rebind(original, self._wrapper(f"{module_name}.{func_name}", original),
                         kaclab_modules if own else [module])
        for holder in SPLU_HOLDERS:
            module = importlib.import_module(holder)
            original = module.splu

            @functools.wraps(original)
            def traced_splu(*args, _splu=original, **kwargs):
                return _TracedLU(self.call("laplace.lu_factorize", _splu, *args, **kwargs), self)

            self._rebind(original, traced_splu, [module])

    def uninstall(self):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def per_layer(self, items: int, elapsed_s: float) -> dict:
        """Per-item layer metrics (name -> (value, unit)) over a timed region."""
        out = {}
        for metric, (span, kind) in PER_LAYER.items():
            if kind == "calls":
                out[metric] = (self.calls[span] / items, "count")
            else:
                out[metric] = (self.time[span] / items, "s")
        for name, _ in RESULT_COUNTERS.values():
            out[name] = (self.counters[name] / items, "count")
        overhead = 0.0
        if self.calls["ensemble.run_ensemble"]:
            overhead = self.time["ensemble.run_ensemble"] - self.time["ensemble.run_realization"]
        out["ensemble.overhead_s"] = (overhead / items, "s")
        out["trace.items_per_s"] = (items / elapsed_s, "1/s")
        out["trace.overhead_s"] = (self.overhead_s / items, "s")
        return out

    def summary(self) -> dict:
        """Totals per span name and the recorded spans, for the results file."""
        return {
            "totals": {
                name: {"calls": self.calls[name], "time_s": self.time[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.calls)
            },
            "counters": dict(self.counters),
            "spans": self.spans,
        }
