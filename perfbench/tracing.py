"""Per-layer tracing by wrapping public functions from outside the program.

Each traced function is replaced, in every module that bound its name, by a
wrapper that counts calls and accumulates inclusive time and self time
(inclusive time minus the time spent in nested traced calls).  Wrappers are
installed only for traced passes and removed afterwards, so untraced passes
run the program's own functions.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# layer -> (module that defines the functions, functions traced in it)
LAYERS = {
    "linalg": ("adiapower.linalg", ("tensor", "eig_hermitian", "expm_skew")),
    "lapack": ("numpy.linalg", ("eigh", "svd")),
    "entanglement": ("adiapower.entanglement",
                     ("entropy", "concurrence_coefficients")),
    "families": ("adiapower.families", ("example1_unitary", "example2_unitary")),
    "power": ("adiapower.power",
              ("HamiltonianFamily.eigensystem", "entropy_sweep",
               "adiabatic_entangling_power", "bound_check",
               "unitary_entangling_power", "product_state", "minimize")),
    "simulate": ("adiapower.simulate",
                 ("propagate", "propagate_unitary",
                  "synthesize_controlled_phase", "pancharatnam_phase")),
    "spectral": ("adiapower.spectral",
                 ("is_adiabatically_connectible", "spectral_resolution",
                  "build_connecting_family", "min_gap_along")),
    "cli": ("adiapower.cli", ("main",)),
}


def _matrices(args, kwargs):
    a = np.asarray(args[0] if args else kwargs["a"])
    return {"mats": int(np.prod(a.shape[:-2], dtype=np.int64))}


def _minimize_result(res):
    return {"nfev": int(res.nfev), "unconverged": int(not res.success)}


# Extra counters per function: (counter names, hook on the arguments, hook on
# the result); a hook returns {counter name: value}.
_EXTRA = {
    "lapack.eigh": (("mats",), _matrices, None),
    "lapack.svd": (("mats",), _matrices, None),
    "power.minimize": (("nfev", "unconverged"), None, _minimize_result),
}

# Diagnostics reported by the workloads' output checks in traced passes.
DIAGNOSTICS = (("cli.out_bytes", "bytes"), ("cli.golden_byte_identical", "count"))


def function_names() -> list:
    """Traced function names as '<layer>.<function>'."""
    return [f"{layer}.{qual.rpartition('.')[2]}"
            for layer, (_, quals) in LAYERS.items() for qual in quals]


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        for counter in _EXTRA.get(name, ((),))[0]:
            units[f"{name}.{counter}"] = "count"
    units.update(DIAGNOSTICS)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Call counts, inclusive and self time, and counters per traced function."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = Counter()
        self.active = False          # switched off around the benchmark's own checks
        self._stack = []             # time spent in nested traced calls, per open call
        self._depth = Counter()
        self._patches = []

    def _wrap(self, name, fn):
        _, before, after = _EXTRA.get(name, ((), None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                tracer.add(name, before(args, kwargs))
            nested = [0.0]
            tracer._stack.append(nested)
            tracer._depth[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                tracer._depth[name] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                tracer.calls[name] += 1
                tracer.self_time[name] += dt - nested[0]
                if tracer._depth[name] == 0:     # recursion counts once
                    tracer.inclusive[name] += dt
            if after is not None:
                tracer.add(name, after(out))
            return out

        return wrapper

    def add(self, prefix, values):
        """Add to the counters named '<prefix>.<key>' for each key of values."""
        for key, v in values.items():
            self.counters[f"{prefix}.{key}"] += v

    def install(self):
        """Wrap every traced function wherever its name is bound."""
        for layer, (home_name, quals) in LAYERS.items():
            home = sys.modules[home_name]
            scope = home_name if layer == "lapack" else "adiapower"
            for qual in quals:
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    owners = [getattr(home, owner_name)]
                    orig = owners[0].__dict__[attr]
                else:
                    orig = getattr(home, attr)
                    owners = [m for mod_name, m in list(sys.modules.items())
                              if m is not None and (mod_name == scope
                                                    or mod_name.startswith(scope + "."))]
                wrapper = self._wrap(f"{layer}.{attr}", orig)
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is orig:
                            setattr(owner, key, wrapper)
                            self._patches.append((owner, key, orig))

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def metrics(self, passes: int) -> dict:
        """Per-pass value of every per-layer metric except the overhead."""
        out = {}
        for name in function_names():
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.s"] = self.inclusive[name] / passes
            out[f"{name}.self_s"] = self.self_time[name] / passes
        for key in metric_units():
            if key not in out and key != "trace.overhead_s":
                out[key] = self.counters[key] / passes
        return out
