"""Span tracing of qfilter, installed from outside the program.

`Tracer.install` rebinds every name that one ``qfilter`` module imports from
another, at the importing module's binding, to a wrapper that records a span
(name, parent span, command id, start, end, two work counters).  A module
imported as a whole (``from . import io as qio``) is rebound to a proxy
module whose own functions are wrapped.  Calls inside one module are not
seen, so a layer's self time is the time its spans spend outside spans of
other layers.  A work-counter hook runs after its span ends; its time is
recorded and charged to no span's self time.  Spans stay in memory until
`save` writes them out.

Nothing under ``src/`` is edited; `uninstall` restores every binding, and
`install` can be called again to trace the next pass with the same wrappers.
"""

from __future__ import annotations

import functools
import json
import os
import pkgutil
import types
from array import array
from importlib import import_module
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "qfilter"

# Layers are the package's modules; the verification helpers count as `verify`.
LAYER_OF_MODULE = {"ito": "verify", "qprob": "verify"}
LAYERS = (
    "cli", "config", "model", "trajectory", "ensemble",
    "master", "io", "classical", "verify", "linalg",
)


def short_module(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def layer_of(span_name: str) -> str:
    module = span_name.split(".", 1)[0]
    return LAYER_OF_MODULE.get(module, module)


def package_modules():
    """Every submodule of the package, imported (the package itself excluded)."""
    package = import_module(PACKAGE)
    return [
        import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


# --- work counters recorded with a span: hook(args, kwargs, result) -> (work, aux)


def _batch(rho) -> float:
    return float(np.prod(np.shape(rho)[:-2]))


def _quad_kernel(args, kwargs, out):
    return _batch(args[0]), 0.0


def _count_kernel(args, kwargs, out):
    # aux: trajectories that jumped; when nonzero the jump branch ran for the batch.
    return _batch(args[0]), float(np.count_nonzero(args[1]))


def _master_steps(args, kwargs, out):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    return float(grid.steps), 0.0


def _particle_step(args, kwargs, out):
    # systematic_resample is called inside classical, so it is seen from its
    # result: a resampled ensemble carries all-zero log-weights.
    return float(out.n), float(not np.any(out.log_weights))


def _files_written(args, kwargs, out):
    size = lines = 0
    for arg in args:
        if isinstance(arg, (str, os.PathLike)) and os.path.isfile(arg):
            data = Path(arg).read_bytes()
            size += len(data)
            lines += data.count(b"\n")
    return float(size), float(lines)


HOOKS = {
    "trajectory.quad_step_arrays": _quad_kernel,
    "trajectory.count_step_arrays": _count_kernel,
    "master.integrate_master": _master_steps,
    "classical.particle_step": _particle_step,
    "io.write_states_csv": _files_written,
    "io.write_record_csv": _files_written,
    "io.write_ensemble_outputs": _files_written,
    "io.write_classical_csv": _files_written,
}


class Tracer:
    """In-memory span recorder.  Set `cmd_id` before each command."""

    def __init__(self):
        self.sites = []  # (span name, importing module) per wrapper
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.work = array("d")
        self.aux = array("d")
        self.hook = array("d")  # time spent in the span's work-counter hook
        self.cmd_id = -1
        self.bound = set()  # span names that have at least one binding
        self._stack = [-1]
        self._bindings = None  # (module, attribute, original, wrapper)

    def wrap(self, fn, span_name: str, site: str):
        site_id = len(self.sites)
        self.sites.append((span_name, site))
        self.bound.add(span_name)
        hook = HOOKS.get(span_name)
        name, parent, cmd = self.name, self.parent, self.cmd
        t0, t1, work, aux, hook_s = self.t0, self.t1, self.work, self.aux, self.hook
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t0)
            name.append(site_id)
            parent.append(stack[-1])
            cmd.append(tracer.cmd_id)
            work.append(0.0)
            aux.append(0.0)
            hook_s.append(0.0)
            t1.append(0.0)
            stack.append(sid)
            t0.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                h0 = perf_counter()
                work[sid], aux[sid] = hook(args, kwargs, out)
                hook_s[sid] = perf_counter() - h0
            return out

        return traced

    def _proxy(self, module: types.ModuleType, site: str) -> types.ModuleType:
        proxy = types.ModuleType(module.__name__, module.__doc__)
        proxy.__dict__.update(vars(module))
        prefix = short_module(module.__name__)
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                setattr(proxy, attr, self.wrap(value, f"{prefix}.{attr}", site))
        return proxy

    def _wrap_bindings(self) -> list:
        bindings = []
        for module in package_modules():
            site = short_module(module.__name__)
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ != module.__name__
                    and value.__module__.startswith(PACKAGE + ".")
                ):
                    new = self.wrap(value, f"{short_module(value.__module__)}.{attr}", site)
                elif isinstance(value, types.ModuleType) and value.__name__.startswith(PACKAGE + "."):
                    new = self._proxy(value, site)
                else:
                    continue
                bindings.append((module, attr, value, new))
        return bindings

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._wrap_bindings()
        for module, attr, _, new in self._bindings:
            setattr(module, attr, new)

    def uninstall(self) -> None:
        for module, attr, value, _ in self._bindings or ():
            setattr(module, attr, value)

    def arrays(self) -> dict:
        """Recorded spans as numpy arrays, with self time computed.

        A span's self time is its duration minus its children's durations
        and the hooks they ran.  "site" indexes `sites`, so span names are
        not copied per span.
        """
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.t1) - np.array(self.t0)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], (dur + np.array(self.hook))[has_parent])
        return {
            "site": np.array(self.name, dtype=np.int64),
            "cmd": np.array(self.cmd, dtype=np.int64),
            "dur": dur,
            "self": dur - child,
            "work": np.array(self.work),
            "aux": np.array(self.aux),
        }

    def save(self, path, commands) -> None:
        """Write all spans; `commands` lists (pass index, command) by command id."""
        np.savez(
            path,
            site=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            cmd=np.array(self.cmd, dtype=np.int32),
            t0=np.array(self.t0),
            t1=np.array(self.t1),
            work=np.array(self.work),
            aux=np.array(self.aux),
            hook=np.array(self.hook),
            sites=np.array(json.dumps(self.sites)),
            commands=np.array(json.dumps(commands)),
        )
