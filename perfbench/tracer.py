"""Per-layer tracing from outside the program.

Public functions of the ``hesim`` modules are replaced by timing wrappers
at every module attribute that binds them, so ``from .x import f`` sites
are covered as well as ``x.f`` lookups. Nothing under ``src/`` changes.

Each wrapper keeps a span stack per thread. A span's self time is its
duration minus the time of the spans it opened on the same thread; work a
span hands to another thread (the bootstrap worker pool) counts as that
span's own waiting time.
"""

import functools
import hashlib
import importlib
import inspect
import sys
import threading
import time

# module -> public functions, in the order of the measurement chain
TRACED = {
    "jones": ("pump_state",),
    "spdc": ("down_convert", "apply_noise"),
    "quantum": ("project", "joint_probability", "partial_trace", "fidelity"),
    "detection": (
        "conditional_oam",
        "heralded_image",
        "coincidence_prob",
        "sample_counts",
        "rng_stream",
    ),
    "lgmodes": (
        "pixel_polar",
        "mode_stack",
        "render_from_density",
        "render_projection",
        "render_unprojected",
        "angular_profile",
        "petal_fit",
        "write_pgm",
        "write_histogram_csv",
    ),
    "analysis": (
        "angular_basis_scan",
        "witness_expectation",
        "bootstrap_errors",
        "sweep_series",
        "chsh_table",
        "tomography_counts",
        "tomography_linear",
        "fit_visibility",
    ),
    "pipelines": (
        "build_source",
        "run_pump_gallery",
        "run_polarization_bell",
        "run_hybrid_witness",
    ),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# functions whose inputs are keyed, to measure how much work repeats
DISTINCT = ("lgmodes.mode_stack", "lgmodes.pixel_polar", "detection.heralded_image")


def _array_digest(obj) -> str:
    """Content digest of a Ket or DensityMatrix (or anything with an array)."""
    for attr in ("matrix", "amplitudes"):
        arr = getattr(obj, attr, None)
        if arr is not None:
            return hashlib.sha1(arr.tobytes()).hexdigest()
    return f"id:{id(obj)}"


def _input_key(name: str, bound: dict):
    if name == "lgmodes.mode_stack":
        return (
            tuple(bound["alphabet"]),
            int(bound["n"]),
            float(bound["extent"]),
            float(bound["waist"]),
        )
    if name == "lgmodes.pixel_polar":
        return (int(bound["n"]), float(bound["extent"]))
    # heralded image: everything that fixes the expected image, detector
    # without its seed; the seed and tag only pick the Poisson stream
    det = {k: v for k, v in vars(bound["det"]).items() if k != "seed"}
    return (
        _array_digest(bound["state"]),
        repr(bound["idler"]),
        repr(bound["signal_pol"]),
        repr(tuple(bound["grid"])),
        float(bound["waist"]),
        repr(sorted(det.items(), key=repr)),
        int(bound["l"]),
        bool(bound.get("sampled", True)),
    )


def _held_references(val):
    """(site, object) pairs for references held inside a module attribute."""
    if isinstance(val, dict):
        return [(f"[{k!r}]", v) for k, v in val.items()]
    if isinstance(val, (list, tuple, set, frozenset)):
        return [("[]", v) for v in val]
    if isinstance(val, type):
        return [(f".{k}", v) for k, v in vars(val).items()]
    if inspect.isfunction(val):
        held = [("(default)", v) for v in val.__defaults__ or ()]
        held += [("(default)", v) for v in (val.__kwdefaults__ or {}).values()]
        for cell in val.__closure__ or ():
            try:
                held.append(("(closure)", cell.cell_contents))
            except ValueError:  # empty cell
                pass
        return held
    return []


class Tracer:
    """Installs wrappers once; ``active`` switches recording on and off."""

    def __init__(self):
        self.active = False
        self.missing = []  # functions the program no longer defines
        self.unwrapped = []  # binding sites still holding an original function
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.total = dict.fromkeys(FUNCTIONS, 0.0)
        self.self_time = dict.fromkeys(FUNCTIONS, 0.0)
        self.keys = {name: set() for name in DISTINCT}
        self.boot_busy = 0.0  # summed time inside bootstrap iterations
        self.boot_capacity = 0.0  # summed workers x bootstrap wall time
        self.boot_workers = 0

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        keyed = name in DISTINCT
        boot = name == "analysis.bootstrap_errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if keyed:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = _input_key(name, bound.arguments)
                with self._lock:
                    self.keys[name].add(key)
            if boot:
                threads = set()
                args = (self._timed_iteration(args[0], threads),) + args[1:]
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.calls[name] += 1
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - children[0]
                    if boot:
                        self.boot_capacity += len(threads) * elapsed
                        self.boot_workers = max(self.boot_workers, len(threads))

        return wrapper

    def _timed_iteration(self, pipeline, threads: set):
        """Wrap one bootstrap iteration to record busy time and its thread."""

        def iteration(seed):
            start = time.perf_counter()
            try:
                return pipeline(seed)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.boot_busy += elapsed
                    threads.add(threading.get_ident())

        return iteration

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every traced function in loaded hesim modules."""
        originals = {}
        for mod_name, fns in TRACED.items():
            module = importlib.import_module(f"hesim.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                fn = getattr(module, fn_name, None)
                if fn is None:
                    self.missing.append(name)
                    continue
                originals[id(fn)] = (fn, self._wrap(name, fn))
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "hesim" or key.startswith("hesim."))
        ]
        for module in modules:
            for attr, val in list(vars(module).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
        # bindings a module attribute swap cannot reach: containers, class
        # attributes, default arguments and closures holding an original
        wrappers = {id(w) for _, w in originals.values()}
        for module in modules:
            for attr, val in vars(module).items():
                if id(val) in wrappers:
                    continue
                for site, ref in _held_references(val):
                    hit = originals.get(id(ref))
                    if hit is not None and hit[0] is ref:
                        self.unwrapped.append(f"{module.__name__}.{attr}{site}")

    # -- results --------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.calls)

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.total_s"] = (self.total[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for name in DISTINCT:
            calls = self.calls[name]
            out[f"{name}.distinct_ratio"] = (
                len(self.keys[name]) / calls if calls else 0.0, "ratio"
            )
        out["analysis.bootstrap_errors.workers"] = (self.boot_workers, "count")
        out["analysis.bootstrap_errors.parallel_eff"] = (
            self.boot_busy / self.boot_capacity if self.boot_capacity else 0.0, "ratio"
        )
        return out
