"""Outside-in per-layer host-time tracer.

The tracer wraps public ``repro`` callables from outside -- module
functions where they are bound, class methods, and the per-cycle hooks
of every component registered with a ``Simulator`` (by intercepting
``Simulator.add``) -- and books each call's *self* time, its duration
minus the wrapped calls it made, to the layer named after the
``src/repro`` module that owns it.  Nothing in ``repro`` changes, and
uninstalling restores every patched attribute.

Each wrapped call costs a few hundred nanoseconds the untraced program
does not pay.  :meth:`Tracer.calibrate` measures that cost once per
process and the books subtract it: the part outside the measured
interval from the caller, the part inside from the callee.

Spans of the first traced unit (name, start, duration, id, parent id
and a shared op id) are kept in memory, capped at :data:`SPAN_CAP`,
and written as Chrome trace-event JSON that Perfetto opens.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import weakref
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: spans kept from the recorded unit; later ones are counted as dropped
SPAN_CAP = 200_000

#: per-cycle component hooks wrapped on every registered instance
HOOKS = ("tick", "commit", "tick_batch", "on_skip", "next_activity")

LAYERS = (
    "sim", "bus", "core.controller", "core.interface", "core.firmware",
    "verify", "rac", "rac.compute", "rac.fifo", "mem", "cpu",
    "cpu.assembler", "sw.driver", "sw.linux", "sw.library",
    "sw.baremetal", "sched", "apps.jpeg", "analysis", "harness",
)

#: (layer, module, attribute path): functions where the caller looks
#: them up, and class methods
CALLABLES: Tuple[Tuple[str, str, str], ...] = (
    ("sim", "repro.sim.kernel", "Simulator.run_until"),
    ("sim", "repro.sim.kernel", "Simulator.step"),
    ("bus", "repro.bus.bus", "SystemBus.submit"),
    ("core.firmware", "repro.sw.library", "plan_streaming_run"),
    ("verify", "repro.core.firmware", "verify_program"),
    *(("mem", "repro.mem.memory", f"Memory.{name}") for name in (
        "__init__", "read_word", "write_word", "read_burst",
        "write_burst", "load_words", "dump_words")),
    ("cpu", "repro.cpu.cpu", "CPU.run"),
    ("cpu.assembler", "repro.baselines.software", "assemble"),
    *(("sched", "repro.sched.scheduler", f"ThroughputScheduler.{name}")
      for name in ("submit", "submit_blocking", "run_stream", "drain")),
    ("apps.jpeg", "repro.apps.jpeg", "JPEGDecoder.decode"),
    *(("analysis", "repro.analysis", name) for name in (
        "table_one", "measure_idct_hw", "measure_dft_hw",
        "measure_idct_sw", "measure_dft_sw")),
)

#: (layer, module, class): every public method of the class
PUBLIC_CLASSES = (
    ("sw.driver", "repro.sw.driver", "OuessantDriver"),
    ("sw.linux", "repro.sw.linux", "LinuxRuntime"),
    ("sw.library", "repro.sw.library", "OuessantLibrary"),
    ("sw.baremetal", "repro.sw.baremetal", "BaremetalRuntime"),
)

#: (layer, module, class, extra methods): component classes whose
#: hooks are wrapped per instance; the first isinstance match wins
COMPONENTS = (
    ("sched", "repro.sched.scheduler", "ThroughputScheduler", ()),
    ("bus", "repro.bus.bus", "SystemBus", ()),
    ("core.controller", "repro.core.controller", "OuessantController", ()),
    ("core.interface", "repro.core.interface", "OuessantInterface",
     ("read_word", "write_word")),
    ("rac.fifo", "repro.rac.fifo", "FIFO", ()),
    ("rac", "repro.rac.base", "RAC", ()),
    ("cpu", "repro.cpu.cpu", "CPU", ()),
)

#: derived counters: (name, unit, better)
DERIVED = (
    ("sim.ticked_cycles_per_op", "count", "lower"),
    ("sim.skip_ratio", "ratio", "higher"),
    ("sim.batched_cycle_share", "ratio", "higher"),
    ("sim.polls_per_ticked_cycle", "count", "lower"),
    ("sim.epochs_per_op", "count", "lower"),
    ("bus.submits_per_op", "count", "lower"),
    ("sw.driver.register_accesses_per_op", "count", "lower"),
    ("sched.backpressure_ratio", "ratio", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.build_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric the traced run emits: (name, unit, better)."""
    metrics = []
    for layer in LAYERS:
        metrics += [
            (f"{layer}.self_ms_per_op", "ms", "lower"),
            (f"{layer}.calls_per_op", "count", "lower"),
            (f"{layer}.share", "ratio", "lower"),
        ]
    return metrics + list(DERIVED)


class _Site:
    """Counters of one wrapped callable (shared by all instances)."""

    __slots__ = ("layer", "method", "calls", "self_s", "observed")

    def __init__(self, layer: str, method: str) -> None:
        self.layer = layer
        self.method = method
        self.calls = 0
        self.self_s = 0.0
        #: tick_batch: cycles consumed; submit: refusals (False)
        self.observed = 0


def _count_batched(site: _Site, result: Any) -> None:
    site.observed += result


def _count_refused(site: _Site, result: Any) -> None:
    if result is False:
        site.observed += 1


_OBSERVERS = {"tick_batch": _count_batched,
              "ThroughputScheduler.submit": _count_refused}


def _time_loop(fn: Optional[Callable[[], Any]], calls: int) -> float:
    loop = range(calls)
    if fn is None:
        start = perf_counter()
        for _ in loop:
            pass
        return perf_counter() - start
    start = perf_counter()
    for _ in loop:
        fn()
    return perf_counter() - start


def _sim_counters(sim: Any) -> Tuple[int, int, int]:
    profile = sim.profile()
    return profile.cycles, profile.ticked, profile.skipped


class Tracer:
    """Install with ``with Tracer() as tracer:``; bracket each timed
    unit with :meth:`begin` / :meth:`end`; read :meth:`report`.

    ``extra`` adds ``(layer, module, attribute path)`` targets; a
    target that cannot be resolved is listed in :attr:`missing` and
    skipped, never fatal.
    """

    def __init__(self, extra: Sequence[Tuple[str, str, str]] = ()) -> None:
        self.targets = CALLABLES + tuple(extra)
        self.missing: List[str] = []
        self.dropped = 0
        self._sites: Dict[Tuple[str, str], _Site] = {}
        #: frames of the wrapped calls in progress: [time covered by
        #: wrapped children incl. their wrapper cost, span id]; the
        #: bottom frame is the unit itself
        self._stack: List[list] = [[0.0, 0]]
        #: [caller-side cost per wrapped call, recording spans, last id]
        self._state: list = [0.0, False, 0]
        self._spans: List[tuple] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self._components: List[Tuple[type, str, Tuple[str, ...]]] = []
        #: recording flag -> (caller-side, callee-side) cost per call
        self.calibration: Dict[bool, Tuple[float, float]] = {
            False: (0.0, 0.0), True: (0.0, 0.0)}
        self._outer_sims: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._unit_sims: List[Any] = []
        self._in_unit = False
        self._site_base: Dict[Tuple[str, str], Tuple[int, float, int]] = {}
        self._sim_base: Dict[Any, Tuple[int, int, int]] = {}
        self._unit_start = 0.0
        # accumulated over units
        self.units = 0
        self.ops = 0
        self.unit_seconds: List[float] = []
        self.harness_s = 0.0
        self._calls: Dict[Tuple[str, str], int] = {}
        self._self_s: Dict[Tuple[str, str], float] = {}
        self._observed: Dict[Tuple[str, str], int] = {}
        self._sim_totals = [0, 0, 0]
        self._root_span: Optional[Tuple[float, float]] = None

    # -- install / uninstall ------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def install(self) -> None:
        from repro.sim.kernel import Simulator

        for layer, module, path in self.targets:
            self._patch(layer, module, path)
        for layer, module, name in PUBLIC_CLASSES:
            cls = self._resolve(module, name)
            if cls is None:
                continue
            for attr, value in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    site = self._site(layer, f"{name}.{attr}")
                    self._set(cls, attr, self._wrapper(value, site))
        for layer, module, name, extra in COMPONENTS:
            cls = self._resolve(module, name)
            if cls is not None:
                self._components.append((cls, layer, HOOKS + extra))

        tracer = self
        add = Simulator.add
        init = Simulator.__init__

        def traced_add(sim: Any, component: Any) -> Any:
            tracer._wrap_component(component)
            return add(sim, component)

        def traced_init(sim: Any, *args: Any, **kwargs: Any) -> None:
            init(sim, *args, **kwargs)
            if tracer._in_unit:
                tracer._unit_sims.append(sim)
            else:
                tracer._outer_sims.add(sim)

        self._set(Simulator, "add", traced_add)
        self._set(Simulator, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _resolve(self, module: str, path: str) -> Any:
        """``module`` or an attribute path inside it; ``None`` (and a
        ``missing`` entry) when either no longer exists."""
        try:
            owner: Any = importlib.import_module(module)
            for part in filter(None, path.split(".")):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}:{path}")
            return None
        return owner

    def _patch(self, layer: str, module: str, path: str) -> None:
        owner_path, _, attr = path.rpartition(".")
        owner = self._resolve(module, owner_path)
        if owner is None:
            return
        # class attributes are read raw so the wrapper binds like the
        # function it replaces
        value = (vars(owner).get(attr) if isinstance(owner, type)
                 else getattr(owner, attr, None))
        if not inspect.isfunction(value):
            self.missing.append(f"{module}:{path}")
            return
        site = self._site(layer, path)
        self._set(owner, attr, self._wrapper(value, site))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        original = (vars(owner)[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def _site(self, layer: str, method: str) -> _Site:
        key = (layer, method)
        site = self._sites.get(key)
        if site is None:
            site = self._sites[key] = _Site(layer, method)
        return site

    def _wrap_component(self, component: Any) -> None:
        if "tick" in vars(component):  # already wrapped (re-added)
            return
        for cls, layer, methods in self._components:
            if not isinstance(component, cls):
                continue
            for name in methods:
                method = getattr(component, name, None)
                if method is not None:
                    setattr(component, name, self._wrapper(
                        method, self._site(layer, name)))
            compute = getattr(component, "compute_fn", None)
            if layer == "rac" and compute is not None:
                component.compute_fn = self._wrapper(
                    compute, self._site("rac.compute", "compute_fn"))
            return

    def _wrapper(self, fn: Callable[..., Any], site: _Site) -> Callable[..., Any]:
        stack = self._stack
        state = self._state
        spans = self._spans
        observe = _OBSERVERS.get(site.method)
        clock = perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if state[1]:
                state[2] += 1
                frame = [0.0, state[2]]
            else:
                frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                site.calls += 1
                site.self_s += elapsed - frame[0]
                parent[0] += elapsed + state[0]
                if state[1]:
                    if len(spans) < SPAN_CAP:
                        spans.append((site, start, elapsed, frame[1],
                                      parent[1]))
                    else:
                        tracer.dropped += 1
            if observe is not None:
                observe(site, result)
            return result

        return traced

    # -- calibration ----------------------------------------------------
    def calibrate(self, calls: int = 50_000, repeats: int = 7) -> None:
        """Measure the per-call wrapper cost, with and without spans.

        Caller side: wall time of a wrapped no-op call minus the
        interval the wrapper measured.  Callee side: that interval
        minus the bare call.  Medians over ``repeats`` loops.
        """
        site = _Site("calibration", "noop")

        def noop() -> None:
            return None

        traced = self._wrapper(noop, site)
        for record in (False, True):
            self._state[0] = 0.0
            self._state[1] = record
            outside, inside = [], []
            for _ in range(repeats):
                loop = _time_loop(None, calls)
                bare = _time_loop(noop, calls)
                site.self_s = 0.0
                wrapped = _time_loop(traced, calls)
                outside.append((wrapped - loop - site.self_s) / calls)
                inside.append((site.self_s - (bare - loop)) / calls)
                del self._spans[:]
            self.calibration[record] = (statistics.median(outside),
                                        statistics.median(inside))
        self._state[1] = False
        self._state[2] = 0
        self._stack[0][0] = 0.0

    # -- per-unit bookkeeping -------------------------------------------
    def begin(self, record: bool = False) -> None:
        """Open a timed unit; ``record`` keeps its spans."""
        self._site_base = {
            key: (site.calls, site.self_s, site.observed)
            for key, site in self._sites.items()
        }
        self._sim_base = {sim: _sim_counters(sim) for sim in self._outer_sims}
        self._in_unit = True
        self._state[0] = self.calibration[record][0]
        self._state[1] = record
        self._state[2] = 0
        self._stack[0][0] = 0.0
        self._unit_start = perf_counter()

    def end(self, elapsed: float, ops: int) -> None:
        """Close the unit that took ``elapsed`` seconds for ``ops`` ops."""
        end = perf_counter()
        record = self._state[1]
        self._state[1] = False
        self._in_unit = False
        inside = self.calibration[record][1]
        for key, site in self._sites.items():
            calls0, self0, obs0 = self._site_base.get(key, (0, 0.0, 0))
            calls = site.calls - calls0
            if not calls:
                continue
            self._calls[key] = self._calls.get(key, 0) + calls
            self._self_s[key] = (self._self_s.get(key, 0.0)
                                 + site.self_s - self0 - calls * inside)
            self._observed[key] = (self._observed.get(key, 0)
                                   + site.observed - obs0)
        for sim, base in self._sim_base.items():
            now = _sim_counters(sim)
            for index in range(3):
                self._sim_totals[index] += now[index] - base[index]
        for sim in self._unit_sims:
            for index, value in enumerate(_sim_counters(sim)):
                self._sim_totals[index] += value
        self._unit_sims = []
        self._sim_base = {}
        self.harness_s += elapsed - self._stack[0][0]
        self.units += 1
        self.ops += ops
        self.unit_seconds.append(elapsed / ops)
        if record:
            self._root_span = (self._unit_start, end - self._unit_start)

    # -- results -----------------------------------------------------------
    def _sum(self, table: Dict[Tuple[str, str], Any], layer: Optional[str] = None,
             methods: Sequence[str] = ()) -> Any:
        return sum(value for (site_layer, method), value in table.items()
                   if (layer is None or site_layer == layer)
                   and (not methods or method in methods))

    def report(
        self, setup: Dict[str, float], untraced_op_s: float
    ) -> Dict[str, float]:
        """Every per-layer metric, by name (see :func:`layer_metrics`)."""
        ops = max(self.ops, 1)
        self_s = {layer: self._sum(self._self_s, layer) for layer in LAYERS}
        calls = {layer: self._sum(self._calls, layer) for layer in LAYERS}
        self_s["harness"] = self.harness_s
        calls["harness"] = self.units
        net = sum(self_s.values()) or 1.0
        values: Dict[str, float] = {}
        for layer in LAYERS:
            values[f"{layer}.self_ms_per_op"] = 1e3 * self_s[layer] / ops
            values[f"{layer}.calls_per_op"] = calls[layer] / ops
            values[f"{layer}.share"] = self_s[layer] / net
        cycles, ticked, skipped = self._sim_totals
        polls = self._sum(self._calls, methods=("next_activity",))
        batched = self._sum(self._observed, methods=("tick_batch",))
        submits = self._calls.get(("sched", "ThroughputScheduler.submit"), 0)
        refused = self._observed.get(("sched", "ThroughputScheduler.submit"), 0)
        values.update({
            "sim.ticked_cycles_per_op": ticked / ops,
            "sim.skip_ratio": skipped / cycles if cycles else 0.0,
            "sim.batched_cycle_share": batched / ticked if ticked else 0.0,
            "sim.polls_per_ticked_cycle": polls / ticked if ticked else 0.0,
            "sim.epochs_per_op": self._sum(
                self._calls, "sim", ("Simulator.run_until", "Simulator.step")
            ) / ops,
            "bus.submits_per_op": self._calls.get(
                ("bus", "SystemBus.submit"), 0) / ops,
            "sw.driver.register_accesses_per_op": self._sum(
                self._calls, "sw.driver",
                ("OuessantDriver.write_register",
                 "OuessantDriver.read_register"),
            ) / ops,
            "sched.backpressure_ratio": refused / submits if submits else 0.0,
            "setup.import_s": setup["import_s"],
            "setup.build_s": setup["build_s"],
            "setup.warmup_s": setup["warmup_s"],
            "trace_overhead": (statistics.median(self.unit_seconds)
                               / untraced_op_s - 1.0),
        })
        return values

    def span_document(self, workload: str) -> Dict[str, Any]:
        """Chrome trace-event JSON of the recorded unit's spans (op 0)."""
        if self._root_span is None:
            raise ValueError("no unit was recorded")
        origin, duration = self._root_span

        def event(name: str, cat: str, start: float, dur: float,
                  span_id: int, parent: Optional[int]) -> Dict[str, Any]:
            return {
                "name": name, "cat": cat, "ph": "X", "pid": 1, "tid": 1,
                "ts": round(1e6 * (start - origin), 3),
                "dur": round(1e6 * dur, 3),
                "args": {"op": 0, "id": span_id, "parent": parent},
            }

        events = [event("op", "harness", origin, duration, 0, None)]
        for site, start, elapsed, span_id, parent in sorted(
                self._spans, key=lambda span: span[1]):
            events.append(event(f"{site.layer}:{site.method}", site.layer,
                                start, elapsed, span_id, parent))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload, "spans": len(self._spans),
                "truncated": self.dropped > 0, "dropped": self.dropped,
            },
        }
