"""Cycle-driven simulation kernel.

The whole reproduction is built on a deliberately simple execution model:
a :class:`Simulator` owns a set of :class:`Component` objects and advances
a global clock one cycle at a time.  On every cycle each component's
:meth:`Component.tick` is called once, in registration order, followed by
:meth:`Component.commit` in the same order.

The two-phase scheme gives registered (flip-flop like) semantics where it
matters: a component computes its next state in ``tick`` using only the
*current* outputs of other components, then publishes it in ``commit``.
Components that do not need the distinction can do all their work in
``tick`` and ignore ``commit``.

This is not an event-driven HDL simulator -- it is the standard
cycle-approximate style used by architecture simulators, which is the
right fidelity level for reproducing the paper's cycle counts (bus beats,
FIFO occupancy, controller FSM states) without modelling individual
wires.

Two schedules
-------------

``Simulator(idle_skip=False)`` is the *naive* schedule described above:
every component, every cycle.  It is the oracle.

The default *fast* schedule produces bit-identical results while
touching only the components that matter.  Components declare
*quiescence* through :meth:`Component.next_activity` ("my
``tick``/``commit`` are observable no-ops until cycle N, or until
another component pokes me").  The kernel caches each answer (or, for a
class that states its claim as a template, :func:`inlined_claim`,
evaluates it in place), scans the claims once per event, and

* fast-forwards the clock over windows in which no component is due,
* ticks only the due components on the other cycles, and
* -- when no trace is attached and every due component can batch --
  advances each of those *lanes* by one common span of cycles in one
  host call per lane (:meth:`Component.batch_span` /
  :meth:`Component.tick_batch`: a streaming RAC moving a span's FIFO
  words in one call).  Lanes run together only while they drive
  pairwise disjoint sets of registered components, so no lane can
  observe another's intermediate states.

With several OCPs registered, the scan and the dispatched cycle walk
*clusters* (one per :meth:`Simulator.add_all` group, i.e. per OCP)
instead of single components: a cluster whose members all sleep costs
one check of its cached claim, their earliest wake.  Both walks are
straight-line code generated and compiled once per shape of the
component list (:func:`_walk_source`), bound per simulator at the first
event after a registration change.

A skipped cycle leaves no accounting behind: components keep their
self-timed values as absolute cycles (a compute deadline, a ``wait``
resume cycle) and charge each cycle statistic at the transition that
ends it, from the cycle its interval began; a live read adds the open
interval (:func:`repro.sim.tracing.elapsed`).  So a cached claim
outlives the public ``step``/``run_until`` call that computed it.
Anything that changes state a quiescent component's claim depends on
pokes it -- fault injectors, bus completions and the mutators called
between public calls (a program load, a queued job, a soft reset)
included -- so faulted and multi-call runs take the same schedule.
Only a registration change, :meth:`Simulator.reset` and the end of a
naive epoch drop every claim.  A component that samples other
components every cycle (a waveform probe) is simply always due, so
every cycle is dispatched while it is registered.

The test suite audits the fast schedule against the naive one through
a simulator subclass that wraps the walk :meth:`Simulator._bind_walk`
binds; the shipping loop knows nothing of it.  The protocol and its
correctness rules are documented in ``docs/SIMULATION.md``.
"""

from __future__ import annotations

import linecache
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Tuple)

from .errors import DeadlockError, SimulationError
from .tracing import Trace

#: the one deadlock bound of a wait from outside the clock: the default
#: ``max_cycles`` of :meth:`Simulator.run_until` and every wait on it
MAX_WAIT_CYCLES = 5_000_000


class Component:
    """Base class for everything that lives on the simulated clock.

    Subclasses override :meth:`tick` (compute phase) and optionally
    :meth:`commit` (publish phase) and :meth:`reset`.  Components that
    can stall override :meth:`next_activity` to take part in idle
    skipping; they keep timers as absolute cycles and charge cycle
    statistics from entry stamps, so a skipped cycle needs no hook.
    """

    #: True while :meth:`tick_batch` may run (a class attribute or a
    #: state-dependent property)
    can_batch = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: Optional["Simulator"] = None
        self._detached = False
        #: components whose quiescence claim depends on this one's
        #: state; poked (wake-cache invalidated) whenever it changes.
        #: While the cluster walk runs, the Simulator appends the
        #: clusters whose claims cover this component and its watchers
        #: (see :meth:`Simulator._wire_watchers`)
        self._watchers: List[Any] = []
        #: the components this one watches (the reverse of
        #: ``_watchers``), so the Simulator finds watched components
        #: that are not registered
        self._watching: List["Component"] = []
        # fast-schedule bookkeeping (owned by the Simulator): cached
        # next_activity() answer, its validity, and the cycle of the
        # last real tick (commit-phase membership marker)
        self._wake: Optional[int] = None
        self._wake_valid = False
        self._ran_at = -1
        #: the cluster whose cached claim covers this component's
        #: (owned by the Simulator; see :meth:`Simulator.add_all`)
        self._cluster: _Cluster = _NO_CLUSTER

    # -- lifecycle -----------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Called by the simulator when the component is registered."""
        self.sim = sim
        self._detached = False

    def detach(self) -> None:
        """Called by the simulator when the component is removed."""
        self.sim = None
        self._detached = True

    def reset(self) -> None:
        """Return the component to its power-on state."""

    # -- per-cycle hooks ----------------------------------------------
    def tick(self) -> None:
        """Compute phase: runs once per cycle before any commit."""

    def commit(self) -> None:
        """Publish phase: runs once per cycle after every tick."""

    # -- quiescence protocol ------------------------------------------
    def next_activity(self) -> Optional[int]:
        """Earliest future cycle at which this component must tick.

        Return values (see ``docs/SIMULATION.md`` for the full
        contract):

        * any cycle ``<= self.now`` -- *active*: the component needs
          its tick this cycle; no skipping may happen.
        * a cycle ``N > self.now`` -- quiescent until ``N``: every
          tick/commit strictly before ``N`` is a no-op (no state
          change, no trace events, no cross-component effects)
          provided no *other* component acts either.
        * ``None`` -- indefinitely idle: only an external poke (another
          component's activity, a register write between steps) can
          make its ticks matter again.

        The base implementation returns the current cycle (always
        active), which is the safe default for components the kernel
        knows nothing about.
        """
        return self.sim.cycle

    def batch_span(self, budget: int) -> int:
        """Cycles :meth:`tick_batch` would consume given ``budget``.

        Side-effect-free twin of :meth:`tick_batch`: the kernel asks
        every lane first and grants all of them the smallest answer,
        so a lane must offer at least 1 and never more cycles than its
        ``tick_batch(budget)`` would consume.  The base answer matches
        the base :meth:`tick_batch` (one cycle).
        """
        return 1

    def tick_batch(self, budget: int) -> int:
        """Execute up to ``budget`` consecutive ticks in one host call.

        Batch-lane hook: called only while :attr:`can_batch` holds,
        tracing is off, every component due this cycle is a lane
        (can batch), the lanes drive pairwise disjoint sets of
        registered components, and no other component wakes for at
        least ``budget`` cycles.  No commit phase follows, so the
        lane commits what it touched itself (a streaming RAC commits
        the one FIFO it moved words through): the result must equal
        that many naive ticks *and commits*, and the span must end
        (at least 1 cycle) at any tick whose effects could wake
        another component -- poking it so the kernel re-polls at the
        exact naive cycle.  The kernel passes the span granted by
        :meth:`batch_span` and requires it consumed exactly.
        """
        self.tick()
        self.commit()
        return 1

    # -- fast-schedule helpers ----------------------------------------
    def poke(self) -> None:
        """Invalidate this component's cached quiescence claim.

        Any code that changes state a *quiescent* component's
        ``next_activity`` answer depends on must poke it, or the
        fast schedule would trust a stale claim.  That includes code
        running between public ``step``/``run_until`` calls: a cached
        claim outlives the call that computed it.  The claim of the
        cluster it belongs to goes with it.
        """
        self._wake_valid = False
        self._cluster._wake_valid = False

    def watch(self, component: "Component") -> None:
        """Register ``component`` to be poked by :meth:`wake_watchers`."""
        if component not in self._watchers:
            self._watchers.append(component)
            component._watching.append(self)
            cluster = component._cluster
            if cluster is not _NO_CLUSTER and cluster not in self._watchers:
                self._watchers.append(cluster)

    def wake_watchers(self) -> None:
        """Poke this component and everything watching it.

        One loop drops every claim involved: ``_watchers`` also lists
        the clusters of this component and of its watchers while the
        cluster walk runs.
        """
        self._wake_valid = False
        for watcher in self._watchers:
            watcher._wake_valid = False

    # -- helpers -------------------------------------------------------
    @property
    def now(self) -> int:
        """Current cycle number (0 before the first attach).

        Raises :class:`SimulationError` on a component that was removed
        from its simulator: a detached component has no clock, and
        silently timestamping events or stats at cycle 0 hides
        use-after-remove bugs (the partial-reconfiguration path swaps
        whole FIFO fabrics out of the system).
        """
        if self.sim is None:
            if self._detached:
                raise SimulationError(
                    f"component {self.name!r} was removed from its "
                    "simulator; 'now' is undefined after detach"
                )
            return 0
        return self.sim.cycle

    def trace_event(self, event: str, **data: object) -> None:
        """Record an event in the simulator trace, if tracing is on."""
        if self.sim is not None:
            # remembered even without a trace: names the most recently
            # active component in deadlock diagnostics
            self.sim.last_active = self.name
            if self.sim.trace is not None:
                self.sim.trace.record(self.sim.cycle, self.name, event, data)

    def trace_quiet(self, event: str, **data: object) -> None:
        """:meth:`trace_event` without claiming activity: FIFO plumbing
        and controller span events leave ``sim.last_active`` to the
        component a deadlock diagnostic should name."""
        if self.sim is not None and self.sim.trace is not None:
            self.sim.trace.record(self.sim.cycle, self.name, event, data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class _Cluster:
    """A contiguous run of registered components that the fast schedule
    walks as one: the components of one :meth:`Simulator.add_all` (an
    OCP's interface, controller, FIFOs and RAC), or one component
    registered alone.

    Its claim is the earliest cached wake of its members (None when
    none will wake on its own), cached only while no member is due.
    It is valid only while every member's claim is valid: whatever
    drops a member's claim -- :meth:`Component.poke`,
    :meth:`Component.wake_watchers`, a tick, a lane -- drops the
    cluster's too, and nothing else may drop a member's claim.  For
    :meth:`Component.wake_watchers`, the cluster sits in the
    ``_watchers`` list of each member and of each component a member
    watches.
    """

    __slots__ = ("members", "_wake", "_wake_valid")

    def __init__(self, members: List[Component]) -> None:
        self.members = members
        self._wake: Optional[int] = None
        self._wake_valid = False


#: the cluster of every component outside the cluster walk: pokes drop
#: its claim unconditionally, and nothing ever reads it
_NO_CLUSTER = _Cluster([])


# -- the compiled walk --------------------------------------------------------
#
# The fast schedule's dispatch scan and dispatched cycle are straight-line
# Python with one block per registered component (the flat walk) or per
# cluster and member (the cluster walk), so each attribute site sees one
# component class.  The source depends only on the *shape* of the
# component list: per component its role digit (:func:`_role`) and its
# inlined claim template, if any (:func:`_claim`), grouped per cluster.
# :func:`_walk` compiles a shape once per process;
# :meth:`Simulator._bind_walk` binds its components per simulator.

#: how many compiled walk shapes :func:`_walk` keeps
_WALK_SHAPES = 64


def _role(comp: Component) -> str:
    """``comp``'s digit in a walk shape: 1 when its class overrides
    :meth:`Component.tick`, plus 2 when it overrides
    :meth:`Component.commit`.  Decided by the class, so an
    instance-level wrapper (a profiler's) cannot change the schedule:
    the walk calls no ``tick`` on a class that keeps the base no-op (a
    FIFO) and sweeps no ``commit`` that is the base no-op."""
    cls = type(comp)
    return "0123"[(cls.tick is not Component.tick)
                  + 2 * (cls.commit is not Component.commit)]


def inlined_claim(template: str) -> Callable[[Component], Optional[int]]:
    """A ``next_activity`` built from a claim template, which the
    compiled walk writes into the component's blocks instead of calling
    it (see :func:`_claim`).

    ``template`` is one side-effect-free Python expression of the
    component's fields, ``{c}``, and the current cycle, ``{now}``
    (``"None"`` for a component that never wakes on its own).  Such a
    claim is never cached, so whatever changes those fields drops only
    the claim of the component's cluster (``_cluster._wake_valid =
    False``, or a poke)."""
    source = (f"def next_activity(self):\n"
              f"    return {template.format(c='self', now='self.sim.cycle')}\n")
    namespace: Dict[str, Any] = {}
    exec(compile(source, f"<claim {template}>", "exec"), namespace)
    claim = namespace["next_activity"]
    claim.template = template
    return claim


def _claim(comp: Component) -> Optional[str]:
    """``comp``'s inlined claim template, or None when the walk polls
    its ``next_activity``.  Like :func:`_role`, the class decides: a
    subclass overriding ``next_activity`` is polled, and an instance
    wrapper is never consulted."""
    return getattr(type(comp).next_activity, "template", None)


def _polled(comp: str, template: Optional[str], pad: str) -> List[str]:
    """Read ``comp``'s claim into ``wake``: its inlined template, or its
    cached claim, polled when stale."""
    if template is not None:
        return [f"{pad}wake = {template.format(c=comp, now='now')}"]
    return [f"{pad}if {comp}._wake_valid:",
            f"{pad}    wake = {comp}._wake",
            f"{pad}else:",
            f"{pad}    {comp}._wake = wake = {comp}.next_activity()",
            f"{pad}    {comp}._wake_valid = True"]


def _walk_source(shape: Tuple[Tuple[Tuple[str, Optional[str]], ...], ...],
                 clustered: bool) -> Tuple[str, str]:
    """The sources of one shape's two ``bind(sim, *components,
    *clusters)`` factories, returning its ``dispatch_scan`` and its
    ``dispatch_cycle``.  They compile separately: the compiler's
    transient memory grows faster than linearly with the source.

    ``shape`` holds, per cluster (one run for the flat walk), each
    component's ``(role, claim)``: its :func:`_role` digit and its
    inlined claim template (:func:`_claim`) or None.

    ``dispatch_scan(bound)`` is one pass over the quiescence claims.
    It returns ``(lanes, horizon)``: the due components in
    registration order (empty when none is due) and the earliest
    strictly-future wake clamped to ``bound``.  It keeps going past a
    due component only while every due component so far can batch; at
    the first one that cannot, a dispatched cycle has to run, the
    horizon is irrelevant, and the lanes are ``None``.

    ``dispatch_cycle()`` executes one cycle touching only the due
    components.  Visibility matches the naive schedule exactly: the
    tick pass runs in registration order and reads each claim when it
    reaches the component, so a *forward* poke (an earlier component
    waking a later one) lands the same cycle, while a *backward* poke
    takes effect next cycle, precisely when the naive two-phase
    schedule would surface it.  The commit sweep visits only the
    components whose class overrides ``commit``, again in registration
    order so same-cycle trace events keep their naive order, and picks
    up those whose commit phase can still observe a backward poke (a
    FIFO staged into by a later producer).  A claim the sweep leaves
    invalid is polled by the next scan.

    An inlined claim is evaluated in place, never cached.  A component
    whose inlined claim is ``None`` gets no block at all, and one
    whose class keeps the base ``tick`` gets none in the tick pass: it
    cannot act there, and the sweep evaluates its claim afresh.

    On the cluster walk a cluster whose valid claim lies in the future
    costs one check in the scan and the tick pass; the scan caches a
    cluster's claim (its members' earliest wake) when none of them is
    due, and the sweep skips every cluster whose claim is valid (a
    member that ticked or was poked dropped it).
    """
    first = 0
    runs: List[List[str]] = []
    for codes in shape:
        runs.append([f"c{first + i}" for i in range(len(codes))])
        first += len(codes)
    claims = [f"k{j}" for j in range(len(shape))] if clustered else []
    params = ", ".join(["sim"] + [c for run in runs for c in run] + claims)
    scan = ["    def dispatch_scan(bound):",
            "        now = sim.cycle",
            "        lanes = []",
            "        horizon = bound"]
    cycle = ["    def dispatch_cycle():",
             "        now = sim.cycle"]
    sweep: List[str] = []
    for j, (codes, run) in enumerate(zip(shape, runs)):
        pad = "        "
        ticks: List[str] = []
        if clustered:
            k = claims[j]
            members = run[0] if len(run) == 1 else f"{run[0]}..{run[-1]}"
            # a sleeping cluster: its claim is valid and None (no
            # member wakes on its own) or in the future
            asleep = (f"{k}._wake_valid and "
                      f"((wake := {k}._wake) is None or wake > now)")
            scan += [f"        # cluster {j}: {members}",
                     f"        if {asleep}:",
                     "            if wake is not None and wake < horizon:",
                     "                horizon = wake",
                     "        else:",
                     "            low = None",
                     "            quiet = True"]
            ticks += [f"        # cluster {j}: {members}",
                      f"        if not ({asleep}):"]
            pad = "            "
        ticked = len(ticks)
        committers: List[Tuple[str, str, Optional[str]]] = []
        for (code, template), c in zip(codes, run):
            if template == "None":
                continue
            scan += _polled(c, template, pad) + [
                f"{pad}if wake is not None:",
                f"{pad}    if wake <= now:",
                f"{pad}        if not {c}.can_batch:",
                f"{pad}            return None, horizon",
                f"{pad}        lanes.append({c})"]
            if clustered:
                scan += [f"{pad}        quiet = False",
                         f"{pad}    elif low is None or wake < low:",
                         f"{pad}        low = wake"]
            else:
                scan += [f"{pad}    elif wake < horizon:",
                         f"{pad}        horizon = wake"]
            if code in "23":
                committers.append((code, c, template))
            if template is not None and code in "02":
                continue
            ticks += _polled(c, template, pad) + [
                f"{pad}if wake is not None and wake <= now:"]
            if code in "23":
                ticks.append(f"{pad}    {c}._ran_at = now")
            if code in "13":
                ticks.append(f"{pad}    {c}.tick()")
            if template is None:
                ticks.append(f"{pad}    {c}._wake_valid = False")
            if clustered:
                ticks.append(f"{pad}    {k}._wake_valid = False")
        if len(ticks) > ticked:
            cycle += ticks
        if clustered:
            scan += ["            if low is not None and low < horizon:",
                     "                horizon = low",
                     "            if quiet:",
                     f"                {k}._wake = low",
                     f"                {k}._wake_valid = True"]
            if committers:
                sweep.append(f"        if not {k}._wake_valid:")
        for code, c, template in committers:
            if template is None:
                sweep += [f"{pad}if {c}._ran_at == now:",
                          f"{pad}    {c}.commit()",
                          f"{pad}elif not {c}._wake_valid:",
                          f"{pad}    {c}._wake = wake = {c}.next_activity()",
                          f"{pad}    {c}._wake_valid = True",
                          f"{pad}    if wake is not None and wake <= now:",
                          f"{pad}        {c}.commit()",
                          f"{pad}        {c}._wake_valid = False"]
                continue
            due = (f"(wake := ({template.format(c=c, now='now')})) "
                   "is not None and wake <= now")
            if code == "3":
                due = f"{c}._ran_at == now or {due}"
            sweep += [f"{pad}if {due}:",
                      f"{pad}    {c}.commit()"]
    scan += ["        return lanes, horizon",
             "    return dispatch_scan"]
    cycle += sweep + ["        sim.cycle = now + 1",
                      "        sim._ticked += 1",
                      "    return dispatch_cycle"]
    head = f"def bind({params}):"
    return ("\n".join([head, *scan, ""]), "\n".join([head, *cycle, ""]))


@lru_cache(maxsize=_WALK_SHAPES)
def _walk(shape: Tuple[Tuple[Tuple[str, Optional[str]], ...], ...],
          clustered: bool) -> Tuple[Callable[..., Any], ...]:
    """The compiled ``bind`` factories of one walk shape's scan and
    cycle (see :func:`_walk_source`), shared by every simulator of
    that shape.

    Each source is registered in :mod:`linecache` under a synthetic
    filename that depends only on the shape, so tracebacks and
    :func:`inspect.getsource` show the generated lines.
    """
    key = ("cluster " if clustered else "flat ") + repr(shape)
    tag = f"{zlib.crc32(key.encode()):08x}"
    binds = []
    for part, source in zip(("scan", "cycle"),
                            _walk_source(shape, clustered)):
        filename = f"<sim walk {tag} {part}>"
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        namespace: Dict[str, Any] = {}
        exec(compile(source, filename, "exec"), namespace)
        binds.append(namespace["bind"])
    return tuple(binds)


@dataclass
class SimProfile:
    """Cycle accounting of one :class:`Simulator`'s execution.

    ``ticked`` counts cycles on which components executed, ``skipped``
    counts cycles fast-forwarded over declared idle windows; the two
    always sum to ``cycles``.  ``batched`` counts the cycles of
    ``ticked`` that the batch lane consumed in
    :meth:`Component.tick_batch` slabs; a span that several lanes run
    together counts once, so ``batched <= ticked``.
    Host time is not the kernel's business: hostbench's tracer
    attributes it per layer from outside.
    """

    cycles: int
    ticked: int
    skipped: int
    skip_windows: int
    batched: int

    @property
    def skip_ratio(self) -> float:
        """Fraction of simulated cycles that were fast-forwarded."""
        return self.skipped / self.cycles if self.cycles else 0.0

    def render(self) -> str:
        return "\n".join([
            f"cycles          {self.cycles:>10}",
            f"  ticked        {self.ticked:>10} "
            f"({self.batched} batched)",
            f"  skipped       {self.skipped:>10} "
            f"({100 * self.skip_ratio:.1f}% in {self.skip_windows} windows)",
        ])


class Simulator:
    """Owns the clock and the component list.

    Parameters
    ----------
    trace:
        Optional :class:`repro.sim.tracing.Trace` collecting events.
        Without one, the fast schedule may batch (see
        :meth:`Component.tick_batch`).
    idle_skip:
        Run the fast schedule (default True).  With it off the kernel
        is the naive two-phase stepper; results must be bit-identical
        either way.
    """

    #: predicate re-check granularity inside a declared-idle window --
    #: bounds how far ``run_until`` trusts quiescence between predicate
    #: evaluations (predicates must be component-state functions, but a
    #: bounded chunk keeps even a misused clock-reading predicate from
    #: overshooting by more than one chunk)
    max_skip_chunk = 1 << 14

    def __init__(
        self,
        trace: Optional[Trace] = None,
        idle_skip: bool = True,
    ) -> None:
        self.cycle = 0
        self.trace = trace
        self.idle_skip = idle_skip
        #: name of the component that most recently emitted an event
        self.last_active: Optional[str] = None
        self._components: List[Component] = []
        #: each component registered by :meth:`add_all`, to its group
        self._group_of: Dict[Component, List[Component]] = {}
        #: the walk in clusters (registration order) while at least two
        #: groups of several components are registered, else None (the
        #: flat walk over ``_components``)
        self._clusters: Optional[List[_Cluster]] = None
        self._names = set()
        #: per batch lane, the ids of the registered components it
        #: drives (:meth:`_drives`); cleared on add/remove
        self._driven: Dict[Component, FrozenSet[int]] = {}
        # accounting for profile()
        self._ticked = 0
        self._skipped = 0
        self._skip_windows = 0
        self._batched = 0
        #: the compiled walk's dispatch scan and dispatched cycle (see
        #: :func:`_walk_source`); until the first event after a
        #: registration change, trampolines that bind them
        self._dispatch_scan: Callable[
            [int], Tuple[Optional[List[Component]], int]] = self._bind_scan
        self._dispatch_cycle: Callable[[], None] = self._bind_cycle

    # -- registration ----------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register a component; returns it for chaining."""
        if component.name in self._names:
            raise SimulationError(
                f"duplicate component name {component.name!r}"
            )
        self._names.add(component.name)
        self._components.append(component)
        self._registered()
        # a newcomer may be state another component's cached claim
        # depends on
        component.attach(self)
        self._invalidate()
        return component

    def add_all(self, components: Iterable[Component]) -> None:
        """Register components in order, as one group.

        While two or more groups of several components are registered
        (an MPSoC: one group per OCP), the fast schedule walks each
        group as one *cluster* whose cached claim, the earliest wake
        of its members, lets a quiescent group cost one check.  The
        grouping never changes a result: it is only how the walk is
        cut, and the members keep their registration order.
        """
        group = list(components)
        for component in group:
            self.add(component)
            self._group_of[component] = group
        self._registered()

    def remove(self, component: Component) -> None:
        """Unregister a component (used by partial reconfiguration).

        Raises
        ------
        SimulationError
            If the component is not registered with this simulator.
        """
        if component not in self._components:
            raise SimulationError(
                f"cannot remove {component.name!r}: not registered "
                "with this simulator"
            )
        self._components.remove(component)
        self._names.discard(component.name)
        self._group_of.pop(component, None)
        component._cluster = _NO_CLUSTER
        self._registered()
        self._invalidate()
        if self.last_active == component.name:
            # never let DeadlockError diagnostics name a component
            # that is no longer in the system
            self.last_active = None
        component.detach()

    def _registered(self) -> None:
        """Rebuild what the fast schedule derives from the component
        list, the clusters, and unbind the walk.  A cluster is a
        contiguous run of one :meth:`add_all` group (a DPR swap
        re-registers an OCP's FIFOs and RAC at the end, outside it) or
        one other component.  The walk is bound at the next event
        (:meth:`_bind_walk`), so building a system compiles and binds
        nothing."""
        self._driven.clear()
        runs: List[List[Component]] = []
        previous = None
        for comp in self._components:
            group = self._group_of.get(comp)
            if group is None or group is not previous:
                runs.append([comp])
            else:
                runs[-1].append(comp)
            previous = group
        if sum(len(run) > 1 for run in runs) < 2:
            # a single OCP is due on most events: walking it as a
            # cluster would only add a check to each of them
            self._clusters = None
            for comp in self._components:
                comp._cluster = _NO_CLUSTER
        else:
            self._clusters = [_Cluster(run) for run in runs]
            for cluster in self._clusters:
                for comp in cluster.members:
                    comp._cluster = cluster
        self._dispatch_scan = self._bind_scan
        self._dispatch_cycle = self._bind_cycle
        self._wire_watchers()

    def _bind_walk(self) -> None:
        """Bind the compiled walk of the registered components' shape
        (compiling it on the shape's first use in the process).

        This is the kernel's one audit seam: it runs once per
        registration change, so a subclass that wraps the
        ``_dispatch_scan`` and ``_dispatch_cycle`` it binds sees every
        decision of the fast schedule, and the shipping loop pays
        nothing for the possibility (the test suite's audited
        simulator, ``docs/SIMULATION.md``)."""
        clusters = self._clusters
        runs = ([self._components] if clusters is None
                else [cluster.members for cluster in clusters])
        shape = tuple(tuple((_role(comp), _claim(comp)) for comp in run)
                      for run in runs)
        bind_scan, bind_cycle = _walk(shape, clusters is not None)
        parts = (self, *self._components, *(clusters or ()))
        self._dispatch_scan = bind_scan(*parts)
        self._dispatch_cycle = bind_cycle(*parts)

    def _bind_scan(
        self, bound: int
    ) -> Tuple[Optional[List[Component]], int]:
        """The dispatch scan while the walk is unbound: bind, then scan."""
        self._bind_walk()
        return self._dispatch_scan(bound)

    def _bind_cycle(self) -> None:
        """The dispatched cycle while the walk is unbound: bind, then
        dispatch."""
        self._bind_walk()
        self._dispatch_cycle()

    def _wire_watchers(self) -> None:
        """Rebuild the clusters in the ``_watchers`` lists: none for the
        flat walk; for the cluster walk, each registered component's
        cluster goes into its own list and into the list of every
        component it watches, registered or not, so that
        :meth:`Component.wake_watchers` drops each claim it must in
        one loop."""
        touched = {id(comp): comp for comp in self._components}
        for comp in self._components:
            for watched in comp._watching:
                touched[id(watched)] = watched
        for comp in touched.values():
            comp._watchers = [watcher for watcher in comp._watchers
                              if not isinstance(watcher, _Cluster)]
        if self._clusters is None:
            return
        for comp in self._components:
            cluster = comp._cluster
            for target in (comp, *comp._watching):
                if cluster not in target._watchers:
                    target._watchers.append(cluster)

    @property
    def components(self) -> List[Component]:
        return list(self._components)

    def component(self, name: str) -> Component:
        for comp in self._components:
            if comp.name == name:
                return comp
        raise KeyError(name)

    @property
    def hot(self) -> bool:
        """True when the trace-free batch lane is in effect.

        Hot runs keep every counter and final state bit-exact but
        record no trace events, so span reconstruction is impossible
        for them (``repro.obs`` refuses loudly).
        """
        return self.trace is None and self.idle_skip

    # -- execution ---------------------------------------------------------
    def reset(self) -> None:
        """Reset the clock, the profile counters and every component.

        Every cached claim is dropped.
        """
        self.cycle = 0
        self._ticked = 0
        self._skipped = 0
        self._skip_windows = 0
        self._batched = 0
        for comp in self._components:
            comp.reset()
        self._invalidate()

    def step(self, cycles: int = 1) -> None:
        """Advance the clock by ``cycles`` cycles."""
        self._advance(self.cycle + cycles)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = MAX_WAIT_CYCLES,
        what: str = "condition",
    ) -> int:
        """Step until ``predicate()`` is true; return elapsed cycles.

        The predicate must be a function of component state (not of the
        raw clock): during a declared-idle window no component state
        changes, so the kernel re-evaluates it only at wake-ups and
        every :attr:`max_skip_chunk` cycles.

        Raises
        ------
        DeadlockError
            If the predicate is still false after ``max_cycles`` steps.
        """
        start = self.cycle
        self._advance(start + max_cycles, predicate, what)
        return self.cycle - start

    def _advance(
        self,
        bound: int,
        predicate: Optional[Callable[[], bool]] = None,
        what: str = "condition",
    ) -> None:
        """The one advance loop behind :meth:`step` and :meth:`run_until`.

        Without a predicate, runs to cycle ``bound``.  With one, runs
        until it holds, re-checking it before every event; reaching
        ``bound`` first is a deadlock.
        """
        start = self.cycle
        fast = self.idle_skip
        # cached claims carry over from the previous call: whatever
        # mutated component state in between (a register backdoor, a
        # program load, a queued job) poked what it changed
        try:
            while True:
                now = self.cycle
                if predicate is None:
                    if now >= bound:
                        break
                    limit = bound
                else:
                    if predicate():
                        break
                    if now >= bound:
                        self._raise_deadlock(bound - start, what)
                    limit = now + self.max_skip_chunk
                    if limit > bound:
                        limit = bound
                if fast:
                    lanes, horizon = self._dispatch_scan(limit)
                    if lanes is None:
                        self._dispatch_cycle()
                    elif not lanes:
                        self.cycle = horizon
                        self._skipped += horizon - now
                        self._skip_windows += 1
                    elif self._grants(lanes, horizon):
                        self._dispatch_batch(lanes, horizon)
                    else:
                        self._dispatch_cycle()
                else:
                    self._tick_all()
        finally:
            if not fast:
                # the naive ticks never re-polled: no cached claim
                # survives a naive epoch
                self._invalidate()

    def _tick_all(self) -> None:
        """One naive two-phase cycle."""
        for comp in self._components:
            comp.tick()
        for comp in self._components:
            comp.commit()
        self.cycle += 1
        self._ticked += 1

    def _raise_deadlock(self, max_cycles: int, what: str) -> None:
        last = self.last_active or "<none>"
        raise DeadlockError(
            f"{what} not reached within {max_cycles} cycles "
            f"(stuck at cycle {self.cycle}, last active "
            f"component: {last})"
        )

    # -- the fast schedule -------------------------------------------------
    def _invalidate(self) -> None:
        """Drop every cached claim."""
        for comp in self._components:
            comp._wake_valid = False
            comp._cluster._wake_valid = False

    def _grants(self, lanes: List[Component], horizon: int) -> bool:
        """The batch-lane decision for a scan whose due components can
        all batch: tracing off, a window of at least two cycles, and
        lanes that drive pairwise disjoint sets of registered
        components (so no lane sees another's intermediate states)."""
        if self.trace is not None or horizon - self.cycle < 2:
            return False
        if len(lanes) == 1:
            return True
        claimed: set = set()
        for lane in lanes:
            driven = self._driven.get(lane)
            if driven is None:
                driven = frozenset(map(id, self._drives(lane)))
                self._driven[lane] = driven
            if not claimed.isdisjoint(driven):
                return False
            claimed.update(driven)
        return True

    def _drives(self, lane: Component) -> List[Component]:
        """``lane`` plus the registered components it references (a
        RAC's FIFOs): everything its ``tick_batch`` may touch.  Lanes
        batch together only while these sets are pairwise disjoint."""
        registered = {id(comp) for comp in self._components}
        found = [lane]
        for name, value in vars(lane).items():
            if name in ("_watchers", "_watching"):
                continue
            for item in value if isinstance(value, (list, tuple)) else (value,):
                if id(item) in registered and item not in found:
                    found.append(item)
        return found

    def _dispatch_batch(self, lanes: List[Component], horizon: int) -> None:
        """Advance every lane by one common span in one event.

        Preconditions established by the caller from a
        :meth:`_dispatch_scan` and :meth:`_grants`: tracing off, every
        due component is a lane (``can_batch``), the lanes drive
        disjoint component sets, and every other component either
        sleeps past ``horizon`` or is poke-wired (indefinitely idle).
        The span is the smallest :meth:`Component.batch_span` offer, so
        it ends at the first tick where any lane could wake another
        component (FIFO stall-watch thresholds, an operation's end);
        each lane's ``tick_batch`` must consume it exactly.
        """
        now = self.cycle
        span = self._lane_span(lanes, horizon - now)
        for lane in lanes:
            self._run_lane(lane, span)
            lane._wake_valid = False
            lane._cluster._wake_valid = False
        self.cycle = now + span
        self._ticked += span
        self._batched += span

    def _lane_span(self, lanes: List[Component], budget: int) -> int:
        """The common span of ``lanes``: the smallest ``batch_span``
        offer within ``budget``."""
        span = budget
        for lane in lanes:
            offer = lane.batch_span(span)
            if offer < span:
                if offer < 1:
                    raise SimulationError(
                        f"batch lane {lane.name!r} offered a {offer}-cycle "
                        f"span at cycle {self.cycle}"
                    )
                span = offer
        return span

    def _run_lane(self, lane: Component, span: int) -> None:
        """One lane's slab, which must consume exactly ``span``."""
        consumed = lane.tick_batch(span)
        if consumed != span:
            raise SimulationError(
                f"batch lane {lane.name!r}: tick_batch consumed {consumed} "
                f"of the {span}-cycle lane span granted at cycle "
                f"{self.cycle} (batch_span and tick_batch disagree)"
            )

    # -- introspection ----------------------------------------------------
    def profile(self) -> SimProfile:
        """Cycle accounting: ticked, skipped and batched cycles."""
        return SimProfile(
            cycles=self.cycle,
            ticked=self._ticked,
            skipped=self._skipped,
            skip_windows=self._skip_windows,
            batched=self._batched,
        )
