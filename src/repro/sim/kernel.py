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
another component pokes me").  The kernel caches each answer, scans the
cache once per event, and

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
one check of its cached claim, their earliest wake.

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

``Simulator(strict=True)`` audits the fast schedule while it runs
(:mod:`repro.sim.audit`): it checks each cached claim against a fresh
one before trusting it -- claims carried over from a previous call
included -- and re-executes each window it would skip or batch through
the naive stepper.  The protocol and its correctness
rules are documented in ``docs/SIMULATION.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Tuple)

from . import audit
from .errors import DeadlockError, SimulationError
from .tracing import Trace


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

    def note_activity(self) -> bool:
        """Name this component in deadlock diagnostics, as
        :meth:`trace_event` does, and return True when a trace is
        attached.  For hooks the kernel calls: a hot call site builds an
        event's payload only when a trace will record it::

            if self.note_activity():
                self.trace_event("grant", address=hex(address))
        """
        sim = self.sim
        sim.last_active = self.name
        return sim.trace is not None

    def trace_event(self, event: str, **data: object) -> None:
        """Record an event in the simulator trace, if tracing is on."""
        if self.sim is not None:
            # remembered even without a trace: names the most recently
            # active component in deadlock diagnostics
            self.sim.last_active = self.name
            if self.sim.trace is not None:
                self.sim.trace.record(self.sim.cycle, self.name, event, data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


#: a cluster claim's "no member wakes": later than any cycle a run reaches
_NEVER = 1 << 62


def _commits(comp: Component) -> bool:
    """Whether the commit sweep visits ``comp``: its class overrides
    :meth:`Component.commit`.  Decided by the class, so an
    instance-level wrapper around a base ``commit`` (a profiler's)
    cannot change the schedule."""
    return type(comp).commit is not Component.commit


class _Cluster:
    """A contiguous run of registered components that the fast schedule
    walks as one: the components of one :meth:`Simulator.add_all` (an
    OCP's interface, controller, FIFOs and RAC), or one component
    registered alone.

    Its claim is the earliest cached wake of its members
    (:data:`_NEVER` when none will wake on its own), cached only while
    no member is due.  It is valid only while every member's claim is
    valid: whatever drops a member's claim -- :meth:`Component.poke`,
    :meth:`Component.wake_watchers`, a tick, a lane -- drops the
    cluster's too, and nothing else may drop a member's claim.  For
    :meth:`Component.wake_watchers`, the cluster sits in the
    ``_watchers`` list of each member and of each component a member
    watches.
    """

    __slots__ = ("members", "committers", "_wake", "_wake_valid")

    def __init__(self, members: List[Component]) -> None:
        self.members = members
        #: the members the commit sweep visits
        self.committers = [comp for comp in members if _commits(comp)]
        self._wake = _NEVER
        self._wake_valid = False


#: the cluster of every component outside the cluster walk: pokes drop
#: its claim unconditionally, and nothing ever reads it
_NO_CLUSTER = _Cluster([])


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
    strict:
        Audit the fast schedule: every cached quiescence claim is
        re-polled before it is trusted, every declared-idle window is
        executed through the naive stepper (asserting that no component
        emitted a trace event or woke earlier than declared), and every
        batch-lane span runs its ``tick_batch`` slabs on copies that
        must match the naive replay of its cycles.  Used by the
        equivalence tests; costs naive speed plus the checks.
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
        strict: bool = False,
    ) -> None:
        self.cycle = 0
        self.trace = trace
        self.idle_skip = idle_skip
        self.strict = strict
        #: name of the component that most recently emitted an event
        self.last_active: Optional[str] = None
        self._components: List[Component] = []
        #: the registered components whose class overrides
        #: :meth:`Component.commit`, in registration order: the only
        #: ones the commit sweep of a dispatched cycle visits
        self._committers: List[Component] = []
        #: each component registered by :meth:`add_all`, to its group
        self._group_of: Dict[Component, List[Component]] = {}
        #: the walk in clusters (registration order) while at least two
        #: groups of several components are registered, else None (the
        #: flat walk over ``_components``)
        self._clusters: Optional[List[_Cluster]] = None
        #: the clusters with a member in ``_committers``
        self._commit_clusters: List[_Cluster] = []
        self._names = set()
        #: per batch lane, the ids of the registered components it
        #: drives (:func:`audit.driven`); cleared on add/remove
        self._driven: Dict[Component, FrozenSet[int]] = {}
        # accounting for profile()
        self._ticked = 0
        self._skipped = 0
        self._skip_windows = 0
        self._batched = 0
        #: the walk's dispatch scan and dispatched cycle, chosen on every
        #: registration change (:meth:`_registered`), so an event pays
        #: for no choice
        self._dispatch_scan: Callable[
            [int], Tuple[Optional[List[Component]], int]] = self._flat_scan
        self._dispatch_cycle: Callable[[], None] = self._flat_cycle

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
        list: the commit sweep, the clusters and the walk.  A cluster
        is a contiguous run of one :meth:`add_all` group (a DPR swap
        re-registers an OCP's FIFOs and RAC at the end, outside it) or
        one other component."""
        self._driven.clear()
        self._committers = [comp for comp in self._components
                            if _commits(comp)]
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
            self._commit_clusters = []
            for comp in self._components:
                comp._cluster = _NO_CLUSTER
            self._dispatch_scan = self._flat_scan
            self._dispatch_cycle = self._flat_cycle
        else:
            self._clusters = [_Cluster(run) for run in runs]
            self._commit_clusters = [cluster for cluster in self._clusters
                                     if cluster.committers]
            for cluster in self._clusters:
                for comp in cluster.members:
                    comp._cluster = cluster
            self._dispatch_scan = self._cluster_scan
            self._dispatch_cycle = self._cluster_cycle
        self._wire_watchers()

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
        return self.trace is None and self.idle_skip and not self.strict

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
        max_cycles: int = 1_000_000,
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
        # the shipping schedule; strict mode audits the same decisions
        plain = fast and not self.strict
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
                    limit = min(bound, now + self.max_skip_chunk)
                if plain:
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
                elif fast:
                    self._audited_event(limit)
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

    def _audited_event(self, bound: int) -> None:
        """Strict mode: take the dispatch scan's decision, audited by
        :mod:`repro.sim.audit` (the real system always ticks naively)."""
        audit.audit_claims(self)
        now = self.cycle
        lanes, horizon = self._dispatch_scan(bound)
        if lanes is None or (lanes and not self._grants(lanes, horizon)):
            self._dispatch_cycle()
            return
        if lanes:
            audit.audit_batch(self, lanes, horizon)
        else:
            audit.replay(self, horizon - now)
        # the skip or slab a replay stands for leaves the claims cached:
        # poll them afresh, so the claims carried past it (into the
        # next public call, too) are audited like the fast schedule's
        for comp in self._components:
            self._poll(comp)

    def _tick_settled(self) -> None:
        """One naive cycle inside a fast epoch: drop cached wakes, tick
        everything."""
        self._invalidate()
        self._tick_all()

    def _poll(self, comp: Component) -> Optional[int]:
        """Re-poll a component's quiescence claim and cache it."""
        comp._wake = wake = comp.next_activity()
        comp._wake_valid = True
        return wake

    def _flat_scan(
        self, bound: int
    ) -> Tuple[Optional[List[Component]], int]:
        """One pass over the cached quiescence claims (the flat walk's
        ``_dispatch_scan``).

        Returns ``(lanes, horizon)``: the due components in
        registration order (empty when none is due), and the earliest
        strictly-future wake clamped to ``bound``.  The scan keeps
        going past a due component only while every due component so
        far can batch; at the first one that cannot, a dispatched cycle
        has to run, the horizon is irrelevant, and it returns ``None``
        for the lanes (later components keep their caches and are
        re-polled by the dispatched cycle where needed).
        """
        now = self.cycle
        lanes: List[Component] = []
        horizon = bound
        for comp in self._components:
            if comp._wake_valid:
                wake = comp._wake
            else:  # inlined _poll: this loop runs before every event
                comp._wake = wake = comp.next_activity()
                comp._wake_valid = True
            if wake is None:
                continue
            if wake <= now:
                if not comp.can_batch:
                    return None, horizon
                lanes.append(comp)
            elif wake < horizon:
                horizon = wake
        return lanes, horizon

    def _cluster_scan(
        self, bound: int
    ) -> Tuple[Optional[List[Component]], int]:
        """:meth:`_flat_scan` over clusters (the cluster walk's
        ``_dispatch_scan``): a cluster whose cached claim lies in the
        future costs one check; any other is scanned member by member
        and, when none of them is due, caches their earliest wake as
        its claim."""
        now = self.cycle
        lanes: List[Component] = []
        horizon = bound
        for cluster in self._clusters:
            if cluster._wake_valid:
                wake = cluster._wake
                if wake > now:
                    if wake < horizon:
                        horizon = wake
                    continue
            due = len(lanes)
            low = _NEVER
            for comp in cluster.members:
                if comp._wake_valid:
                    wake = comp._wake
                else:
                    comp._wake = wake = comp.next_activity()
                    comp._wake_valid = True
                if wake is None:
                    continue
                if wake <= now:
                    if not comp.can_batch:
                        return None, horizon
                    lanes.append(comp)
                elif wake < low:
                    low = wake
            if low < horizon:
                horizon = low
            if len(lanes) == due:
                cluster._wake = low
                cluster._wake_valid = True
        return lanes, horizon

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
                driven = frozenset(map(id, audit.driven(self, lane)))
                self._driven[lane] = driven
            if not claimed.isdisjoint(driven):
                return False
            claimed.update(driven)
        return True

    def _flat_cycle(self) -> None:
        """Execute one cycle touching only the components that are due
        (the flat walk's ``_dispatch_cycle``).

        Visibility matches the naive schedule exactly: the single tick
        pass runs in registration order, re-polling each component when
        the pass reaches it -- so a *forward* poke (an earlier
        component waking a later one) lands the same cycle, while a
        *backward* poke takes effect next cycle, which is precisely
        when the naive two-phase schedule would surface it.  The commit
        sweep visits only the components whose class overrides
        ``commit`` (every other commit is the base no-op), again in
        registration order so same-cycle trace events keep their naive
        order, and picks up those whose commit phase can still observe
        a backward poke (a FIFO staged into by a later producer).  A
        claim the sweep leaves invalid is polled by the next scan.
        """
        now = self.cycle
        for comp in self._components:
            if comp._wake_valid:
                wake = comp._wake
            else:  # inlined _poll (hot loop)
                comp._wake = wake = comp.next_activity()
                comp._wake_valid = True
            if wake is None or wake > now:
                continue
            comp._ran_at = now
            comp.tick()
            comp._wake_valid = False
        for comp in self._committers:
            if comp._ran_at == now:
                comp.commit()
            elif not comp._wake_valid:
                wake = self._poll(comp)
                if wake is not None and wake <= now:
                    comp.commit()
                    comp._wake_valid = False
        self.cycle = now + 1
        self._ticked += 1

    def _cluster_cycle(self) -> None:
        """:meth:`_flat_cycle` over clusters (the cluster walk's
        ``_dispatch_cycle``): the tick pass skips a cluster whose valid
        claim lies in the future, and the commit sweep every cluster
        whose claim is valid (a member that ticked or was poked dropped
        it)."""
        now = self.cycle
        for cluster in self._clusters:
            if cluster._wake_valid and cluster._wake > now:
                continue
            for comp in cluster.members:
                if comp._wake_valid:
                    wake = comp._wake
                else:
                    comp._wake = wake = comp.next_activity()
                    comp._wake_valid = True
                if wake is None or wake > now:
                    continue
                comp._ran_at = now
                comp.tick()
                comp._wake_valid = False
                cluster._wake_valid = False
        for cluster in self._commit_clusters:
            if cluster._wake_valid:
                continue
            for comp in cluster.committers:
                if comp._ran_at == now:
                    comp.commit()
                elif not comp._wake_valid:
                    wake = self._poll(comp)
                    if wake is not None and wake <= now:
                        comp.commit()
                        comp._wake_valid = False
        self.cycle = now + 1
        self._ticked += 1

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
