"""The audited simulator: the fast schedule checked against the naive one.

:class:`AuditedSimulator` keeps the fast schedule's decisions but
checks each of them against the naive oracle while it runs:

* :func:`audit_claims` re-polls every cached quiescence claim, a
  cluster's included, before the dispatch scan trusts it;
* :func:`replay` executes a window the scan declared idle through the
  naive stepper and asserts that nothing happened in it;
* :func:`audit_batch` runs every lane's ``tick_batch`` slab on a copy
  of the lanes and the components they drive, replays the same cycles
  naively on the real system, and requires both to end in the same
  state (:func:`state_diff`).

The real system therefore always follows the naive schedule; the fast
paths only run to be checked.  The subclass hooks in at
:meth:`Simulator._bind_walk`, which binds the compiled walk after each
registration change: it wraps the bound dispatch scan, so the shipping
loop runs unchanged and pays nothing for the audit.  :func:`audited`
installs it on a built :class:`~repro.system.SoC` or
:class:`~repro.sim.Simulator`; :func:`build` builds and installs in one
call.
"""

from __future__ import annotations

import copy
from collections import deque
from types import MethodType
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.sim.errors import SimulationError
from repro.sim.kernel import Component, Simulator, _claim

#: kernel bookkeeping that legitimately differs between a slab and its
#: naive replay (cached wakes, the last-tick marker, the cluster)
_KERNEL_FIELDS = frozenset(("_wake", "_wake_valid", "_ran_at", "_cluster"))

Scan = Callable[[int], Tuple[Optional[List[Component]], int]]


class AuditedSimulator(Simulator):
    """A :class:`Simulator` whose fast schedule audits every decision
    (see the module docstring); with ``idle_skip=False`` it is the
    naive stepper, unaudited."""

    def _bind_walk(self) -> None:
        super()._bind_walk()
        scan = self._dispatch_scan
        self._dispatch_scan = lambda bound: _audited_event(self, scan, bound)


def audited(target: Any) -> Any:
    """Install :class:`AuditedSimulator` on ``target``, a simulator or
    anything holding one as ``sim`` (a SoC); returns ``target``.

    The walk is unbound, so the next event binds it through the audit
    seam; claims cached before the install are audited from then on.
    """
    sim = getattr(target, "sim", target)
    sim.__class__ = AuditedSimulator
    sim._dispatch_scan = sim._bind_scan
    sim._dispatch_cycle = sim._bind_cycle
    return target


def build(factory: Callable[..., Any], *args: Any, audit: bool = False,
          **kwargs: Any) -> Any:
    """``factory(*args, **kwargs)`` (``Simulator``, ``SoC``,
    ``build_mpsoc``), :func:`audited` when ``audit``."""
    built = factory(*args, **kwargs)
    return audited(built) if audit else built


def _audited_event(sim: Simulator, scan: Scan,
                   bound: int) -> Tuple[Optional[List[Component]], int]:
    """The dispatch scan of an audited simulator.

    A dispatched cycle is left to the loop.  A skip or a granted batch
    is audited here, which advances the real system naively through
    the window; the scan then reports an empty window ending where the
    replay did, and the profile is booked as the fast schedule would
    book it.
    """
    audit_claims(sim)
    now = sim.cycle
    lanes, horizon = scan(bound)
    if lanes is None or (lanes and not sim._grants(lanes, horizon)):
        return lanes, horizon
    ticked = sim._ticked
    if lanes:
        audit_batch(sim, lanes, horizon)
        span = sim.cycle - now
        # a slab: the loop books the empty window returned below as a
        # skip, which this takes back
        sim._batched += span
        sim._skipped -= span
        sim._skip_windows -= 1
        for lane in lanes:
            lane._cluster._wake_valid = False
    else:
        replay(sim, horizon - now)
        sim._ticked = ticked
    # the naive ticks leave the cluster claims as the skip or slab
    # would (the lanes' dropped, the rest as the scan cached them) but
    # not the members': poll those afresh, so the claims carried past
    # the window (into the next public call, too) are audited like the
    # fast schedule's
    for comp in sim._components:
        _poll(comp)
    return [], sim.cycle


def _poll(comp: Component) -> Optional[int]:
    """Re-poll a component's quiescence claim and cache it, unless the
    walk inlines it (an inlined claim is never cached)."""
    wake = comp.next_activity()
    if _claim(comp) is None:
        comp._wake = wake
        comp._wake_valid = True
    return wake


def audit_claims(sim: Simulator) -> None:
    """Check every cached claim against a fresh poll.

    A claim may only move *later* on its own (rule 3 of the protocol);
    one that moved earlier without a poke means the component's wake
    wiring is missing a path, and the fast schedule would have slept
    through its wake-up.  A cached cluster claim must be no later than
    any member's fresh claim: a later one means a member lost its claim
    without its cluster, and the walk would skip the member's wake.
    """
    now = sim.cycle
    for cluster in sim._clusters or ():
        if not cluster._wake_valid:
            continue
        claim = cluster._wake
        for comp in cluster.members:
            fresh = comp.next_activity()
            if fresh is not None and (claim is None or fresh < claim):
                first = cluster.members[0].name
                raise SimulationError(
                    f"strict dispatch: component {comp.name!r} wakes at "
                    f"{fresh} at cycle {now}, before the claim cached for "
                    f"its cluster (from {first!r}, "
                    f"{len(cluster.members)} components): stale cluster "
                    "claim, a member's claim was dropped without its "
                    "cluster's"
                )
    for comp in sim._components:
        if not comp._wake_valid:
            continue
        cached = comp._wake
        fresh = _poll(comp)
        if fresh is not None and (cached is None or fresh < cached):
            raise SimulationError(
                f"strict dispatch: component {comp.name!r} moved its "
                f"wake from {cached} to {fresh} at cycle {now} "
                "without being poked (stale quiescence claim)"
            )


def replay(sim: Simulator, cycles: int,
           lanes: Sequence[Component] = ()) -> None:
    """Tick naively through ``cycles`` cycles the fast schedule would
    have skipped (or, with ``lanes``, batched) and assert that the
    claims held: no component other than the lanes due, no trace events
    or activity outside them."""
    events_before = len(sim.trace) if sim.trace is not None else None
    allowed = {sim.last_active}
    allowed.update(lane.name for lane in lanes)
    window = "batched" if lanes else "declared-idle"
    for offset in range(cycles):
        for comp in sim._components:
            if comp in lanes:
                continue
            wake = comp.next_activity()
            if wake is not None and wake <= sim.cycle:
                raise SimulationError(
                    f"strict dispatch: component {comp.name!r} "
                    f"turned active at cycle {sim.cycle}, {offset} "
                    f"cycles into a {cycles}-cycle {window} window"
                )
        sim._tick_all()
    if events_before is not None and len(sim.trace) != events_before:
        culprit = sim.trace.dump().splitlines()[events_before]
        raise SimulationError(
            f"strict dispatch: trace events emitted during a {window} "
            f"window (first: {culprit!r})"
        )
    if sim.last_active not in allowed:
        raise SimulationError(
            f"strict dispatch: component {sim.last_active!r} was "
            f"active during a {window} window"
        )


def audit_batch(sim: Simulator, lanes: Sequence[Component],
                horizon: int) -> None:
    """Check one batch-lane span against its naive replay.

    The lanes' driven sets are re-derived (they must be pairwise
    disjoint) and deep-copied together; every other component and the
    simulator are shared with the copies, not copied.  The span is
    computed on the copies, which must not change under ``batch_span``;
    each copied lane then runs its slab, which must consume the span
    exactly.  The real system ticks the same cycles naively, with only
    the lanes allowed to act, and the two must agree on every field of
    every copied component.
    """
    now = sim.cycle
    reals: List[Component] = []
    owner: Dict[int, Component] = {}
    for lane in lanes:
        own = sim._drives(lane)
        for comp in own:
            other = owner.setdefault(id(comp), lane)
            if other is not lane:
                raise SimulationError(
                    f"strict dispatch: lanes {other.name!r} and "
                    f"{lane.name!r} both drive {comp.name!r} at cycle "
                    f"{now}; they cannot batch together"
                )
        reals.extend(own)
    memo: Dict[int, object] = {id(sim): sim}
    for comp in sim._components:
        if comp not in reals:
            memo[id(comp)] = comp
    # the clusters in ``_watchers`` lists are the kernel's, not state
    for cluster in sim._clusters or ():
        memo[id(cluster)] = cluster
    shadows = copy.deepcopy(reals, memo)
    twin = {id(real): shadow for real, shadow in zip(reals, shadows)}
    shadow_lanes = [twin[id(lane)] for lane in lanes]
    span = sim._lane_span(shadow_lanes, horizon - now)
    names = ", ".join(repr(lane.name) for lane in lanes)
    for real, shadow in zip(reals, shadows):
        where = state_diff(real, shadow, real.name)
        if where is not None:
            raise SimulationError(
                f"strict dispatch: batch_span of {names} changed state "
                f"at {where} (it must be side-effect-free)"
            )
    for shadow in shadow_lanes:
        sim._run_lane(shadow, span)
    replay(sim, span, lanes)
    for real, shadow in zip(reals, shadows):
        where = state_diff(real, shadow, real.name)
        if where is not None:
            raise SimulationError(
                f"strict dispatch: {names} tick_batch slab of "
                f"{span} cycles from cycle {now} diverged from the "
                f"naive replay at {where}"
            )


def state_diff(a: Any, b: Any, path: str,
               seen: Optional[Set[Tuple[int, int]]] = None) -> Optional[str]:
    """Path of the first field where two object graphs differ, or None.

    Walks containers and instance ``__dict__`` recursively (skipping
    :data:`_KERNEL_FIELDS`); shared objects and already-visited pairs
    compare equal, array-likes compare by value.  An object whose
    internal layout may legitimately differ between the two schedules
    defines ``audit_state()`` returning the dict to compare instead of
    its ``__dict__``.
    """
    if a is b:
        return None
    if type(a) is not type(b):
        return path
    seen = set() if seen is None else seen
    key = (id(a), id(b))
    if key in seen:
        return None
    seen.add(key)
    if isinstance(a, (list, tuple, deque)):
        if len(a) != len(b):
            return f"{path} (length)"
        pairs: List[Tuple[str, Any, Any]] = [
            (f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))
        ]
    elif isinstance(a, dict):
        if a.keys() != b.keys():
            return f"{path} (keys)"
        pairs = [(f"{path}[{k!r}]", a[k], b[k]) for k in a]
    elif isinstance(a, MethodType):
        if a.__func__ is not b.__func__:
            return path
        pairs = [(path, a.__self__, b.__self__)]
    elif hasattr(a, "tolist"):  # numpy arrays and scalars
        return None if a.tolist() == b.tolist() else path
    elif hasattr(a, "__dict__"):
        canonical = hasattr(a, "audit_state")
        fields = a.audit_state() if canonical else vars(a)
        other = b.audit_state() if canonical else vars(b)
        if fields.keys() != other.keys():
            return f"{path} (fields)"
        pairs = [(f"{path}.{k}", v, other[k]) for k, v in fields.items()
                 if k not in _KERNEL_FIELDS]
    else:
        return None if a == b else path
    for where, x, y in pairs:
        found = state_diff(x, y, where, seen)
        if found is not None:
            return found
    return None
