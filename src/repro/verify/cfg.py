"""Control-flow graph construction for Ouessant microcode.

The extension ISA has exactly three control-transfer instructions --
unconditional ``jmp``, the single-level hardware ``loop``/``endl`` pair
-- plus the terminators ``eop``/``halt``.  That makes the CFG small and
very analyzable:

* every branch except ``endl`` is *unconditional*, so a reachable
  cycle that does not go through an ``endl`` back-edge can never be
  left: it is a guaranteed infinite loop;
* ``endl`` back-edges are bounded by their ``loop``'s immediate trip
  count, so a structured program's CFG minus back-edges is a DAG --
  the property the abstract interpreter's single-pass propagation and
  loop acceleration rely on.

:func:`build_cfg` also performs the structural checks (loop balance,
jmp range, jmps crossing loop boundaries) and records them as
``(code, index, message)`` problems for the engine to report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.isa import CONTROL_FLOW_OPS, OuInstruction, OuOp, TERMINATOR_OPS

#: (diagnostic code, instruction index, message)
Problem = Tuple[str, Optional[int], str]


@dataclass
class LoopRegion:
    """One structurally matched ``loop`` ... ``endl`` pair."""

    loop_index: int
    endl_index: int
    trip: int  # iterations executed (hardware runs the body >= once)

    def covers(self, index: int) -> bool:
        """True when ``index`` executes under this loop's control.

        The body spans ``(loop_index, endl_index]`` -- the ``endl``
        itself needs the loop active, the ``loop`` instruction does
        not.
        """
        return self.loop_index < index <= self.endl_index


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run ``[start, end]``."""

    id: int
    start: int
    end: int
    successors: List[int] = field(default_factory=list)
    #: successor reached by an ``endl`` back-edge (excluded from the
    #: DAG the interpreter propagates over)
    back_edge: Optional[int] = None
    #: control falls off the end of the program after this block
    falls_off_end: bool = False

    @property
    def size(self) -> int:
        return self.end - self.start + 1


class CFG:
    """Blocks, edges and derived facts for one program."""

    def __init__(self, program: Sequence[OuInstruction]) -> None:
        self.program = list(program)
        self.blocks: List[BasicBlock] = []
        self.block_of: Dict[int, int] = {}  # instruction index -> block id
        self.loops: List[LoopRegion] = []
        self.problems: List[Problem] = []
        self.reachable: Set[int] = set()  # block ids
        self._acyclic_order: Optional[List[int]] = None

    # -- queries ----------------------------------------------------------
    def block_at(self, index: int) -> BasicBlock:
        return self.blocks[self.block_of[index]]

    def reachable_instructions(self) -> Set[int]:
        out: Set[int] = set()
        for bid in self.reachable:
            block = self.blocks[bid]
            out.update(range(block.start, block.end + 1))
        return out

    def dead_ranges(self) -> List[Tuple[int, int]]:
        """Contiguous unreachable instruction ranges ``[lo, hi]``."""
        alive = self.reachable_instructions()
        ranges: List[Tuple[int, int]] = []
        start: Optional[int] = None
        for index in range(len(self.program)):
            if index not in alive:
                if start is None:
                    start = index
            elif start is not None:
                ranges.append((start, index - 1))
                start = None
        if start is not None:
            ranges.append((start, len(self.program) - 1))
        return ranges

    @property
    def structured(self) -> bool:
        """True when no structural/control-flow problem was found."""
        return not self.problems

    def acyclic_order(self) -> Optional[List[int]]:
        """Reachable block ids, topologically sorted ignoring back-edges.

        Returns ``None`` when the back-edge-free subgraph still has a
        cycle (i.e. an infinite loop was detected).
        """
        return self._acyclic_order


def _match_loops(program: Sequence[OuInstruction], cfg: CFG) -> None:
    stack: List[int] = []
    for index, instr in enumerate(program):
        if instr.op is OuOp.LOOP:
            if stack:
                cfg.problems.append((
                    "OU004", index,
                    "nested loop: the controller supports a single level",
                ))
            stack.append(index)
        elif instr.op is OuOp.ENDL:
            if not stack:
                cfg.problems.append((
                    "OU005", index, "endl without a matching loop",
                ))
            else:
                loop_index = stack.pop()
                trip = max(1, program[loop_index].imm)
                cfg.loops.append(LoopRegion(loop_index, index, trip))
    for loop_index in stack:
        cfg.problems.append((
            "OU006", loop_index,
            "loop opened but never closed with endl",
        ))


def _leaders(program: Sequence[OuInstruction], cfg: CFG) -> List[int]:
    n = len(program)
    leaders = {0}
    for index, instr in enumerate(program):
        op = instr.op
        if op in CONTROL_FLOW_OPS or op in TERMINATOR_OPS:
            if index + 1 < n:
                leaders.add(index + 1)
        if op is OuOp.JMP and 0 <= instr.imm < n:
            leaders.add(instr.imm)
    for region in cfg.loops:
        if region.loop_index + 1 < n:
            leaders.add(region.loop_index + 1)  # back-edge target
    return sorted(leaders)


def _check_jmp_structure(cfg: CFG) -> None:
    """Flag jmps that cross a loop boundary (either direction)."""
    program = cfg.program
    for index, instr in enumerate(program):
        if instr.op is not OuOp.JMP or not 0 <= instr.imm < len(program):
            continue
        for region in cfg.loops:
            if region.covers(index) != region.covers(instr.imm):
                cfg.problems.append((
                    "OU007", index,
                    f"jmp from {index} to {instr.imm} crosses the "
                    f"loop at {region.loop_index}..{region.endl_index}: "
                    "the loop cannot be bounded",
                ))
                break


def _find_infinite_cycle(cfg: CFG) -> None:
    """Detect reachable cycles that avoid every endl back-edge.

    Such a cycle is made of unconditional edges only, so once entered
    it can never be left.  Also computes the topological order of the
    back-edge-free reachable subgraph when it is acyclic.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color = {bid: WHITE for bid in cfg.reachable}
    order: List[int] = []
    cycle_at: Optional[int] = None

    for root in sorted(cfg.reachable):
        if color[root] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = GREY
        while stack:
            bid, edge_index = stack[-1]
            successors = [
                s for s in cfg.blocks[bid].successors
                if s != cfg.blocks[bid].back_edge and s in cfg.reachable
            ]
            if edge_index < len(successors):
                stack[-1] = (bid, edge_index + 1)
                nxt = successors[edge_index]
                if color[nxt] == GREY:
                    if cycle_at is None:
                        cycle_at = cfg.blocks[bid].end
                elif color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, 0))
            else:
                color[bid] = BLACK
                order.append(bid)
                stack.pop()

    if cycle_at is not None:
        cfg.problems.append((
            "OU009", cycle_at,
            "infinite loop: this control-flow cycle is unconditional "
            "and can never reach eop/halt",
        ))
        cfg._acyclic_order = None
    else:
        cfg._acyclic_order = list(reversed(order))


def build_cfg(program: Sequence[OuInstruction]) -> CFG:
    """Build the CFG and run the structural checks.

    The returned graph always covers the whole program; problems
    (OU003..OU009 codes) are accumulated in :attr:`CFG.problems` for
    the engine to turn into findings.
    """
    cfg = CFG(program)
    n = len(program)
    if n == 0:
        return cfg

    _match_loops(program, cfg)
    back_target = {region.endl_index: region.loop_index + 1
                   for region in cfg.loops}

    leaders = _leaders(program, cfg)
    starts = set(leaders)
    for block_id, start in enumerate(leaders):
        end = start
        while (end + 1 < n and end + 1 not in starts
               and program[end].op not in CONTROL_FLOW_OPS
               and program[end].op not in TERMINATOR_OPS):
            end += 1
        block = BasicBlock(block_id, start, end)
        cfg.blocks.append(block)
        for index in range(start, end + 1):
            cfg.block_of[index] = block_id

    for block in cfg.blocks:
        last = program[block.end]
        op = last.op
        if op in TERMINATOR_OPS:
            continue
        if op is OuOp.JMP:
            if 0 <= last.imm < n:
                block.successors.append(cfg.block_of[last.imm])
            else:
                cfg.problems.append((
                    "OU003", block.end,
                    f"jmp target {last.imm} outside the "
                    f"{n}-instruction program",
                ))
            continue
        if op is OuOp.ENDL and block.end in back_target:
            target = back_target[block.end]
            if target < n:
                back_id = cfg.block_of[target]
                block.successors.append(back_id)
                block.back_edge = back_id
        # fallthrough (also the endl exit edge and the loop body entry)
        if block.end + 1 < n:
            block.successors.append(cfg.block_of[block.end + 1])
        else:
            block.falls_off_end = True

    # reachability over every edge, back-edges included
    worklist = [0]
    while worklist:
        bid = worklist.pop()
        if bid in cfg.reachable:
            continue
        cfg.reachable.add(bid)
        worklist.extend(cfg.blocks[bid].successors)

    _check_jmp_structure(cfg)
    _find_infinite_cycle(cfg)
    return cfg
