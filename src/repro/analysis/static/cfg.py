"""Per-thread control-flow graphs over the mini-ISA.

A :class:`ThreadCFG` partitions a thread's flat instruction list into
basic blocks and records the taken/fallthrough successor of each block.
Branch targets are label indices (herd-style, a label may equal
``len(code)`` and then names the thread's exit), so the graph always has
a single virtual :data:`EXIT` sink.

The dataflow passes in :mod:`repro.analysis.static.dataflow` only run
over *acyclic* CFGs — the mini-ISA permits loops (CAS spinlocks), but a
looping thread has no static instruction bound, so the analyses degrade
to the conservative PR-2 facts instead.  :attr:`ThreadCFG.has_loops`
flags that case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Branch
from repro.isa.program import Thread

#: Virtual block id for the thread's single exit point.
EXIT = -1


@dataclass(frozen=True)
class BasicBlock:
    """A maximal straight-line run of instructions ``[start, end)``."""

    bid: int
    start: int
    end: int

    def indices(self) -> range:
        return range(self.start, self.end)

    def __len__(self) -> int:
        return self.end - self.start

    def __str__(self) -> str:
        return f"B{self.bid}[{self.start}..{self.end})"


@dataclass(frozen=True)
class ThreadCFG:
    """The control-flow graph of one thread.

    ``taken_succ``/``fall_succ`` give, per block, the successor reached
    by a taken branch and by falling through (:data:`EXIT` for the
    virtual exit, ``None`` when that edge does not exist — unconditional
    jumps have no fallthrough, non-branch blocks no taken edge).
    """

    thread: Thread
    blocks: tuple[BasicBlock, ...]
    taken_succ: tuple[int | None, ...]
    fall_succ: tuple[int | None, ...]
    block_of: tuple[int, ...]  #: instruction index -> block id
    has_loops: bool

    # -- structure -----------------------------------------------------

    def successors(self, bid: int) -> tuple[int, ...]:
        succs: list[int] = []
        for succ in (self.taken_succ[bid], self.fall_succ[bid]):
            if succ is not None and succ not in succs:
                succs.append(succ)
        return tuple(succs)

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (block.bid, succ)
            for block in self.blocks
            for succ in self.successors(block.bid)
        )

    def terminator(self, bid: int) -> Branch | None:
        """The block's closing branch, if any."""
        block = self.blocks[bid]
        if block.end > block.start:
            last = self.thread.code[block.end - 1]
            if isinstance(last, Branch):
                return last
        return None

    def reverse_postorder(self) -> tuple[int, ...]:
        """Blocks in reverse postorder from the entry — a topological
        order whenever the graph is acyclic."""
        if not self.blocks:
            return ()
        order: list[int] = []
        _postorder(self, 0, set(), order)
        return tuple(reversed(order))

    # -- reachability --------------------------------------------------

    def live_blocks(self, live_edges: frozenset[tuple[int, int]]) -> frozenset[int]:
        """Blocks reachable from the entry along ``live_edges`` (a subset
        of :meth:`edges` — dead branch arms removed)."""
        if not self.blocks:
            return frozenset()
        reached = {0}
        frontier = [0]
        while frontier:
            bid = frontier.pop()
            for succ in self.successors(bid):
                if succ == EXIT or succ in reached or (bid, succ) not in live_edges:
                    continue
                reached.add(succ)
                frontier.append(succ)
        return frozenset(reached)

    def unavoidable_blocks(
        self, live_edges: frozenset[tuple[int, int]]
    ) -> frozenset[int]:
        """Blocks on *every* entry-to-exit path (instructions there must
        execute).  Only meaningful on acyclic graphs."""
        if not self.blocks:
            return frozenset()
        live = self.live_blocks(live_edges)
        unavoidable = set()
        for candidate in live:
            if not self._exit_reachable_avoiding(candidate, live, live_edges):
                unavoidable.add(candidate)
        return frozenset(unavoidable)

    def _exit_reachable_avoiding(
        self,
        avoid: int,
        live: frozenset[int],
        live_edges: frozenset[tuple[int, int]],
    ) -> bool:
        if avoid == 0:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            bid = frontier.pop()
            for succ in self.successors(bid):
                if (bid, succ) not in live_edges:
                    continue
                if succ == EXIT:
                    return True
                if succ == avoid or succ in seen or succ not in live:
                    continue
                seen.add(succ)
                frontier.append(succ)
        return False

    def __str__(self) -> str:
        parts = []
        for block in self.blocks:
            succs = ", ".join(
                "exit" if s == EXIT else f"B{s}" for s in self.successors(block.bid)
            )
            parts.append(f"{block} -> [{succs}]")
        loops = " (loops)" if self.has_loops else ""
        return f"CFG({self.thread.name}{loops}): " + "; ".join(parts)


def build_cfg(thread: Thread) -> ThreadCFG:
    """Partition ``thread`` into basic blocks and wire the edges."""
    code = thread.code
    size = len(code)
    if size == 0:
        return ThreadCFG(thread, (), (), (), (), has_loops=False)

    leaders = {0}
    for index, instruction in enumerate(code):
        if isinstance(instruction, Branch):
            target = thread.target_of(instruction)
            if target < size:
                leaders.add(target)
            if index + 1 < size:
                leaders.add(index + 1)

    starts = sorted(leaders)
    blocks = tuple(
        BasicBlock(bid, start, end)
        for bid, (start, end) in enumerate(zip(starts, starts[1:] + [size]))
    )
    block_of_list = [0] * size
    for block in blocks:
        for index in block.indices():
            block_of_list[index] = block.bid
    block_of = tuple(block_of_list)

    def block_at(index: int) -> int:
        return EXIT if index >= size else block_of[index]

    taken: list[int | None] = []
    fall: list[int | None] = []
    for block in blocks:
        last = code[block.end - 1]
        if isinstance(last, Branch):
            taken.append(block_at(thread.target_of(last)))
            fall.append(block_at(block.end) if last.cond is not None else None)
        else:
            taken.append(None)
            fall.append(block_at(block.end))

    cfg = ThreadCFG(
        thread, blocks, tuple(taken), tuple(fall), block_of, has_loops=False
    )
    return ThreadCFG(
        thread, blocks, tuple(taken), tuple(fall), block_of, has_loops=_has_cycle(cfg)
    )


# The two depth-first walks are module-level functions, not nested
# closures: a self-recursive closure is a reference cycle that outlives
# every call until the cyclic collector runs.


def _postorder(cfg: ThreadCFG, bid: int, visited: set[int], order: list[int]) -> None:
    visited.add(bid)
    for succ in cfg.successors(bid):
        if succ != EXIT and succ not in visited:
            _postorder(cfg, succ, visited, order)
    order.append(bid)


def _has_cycle(cfg: ThreadCFG) -> bool:
    return bool(cfg.blocks) and _reaches_back(cfg, 0, {})


def _reaches_back(cfg: ThreadCFG, bid: int, state: dict[int, int]) -> bool:
    """True when a back edge is reachable from ``bid``.  ``state``: 1 = on
    the stack, 2 = done."""
    state[bid] = 1
    for succ in cfg.successors(bid):
        if succ == EXIT:
            continue
        mark = state.get(succ)
        if mark == 1:
            return True
        if mark is None and _reaches_back(cfg, succ, state):
            return True
    state[bid] = 2
    return False
