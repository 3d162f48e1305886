"""The well-synchronization discipline (paper Section 8).

    "We can say a program is well synchronized if for every load of a
    non-synchronization variable there is exactly one eligible store
    which can provide its value according to Store Atomicity."

The checker runs the enumerator's own search with a candidates hook
that records every load resolution point: a *violation* is a resolution
of a load of a non-synchronization location with more than one candidate
store (a race — the load's value depends on timing, not on
synchronization).  A
well-synchronized program behaves identically under any store-atomic
model, which is why such programs may run on much weaker memory systems
(the paper's generalization of Adve & Hill's Proper Synchronization).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.candidates import candidate_stores
from repro.core.enumerate import EnumerationLimits, EnumerationStats, _search
from repro.core.execution import Execution
from repro.core.node import Node
from repro.isa.program import Program
from repro.models.base import MemoryModel
from repro.models.registry import get_model


@dataclass(frozen=True)
class RaceReport:
    """One racy load resolution."""

    thread: str
    index: int  #: dynamic instruction index within the thread
    location: str
    candidate_count: int
    candidate_values: tuple

    def __str__(self) -> str:
        values = ", ".join(repr(v) for v in self.candidate_values)
        return (
            f"load of {self.location!r} at {self.thread}[{self.index}] has "
            f"{self.candidate_count} eligible stores (values: {values})"
        )


@dataclass
class WellSyncReport:
    """The verdict for one program under one model."""

    program_name: str
    model_name: str
    sync_locations: frozenset[str]
    races: list[RaceReport] = field(default_factory=list)
    resolutions_checked: int = 0

    @property
    def well_synchronized(self) -> bool:
        return not self.races

    def summary(self) -> str:
        verdict = "WELL SYNCHRONIZED" if self.well_synchronized else "RACY"
        lines = [
            f"{self.program_name} under {self.model_name} "
            f"(sync locations: {sorted(self.sync_locations) or 'none'}): {verdict} "
            f"({self.resolutions_checked} resolutions checked)"
        ]
        for race in self.races[:10]:
            lines.append(f"  race: {race}")
        if len(self.races) > 10:
            lines.append(f"  ... and {len(self.races) - 10} more")
        return "\n".join(lines)


def check_well_synchronized(
    program: Program,
    model: MemoryModel | str,
    sync_locations: frozenset[str] | set[str] = frozenset(),
    limits: EnumerationLimits | None = None,
) -> WellSyncReport:
    """Check the Section 8 discipline by exhaustive enumeration.

    ``sync_locations`` are the locations used for synchronization (flags,
    locks); loads of those may legitimately race.  Every other load must
    have exactly one candidate store at each of its resolution points, in
    every reachable behavior.
    Every budget in ``limits`` applies; one that runs out raises
    :class:`~repro.errors.EnumerationError`, never a verdict.
    """
    if isinstance(model, str):
        model = get_model(model)
    limits = limits or EnumerationLimits()
    sync = frozenset(sync_locations)
    report = WellSyncReport(program.name, model.name, sync)
    seen_races: set[tuple] = set()

    def checked_candidates(behavior: Execution, load: Node, stats) -> list[Node]:
        candidates = candidate_stores(behavior, load, stats)
        report.resolutions_checked += 1
        if load.addr not in sync and len(candidates) > 1:
            race_key = (load.tid, load.index, load.addr, len(candidates))
            if race_key not in seen_races:
                seen_races.add(race_key)
                report.races.append(
                    RaceReport(
                        thread=program.threads[load.tid].name,
                        index=load.index,
                        location=str(load.addr),
                        candidate_count=len(candidates),
                        candidate_values=tuple(s.stored for s in candidates),
                    )
                )
        return candidates

    initial = Execution.initial(program, model, limits.max_nodes_per_thread)
    _search(
        program, model, limits, dedup=True, strict=True, token=None,
        worklist=[initial], seen_states={initial.dedup_digest()}, finished={},
        stats=EnumerationStats(), candidates=checked_candidates,
    )
    return report
