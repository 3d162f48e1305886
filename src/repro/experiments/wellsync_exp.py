"""TAB-WSYNC — the well-synchronization discipline (paper §8).

    "a program is well synchronized if for every load of a
    non-synchronization variable there is exactly one eligible store
    which can provide its value according to Store Atomicity"

Checks three programs under WEAK:

* fence-free MP — racy (the data load has two eligible stores),
* MP guarded by flag + branch + fence — well synchronized,
* the branch-guarded variant *without* the reader-side fence — racy
  again, because WEAK has no control-to-load ordering (a subtle point
  the discipline surfaces).
"""

from __future__ import annotations

from repro.analysis.wellsync import check_well_synchronized
from repro.isa.dsl import ProgramBuilder
from repro.litmus.library import get_test
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-WSYNC"


def build_guarded_mp(reader_fence: bool):
    """MP whose reader only touches x after seeing flag=1 (and, optionally,
    a fence between the guard and the data load)."""
    suffix = "" if reader_fence else "-nofence"
    builder = ProgramBuilder(f"MP-guarded{suffix}")
    writer = builder.thread("P0")
    writer.store("x", 1)
    writer.fence()
    writer.store("flag", 1)
    reader = builder.thread("P1")
    reader.load("r1", "flag")
    reader.beqz("r1", "skip")
    if reader_fence:
        reader.fence()
    reader.load("r2", "x")
    reader.label("skip")
    return builder.build()


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Well-synchronization discipline")
    sync = {"flag"}

    racy = check_well_synchronized(get_test("MP").program, "weak", sync)
    result.claim("fence-free MP is racy under WEAK", False, racy.well_synchronized)

    guarded = check_well_synchronized(build_guarded_mp(reader_fence=True), "weak", sync)
    result.claim(
        "flag-guarded MP with a reader fence is well synchronized",
        True,
        guarded.well_synchronized,
    )

    unfenced = check_well_synchronized(build_guarded_mp(reader_fence=False), "weak", sync)
    result.claim(
        "dropping the reader fence reintroduces the race (WEAK has no "
        "control-to-load ordering)",
        False,
        unfenced.well_synchronized,
    )

    lock = check_well_synchronized(get_test("CAS-lock").program, "weak", {"l"})
    result.claim(
        "the CAS lock protects its critical counter (well synchronized "
        "with l as the sync location)",
        True,
        lock.well_synchronized,
    )

    result.details = "\n\n".join(
        report.summary() for report in (racy, guarded, unfenced, lock)
    )
    return result
