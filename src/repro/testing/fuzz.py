"""Differential fuzzing campaigns: generate → check → shrink → bank.

Every fuzzed program, in every driver, goes through one work unit,
:func:`repro.testing.coverage.guided_one`, and comes back as one verdict
dict; a :class:`CampaignReport` summarizes a list of them, and
:meth:`CampaignReport.bank_minimized` is the one shrink path.  The
drivers differ only in which programs they feed the work unit:

* :func:`run_campaign` is the blind stream — ``budget`` seeded fresh
  draws (:func:`campaign_items`) through every applicable oracle,
  optionally fanned out over processes with
  :func:`repro.experiments.base.parallel_map`.  It is deterministic: the
  same ``(seed, budget, profile)`` produces the same programs, verdicts,
  and skip lists, regardless of ``jobs`` (enumeration budgets are
  counting budgets; nothing consults the clock).
* :func:`~repro.testing.coverage.run_guided_campaign` plans its
  programs from coverage feedback and persists what it learned.
* :func:`run_mutation_kill` proves the subsystem can catch real bugs:
  every seeded :data:`~repro.testing.mutants.MUTANTS` entry must be
  detected within the budget, shrunk to a small reproducer, banked as a
  corpus file, and the file must replay — fail under the mutant, pass
  on the healthy tree.  Mutation campaigns always run in-process
  (``jobs=1``): monkeypatched mutants are invisible to subprocess
  workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from repro.errors import ReproError
from repro.experiments.base import parallel_map
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.testing.corpus import CorpusEntry, save_entry
from repro.testing.fuzzgen import MIXED, derive_seed, get_profile, profile_for_index
from repro.testing.mutants import MUTANTS, Mutant
from repro.testing.oracles import FUZZ_LIMITS, Discrepancy, run_oracles
from repro.testing.shrink import ShrinkResult, shrink

#: Oracles used during mutation campaigns.  Every seeded mutant is
#: killed by one of these; the costlier solver and fence-repair oracles
#: would add enumeration time without adding kills.
KILL_ORACLES: tuple[str, ...] = (
    "axiomatic-vs-sc",
    "axiomatic-vs-tso",
    "axiomatic-vs-pso",
    "axiomatic-vs-dataflow",
    "inclusion-chain",
    "static-vs-enumeration",
    "speculation-safety",
)


@dataclass
class CampaignReport:
    """Everything a fuzz run learned, in deterministic order: one
    :func:`~repro.testing.coverage.guided_one` verdict dict per program,
    in index order, and the minimized reproducers of its discrepancies."""

    seed: int
    budget: int
    profile: str
    verdicts: list[dict] = field(default_factory=list)
    minimized: list[tuple[Discrepancy, ShrinkResult, Path | None]] = field(
        default_factory=list
    )

    #: appended to the note of every reproducer this report banks
    note_suffix: ClassVar[str] = ""

    @property
    def discrepancies(self) -> list[Discrepancy]:
        return [d for verdict in self.verdicts for d in verdict["discrepancies"]]

    @property
    def clean(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        return self._render(
            f"fuzz campaign: seed={self.seed} budget={self.budget} "
            f"profile={self.profile}"
        )

    def _render(self, title: str, checked: str = "", extra: tuple[str, ...] = ()) -> str:
        """The summary lines every campaign prints, around a driver's
        own ``title``, programs-checked note and ``extra`` lines."""
        skip_counts: dict[str, int] = {}
        for verdict in self.verdicts:
            for name in verdict["skipped"]:
                skip_counts[name] = skip_counts.get(name, 0) + 1
        lines = [
            title,
            f"  programs checked : {len(self.verdicts)}{checked}",
            f"  discrepancies    : {len(self.discrepancies)}",
            *extra,
        ]
        for name, count in sorted(skip_counts.items()):
            lines.append(f"  skipped {name}: {count}")
        for discrepancy in self.discrepancies:
            lines.append(f"  FAIL {discrepancy}")
        for discrepancy, result, path in self.minimized:
            where = f" -> {path}" if path else ""
            lines.append(
                f"  minimized {discrepancy.program}: "
                f"{result.original_instructions} -> {result.instructions} "
                f"instructions{where}"
            )
        return "\n".join(lines)

    def bank_minimized(self, corpus_dir: Path | None) -> None:
        """Shrink every discrepancy and bank its reproducer in
        ``corpus_dir``, if given (see :func:`_shrink_and_bank`)."""
        for verdict in self.verdicts:
            for discrepancy in verdict["discrepancies"]:
                self.minimized.append(
                    _shrink_and_bank(
                        verdict, discrepancy, corpus_dir, note_suffix=self.note_suffix
                    )
                )


def campaign_items(
    seed: int,
    budget: int,
    profile: str = MIXED,
    oracle_names: tuple[str, ...] | None = None,
    cache_dir: Path | None = None,
) -> list[tuple]:
    """The blind stream's work list: one fresh
    :func:`~repro.testing.coverage.guided_one` item per index, seeded
    ``derive_seed(seed, index)`` (chunking-independent)."""
    return [
        (
            index, derive_seed(seed, index), profile_for_index(profile, index).name,
            "fresh", None, "", oracle_names, cache_dir,
        )
        for index in range(budget)
    ]


def run_campaign(
    seed: int,
    budget: int,
    profile: str = MIXED,
    jobs: int = 1,
    oracle_names: tuple[str, ...] | None = None,
    do_shrink: bool = True,
    corpus_dir: Path | None = None,
    cache_dir: Path | None = None,
) -> CampaignReport:
    """Fuzz ``budget`` programs; shrink and bank any counterexample.

    ``cache_dir`` opens a shared :class:`~repro.cache.store.BehaviorCache`
    in every worker, so baseline enumerations are paid once across
    oracles, repeat programs, and successive campaigns.  Verdicts are
    identical with and without it.
    """
    from repro.testing.coverage import guided_one

    if profile != MIXED:
        get_profile(profile)  # validate the name before spawning workers
    items = campaign_items(seed, budget, profile, oracle_names, cache_dir)
    report = CampaignReport(
        seed=seed,
        budget=budget,
        profile=profile,
        verdicts=parallel_map(guided_one, items, jobs=jobs),
    )
    if do_shrink:
        report.bank_minimized(corpus_dir)
    return report


def _shrink_and_bank(
    verdict: dict,
    discrepancy: Discrepancy,
    corpus_dir: Path | None,
    *,
    note_suffix: str = "",
    mutant: str | None = None,
) -> tuple[Discrepancy, ShrinkResult, Path | None]:
    """Minimize ``verdict``'s program against ``discrepancy``'s oracle
    and bank the reproducer as ``<name>-min`` in ``corpus_dir``, if
    given.  The one shrink path of the stream, the guided campaign and
    the mutation hunt."""
    program = assemble(verdict["text"]).program
    result = minimize_discrepancy(program, discrepancy)
    path = None
    if corpus_dir is not None:
        shrunk = result.program
        entry = CorpusEntry(
            program=Program(shrunk.threads, dict(shrunk.initial_memory), f"{program.name}-min"),
            seed=verdict["seed"],
            profile=verdict["profile"],
            oracle=discrepancy.oracle,
            mutant=mutant,
            note=f"minimized from {result.original_instructions} instructions"
            + note_suffix,
        )
        path = save_entry(entry, corpus_dir)
    return discrepancy, result, path


def minimize_discrepancy(program: Program, discrepancy: Discrepancy) -> ShrinkResult:
    """Shrink ``program`` while the same oracle keeps failing."""
    oracle_name = discrepancy.oracle

    def still_fails(candidate: Program) -> bool:
        found, _ = run_oracles(candidate, names=(oracle_name,), limits=FUZZ_LIMITS)
        return bool(found)

    return shrink(program, still_fails)


# ---------------------------------------------------------------------------
# mutation-kill harness


@dataclass
class MutantKill:
    """Outcome of hunting one seeded mutant."""

    mutant: str
    detected: bool
    programs_run: int
    oracle: str | None = None
    program_name: str | None = None
    seed: int | None = None
    profile: str | None = None
    shrink_result: ShrinkResult | None = None
    corpus_path: Path | None = None
    replay_fails_under_mutant: bool | None = None
    healthy_tree_clean: bool | None = None

    @property
    def reproducer_instructions(self) -> int | None:
        if self.shrink_result is None:
            return None
        return self.shrink_result.instructions

    def summary(self) -> str:
        if not self.detected:
            return f"  {self.mutant}: SURVIVED after {self.programs_run} programs"
        parts = [
            f"  {self.mutant}: killed by {self.oracle} on {self.program_name} "
            f"(program {self.programs_run})"
        ]
        if self.shrink_result is not None:
            parts.append(
                f"    shrunk {self.shrink_result.original_instructions} -> "
                f"{self.shrink_result.instructions} instructions"
            )
        if self.corpus_path is not None:
            parts.append(
                f"    banked {self.corpus_path} "
                f"(replay-under-mutant={'FAIL' if self.replay_fails_under_mutant else 'ok?!'}, "
                f"healthy={'clean' if self.healthy_tree_clean else 'DIRTY'})"
            )
        return "\n".join(parts)


def hunt_mutant(
    mutant: Mutant,
    seed: int,
    budget: int,
    profile: str = MIXED,
    do_shrink: bool = True,
    corpus_dir: Path | None = None,
) -> MutantKill:
    """Fuzz under ``mutant`` until an oracle fires, then shrink and bank.

    Deliberately cache-free: the mutant is a monkeypatched engine bug,
    invisible to the cache key, so a warm cache would replay healthy
    pre-mutant behaviors and mask the kill.
    """
    from repro.testing.coverage import guided_one

    items = campaign_items(seed, budget, profile, KILL_ORACLES)
    detection = None
    programs_run = 0
    with mutant.applied():
        for item in items:
            programs_run += 1
            verdict = guided_one(item)
            if verdict["discrepancies"]:
                detection = verdict
                break
        if detection is None:
            return MutantKill(mutant.name, detected=False, programs_run=programs_run)
        discrepancy = detection["discrepancies"][0]
        kill = MutantKill(
            mutant.name,
            detected=True,
            programs_run=programs_run,
            oracle=discrepancy.oracle,
            program_name=discrepancy.program,
            seed=detection["seed"],
            profile=detection["profile"],
        )
        if not do_shrink:
            return kill
        _, kill.shrink_result, kill.corpus_path = _shrink_and_bank(
            detection, discrepancy, corpus_dir, mutant=mutant.name
        )
        if kill.corpus_path is not None:
            kill.replay_fails_under_mutant = bool(
                replay_path(kill.corpus_path, mutated=True)[0]
            )
    # Outside the mutant: the reproducer must be clean on the healthy tree.
    if kill.corpus_path is not None:
        kill.healthy_tree_clean = not replay_path(kill.corpus_path, mutated=False)[0]
    return kill


def run_mutation_kill(
    seed: int,
    budget: int,
    profile: str = MIXED,
    mutants: tuple[Mutant, ...] = MUTANTS,
    do_shrink: bool = True,
    corpus_dir: Path | None = None,
) -> list[MutantKill]:
    return [
        hunt_mutant(mutant, seed, budget, profile, do_shrink, corpus_dir)
        for mutant in mutants
    ]


# ---------------------------------------------------------------------------
# corpus replay


def _replay_context_key(entry: CorpusEntry, active_mutant: str | None) -> tuple:
    """Memoization key for replay contexts: the program *content* plus
    the installed mutant (mutated enumerations must never be shared with
    healthy ones, or vice versa)."""
    import hashlib

    from repro.isa.disassembler import disassemble

    digest = hashlib.blake2b(
        disassemble(entry.program).encode("utf-8"), digest_size=16
    ).hexdigest()
    return (digest, active_mutant)


def replay_entry(
    entry: CorpusEntry,
    mutated: bool | None = None,
    context_cache: dict | None = None,
):
    """Replay one loaded corpus entry: returns ``(discrepancies, skipped)``.

    ``mutated=None`` honors the entry's recorded mutant (installed when
    present); ``True`` requires one; ``False`` replays on the healthy
    tree regardless.  Mutant entries replay only their recorded oracle —
    that is the property the file witnesses.

    ``context_cache`` memoizes one :class:`~repro.testing.oracles.OracleContext`
    per (program content, installed mutant) across a replay batch, so a
    corpus holding both a healthy and a mutant view of the same program
    (or the CLI replaying after a mutation hunt already enumerated it)
    never re-enumerates from scratch.
    """
    from repro.testing.mutants import get_mutant
    from repro.testing.oracles import OracleContext

    names = None
    if entry.mutant:
        names = (entry.oracle,) if entry.oracle else KILL_ORACLES
    if mutated is True and not entry.mutant:
        raise ReproError(f"{entry.path or entry.name}: entry records no mutant to install")
    active_mutant = entry.mutant if (entry.mutant and mutated is not False) else None
    context = None
    program = entry.program
    if context_cache is not None:
        key = _replay_context_key(entry, active_mutant)
        context = context_cache.get(key)
        if context is None:
            context = OracleContext(program, FUZZ_LIMITS)
            context_cache[key] = context
        else:
            # Two corpus files may hold identical programs; run against
            # the context's own program object so memoized enumerations
            # are shared.
            program = context.program
    if active_mutant:
        with get_mutant(active_mutant).applied():
            return run_oracles(
                program, names=names, limits=FUZZ_LIMITS, context=context
            )
    return run_oracles(program, names=names, limits=FUZZ_LIMITS, context=context)


def replay_path(path: Path, mutated: bool | None = None, context_cache: dict | None = None):
    """Load-and-replay one corpus file (see :func:`replay_entry`)."""
    from repro.testing.corpus import load_entry

    return replay_entry(load_entry(path), mutated=mutated, context_cache=context_cache)


def replay_paths(paths, mutated: bool | None = None):
    """Replay a corpus batch with a shared replay-context memo.

    Returns ``[(entry, discrepancies, skipped), ...]`` in input order.
    One enumeration context is derived per distinct (program, mutant)
    pair for the whole batch — replaying the full banked corpus costs
    each program's enumeration once, not once per oracle invocation.
    """
    from repro.testing.corpus import load_entry

    context_cache: dict = {}
    results = []
    for path in paths:
        entry = load_entry(path)
        discrepancies, skipped = replay_entry(
            entry, mutated=mutated, context_cache=context_cache
        )
        results.append((entry, discrepancies, skipped))
    return results


__all__ = [
    "KILL_ORACLES",
    "CampaignReport",
    "MutantKill",
    "campaign_items",
    "hunt_mutant",
    "minimize_discrepancy",
    "replay_entry",
    "replay_path",
    "replay_paths",
    "run_campaign",
    "run_mutation_kill",
]
