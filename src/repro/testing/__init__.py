"""Testing support: fault injection, differential fuzzing, mutation kill.

* :mod:`repro.testing.faults` — deterministic fault injection for the
  enumeration engine's degradation paths.
* :mod:`repro.testing.fuzzgen` — seeded random program generator with
  weighted profiles (register addressing, RMWs, branches, fences).
* :mod:`repro.testing.oracles` — N-way differential oracles across the
  repo's independent implementations.
* :mod:`repro.testing.shrink` — delta-debugging counterexample minimizer.
* :mod:`repro.testing.corpus` — replayable ``tests/corpus/`` file format.
* :mod:`repro.testing.mutants` — seeded bugs for mutation-kill proofs.
* :mod:`repro.testing.coverage` — the one fuzz work unit
  (:func:`~repro.testing.coverage.guided_one` and its verdict dict),
  the coverage grid, and the resumable guided campaign.
* :mod:`repro.testing.fuzz` — the blind stream, the mutation hunt, the
  one report and shrink path, and corpus replay behind ``repro fuzz``.
"""

from repro.testing.corpus import CorpusEntry, load_corpus, load_entry, save_entry
from repro.testing.faults import (
    FaultInjector,
    FaultStats,
    InjectedAtomicityViolation,
    InjectedCycleError,
    InjectedMemoryError,
    inject_faults,
)
from repro.testing.fuzz import (
    CampaignReport,
    MutantKill,
    run_campaign,
    run_mutation_kill,
)
from repro.testing.fuzzgen import PROFILES, FuzzProfile, generate_program, iter_programs
from repro.testing.mutants import MUTANTS, Mutant, get_mutant
from repro.testing.oracles import ORACLES, Discrepancy, Oracle, run_oracles
from repro.testing.shrink import ShrinkResult, shrink

__all__ = [
    "CampaignReport",
    "CorpusEntry",
    "Discrepancy",
    "FaultInjector",
    "FaultStats",
    "FuzzProfile",
    "InjectedAtomicityViolation",
    "InjectedCycleError",
    "InjectedMemoryError",
    "MUTANTS",
    "Mutant",
    "MutantKill",
    "ORACLES",
    "Oracle",
    "PROFILES",
    "ShrinkResult",
    "generate_program",
    "get_mutant",
    "inject_faults",
    "iter_programs",
    "load_corpus",
    "load_entry",
    "run_campaign",
    "run_mutation_kill",
    "run_oracles",
    "save_entry",
    "shrink",
]
