"""Static analysis: answers without enumeration.

This package predicts ordering facts directly from a program's conflict
graph and a model's :class:`~repro.models.base.ReorderingTable` — the
Shasha & Snir observation the paper leans on in §7: only program-order
edges involved in potential critical cycles must be enforced.

* :mod:`repro.analysis.static.cfg` — per-thread basic-block CFGs.
* :mod:`repro.analysis.static.dataflow` — forward dataflow over those
  CFGs: reaching definitions, constant propagation, address analysis
  (:class:`StaticFacts`), shared static-access collection.
* :mod:`repro.analysis.static.conflict` — the conflict-graph /
  critical-cycle analyzer: statically-predicted races, required delay
  edges per model, suggested fence sites, and the §5
  :func:`speculation_safety` classification of alias-speculable loads.
* :mod:`repro.analysis.static.modellint` — the model-spec linter:
  soundness audits of reordering tables (coherence, SC-containment,
  RMW expansion, fence power) and the static containment lattice
  between registered models.
* :mod:`repro.analysis.static.fencerepair` — minimal fence repair as
  an exact weighted set cover of the delay edges (full fences plus
  table-priced acquire/release upgrades), byte-identical to the
  enumerative ``synthesize_fences(..., target="robust")`` on exact
  programs.
* :mod:`repro.analysis.static.robustness` — SC-robustness certificates
  and SC ⊆ TSO ⊆ PSO ⊆ WEAK portability verdicts, with conservative
  degradation on over-approximated programs.

Every verdict here is an *over-approximation* of the enumerator's
dynamic answer; the TAB-STATIC and TAB-DATAFLOW experiments
cross-validate the two on the whole litmus library (soundness asserted,
precision reported).
"""

from repro.analysis.static.cfg import EXIT, BasicBlock, ThreadCFG, build_cfg
from repro.analysis.static.conflict import (
    DelayEdge,
    LoadSpeculationVerdict,
    RacePrediction,
    SpeculationReport,
    StaticAccess,
    StaticReport,
    analyze_program,
    speculation_safety,
)
from repro.analysis.static.dataflow import (
    AccessFacts,
    MemoryAccessSite,
    StaticFacts,
    ThreadFacts,
    collect_memory_accesses,
    compute_static_facts,
    describe_facts,
)
from repro.analysis.static.fencerepair import (
    FenceRepairResult,
    RepairAction,
    UpgradeRepairResult,
    apply_repairs,
    repair_fences,
    repair_upgrades,
)
from repro.analysis.static.modellint import (
    ModelLintFinding,
    canonical_chain_findings,
    effective_requirement,
    lint_all_models,
    lint_model,
    statically_contained,
)
from repro.analysis.static.robustness import (
    LATTICE,
    PortabilityReport,
    PortabilityStep,
    RobustnessCertificate,
    certify_robustness,
    check_portability,
)

__all__ = [
    "EXIT",
    "BasicBlock",
    "ThreadCFG",
    "build_cfg",
    "AccessFacts",
    "MemoryAccessSite",
    "StaticFacts",
    "ThreadFacts",
    "collect_memory_accesses",
    "compute_static_facts",
    "describe_facts",
    "DelayEdge",
    "LoadSpeculationVerdict",
    "RacePrediction",
    "SpeculationReport",
    "StaticAccess",
    "StaticReport",
    "analyze_program",
    "speculation_safety",
    "ModelLintFinding",
    "canonical_chain_findings",
    "effective_requirement",
    "lint_all_models",
    "lint_model",
    "statically_contained",
    "FenceRepairResult",
    "RepairAction",
    "UpgradeRepairResult",
    "apply_repairs",
    "repair_fences",
    "repair_upgrades",
    "LATTICE",
    "PortabilityReport",
    "PortabilityStep",
    "RobustnessCertificate",
    "certify_robustness",
    "check_portability",
]
