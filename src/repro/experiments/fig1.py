"""FIG1 — the Weak Reordering Axioms table (paper Figure 1).

Renders the reordering table of any model in the paper's format and
checks that the WEAK model's entries match Figure 1 exactly:

* three ``x ≠ y`` entries: (L, S), (S, L), (S, S),
* ``never`` for Branch → Store,
* fences order all prior/subsequent Loads and Stores,
* Load → Load is unconstrained (same-address loads may reorder).
"""

from __future__ import annotations

from repro.isa.instructions import OpClass
from repro.models.base import MemoryModel, OrderRequirement
from repro.models.registry import get_model
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "FIG1"

_COLUMNS = (OpClass.COMPUTE, OpClass.BRANCH, OpClass.LOAD, OpClass.STORE, OpClass.FENCE)
_HEADINGS = {"compute": "+, etc.", "branch": "Branch", "load": "L x", "store": "S x,v", "fence": "Fence"}
_ROW_HEADINGS = {"compute": "+, etc.", "branch": "Branch", "load": "L y", "store": "S y,w", "fence": "Fence"}
_CELL = {
    OrderRequirement.NONE: "",
    OrderRequirement.SAME_ADDRESS: "x != y",
    OrderRequirement.ALWAYS: "never",
}


def render_table(model: MemoryModel) -> str:
    """The model's reordering table in the paper's tabular format."""
    width = 10
    header = "1st\\2nd".ljust(width) + "".join(
        _HEADINGS[c.value].ljust(width) for c in _COLUMNS
    )
    lines = [f"Reordering axioms for model {model.name!r}:", header, "-" * len(header)]
    for first in _COLUMNS:
        row = _ROW_HEADINGS[first.value].ljust(width)
        for second in _COLUMNS:
            row += _CELL[model.class_requirement(first, second)].ljust(width)
        lines.append(row)
    return "\n".join(lines)


def run() -> ExperimentResult:
    result = ExperimentResult(EXPERIMENT_ID, "Weak Reordering Axioms table")
    weak = get_model("weak")

    same_address_entries = [
        (first, second)
        for first in _COLUMNS
        for second in _COLUMNS
        if weak.class_requirement(first, second) is OrderRequirement.SAME_ADDRESS
    ]
    result.claim(
        "the three x!=y entries are exactly (L,S), (S,L), (S,S)",
        sorted([("load", "store"), ("store", "load"), ("store", "store")]),
        sorted((f.value, s.value) for f, s in same_address_entries),
    )
    result.claim(
        "Branch->Store is 'never' (stores wait for branch resolution)",
        OrderRequirement.ALWAYS,
        weak.class_requirement(OpClass.BRANCH, OpClass.STORE),
    )
    result.claim(
        "Load->Load is unconstrained (same-address loads may reorder)",
        OrderRequirement.NONE,
        weak.class_requirement(OpClass.LOAD, OpClass.LOAD),
    )
    fence_claims = all(
        weak.class_requirement(cls, OpClass.FENCE) is OrderRequirement.ALWAYS
        and weak.class_requirement(OpClass.FENCE, cls) is OrderRequirement.ALWAYS
        for cls in (OpClass.LOAD, OpClass.STORE)
    )
    result.claim("fences order all prior/subsequent Loads and Stores", True, fence_claims)
    result.claim(
        "ALU and Branch rows impose no table orderings beyond dependencies",
        True,
        all(
            weak.class_requirement(OpClass.COMPUTE, second) is OrderRequirement.NONE
            for second in _COLUMNS
            if second is not OpClass.FENCE
        )
        and weak.class_requirement(OpClass.BRANCH, OpClass.LOAD) is OrderRequirement.NONE,
    )

    result.details = "\n\n".join(
        render_table(get_model(name)) for name in ("weak", "sc", "tso", "pso")
    )
    return result
