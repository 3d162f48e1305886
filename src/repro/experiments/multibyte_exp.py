"""TAB-MIXEDSIZE — mixed-size accesses and single-copy atomicity (§8).

The paper's conclusion notes that real machines access memory at many
granularities and that "a faithful model can potentially match a Load up
with several Store operations, each providing a portion of the data
being read", adding that none of this is hard to capture.  This
experiment captures it by desugaring wide accesses into byte cells:

* a racing 2-byte store/load pair can **tear** — the load observes
  0x0001 or 0x0100, half-new values no single store ever wrote —
  under plain desugaring, even on Sequential Consistency;
* wrapping each wide access in an atomic block (the TM machinery)
  restores single-copy atomicity: only 0x0000 and 0x0101 remain;
* a wide load can merge bytes written by *different* stores — a byte
  store into the middle of a word is visible in the recombined value —
  which is precisely the multi-source matching the paper describes;
* byte-cell accesses still obey the memory model: the tearing program's
  byte-level behaviors under WEAK form a superset of SC's.
"""

from __future__ import annotations

from repro.core.enumerate import enumerate_behaviors
from repro.models.registry import get_model
from repro.multibyte import MultibyteBuilder
from repro.tm import enumerate_transactional
from repro.experiments.base import ExperimentResult

EXPERIMENT_ID = "TAB-MIXEDSIZE"


def build_tearing():
    builder = MultibyteBuilder("tear")
    writer = builder.thread("W")
    writer.wide_store("x", 0x0101, 2)
    reader = builder.thread("R")
    reader.wide_load("r9", "x", 2)
    return builder.build()


def build_merge():
    """A word write, then a racing byte write into the low cell; the wide
    load may combine bytes from the two different stores."""
    builder = MultibyteBuilder("merge")
    builder.init_wide("x", 0x0000, 2)
    word_writer = builder.thread("W")
    word_writer.wide_store("x", 0x0201, 2)
    byte_writer = builder.thread("B")
    byte_writer.byte_store("x", 0, 0xFF)
    reader = builder.thread("R")
    reader.wide_load("r9", "x", 2)
    return builder.build()


def _wide_values(executions, register=("R", "r9")):
    return {execution.final_registers()[register] for execution in executions}


def run() -> ExperimentResult:
    result = ExperimentResult(
        EXPERIMENT_ID, "Mixed-size accesses: tearing and multi-source loads"
    )

    program, blocks = build_tearing()
    plain = enumerate_behaviors(program, get_model("sc"))
    result.claim(
        "plain byte desugaring tears even under SC (half-written values "
        "0x0001 and 0x0100 observable)",
        {0x0000, 0x0001, 0x0100, 0x0101},
        _wide_values(plain.executions),
    )

    atomic = enumerate_transactional(program, blocks, "sc")
    result.claim(
        "single-copy atomicity (atomic blocks) eliminates tearing",
        {0x0000, 0x0101},
        _wide_values(atomic.executions),
    )
    result.claim(
        "the torn executions were rejected, not merely unobserved",
        True,
        atomic.rejected > 0,
    )

    weak = enumerate_behaviors(program, get_model("weak"))
    result.claim(
        "byte cells obey the model: WEAK behaviors ⊇ SC behaviors",
        True,
        plain.register_outcomes() <= weak.register_outcomes(),
    )

    merge_program, merge_blocks = build_merge()
    merged = enumerate_transactional(merge_program, merge_blocks, "sc")
    values = _wide_values(merged.executions)
    result.claim(
        "a wide load can combine bytes from different stores "
        "(0x02FF = high byte from the word store, low byte from the byte store)",
        True,
        0x02FF in values,
    )
    result.claim(
        "word-store atomicity still holds in the merge program "
        "(no half-word 0x0001-style tear of the wide store ... 0x0201 intact)",
        True,
        0x0201 in values and 0x0001 not in values,
    )

    result.details = (
        f"tearing program: plain values {sorted(_wide_values(plain.executions))}, "
        f"atomic values {sorted(_wide_values(atomic.executions))}\n"
        f"merge program values: {sorted(values)}"
    )
    return result
