"""Coverage-guided, resumable fuzzing campaigns.

The PR 5 fuzzer is *blind*: every program is an independent draw, and a
nightly run restarts from scratch.  This module turns ``repro fuzz``
into a campaign that **learns** and **accumulates**:

* **Coverage grid** — every checked program contributes cells of an
  (edge-kind × model × exhaustion-reason × oracle-outcome) grid.  Edge
  kinds are syntactic features of the program (adjacent memory-op pairs
  like ``St.rel>Ld``, fence flavors, register-addressed accesses);
  the model axis is the model of each enumeration an oracle ran
  (``weak``, ``tso``, …); the reason
  axis is ``complete`` or the :class:`~repro.core.enumerate.ExhaustionReason`;
  the outcome axis is ``<oracle>:<ok|skip|fail>``.
* **Guided generation** — programs that hit *new* grid cells enter a
  mutation corpus.  Future draws preferentially mutate rare-cell corpus
  entries (via the PR 5 shrink reducers plus amplifying operators:
  fence insertion of every kind, acquire/release toggles, value bumps),
  pick fresh profiles by observed novelty yield, and prune duplicate
  programs through the exact set of program digests already checked
  *before* any enumeration budget is spent on them.
* **Campaign state** — grid, corpus, seen digests, RNG cursor, and spent budget
  persist in a WAL-checkpointed directory
  (``state.json`` + ``campaign.wal``), so a killed or nightly-restarted
  campaign resumes exactly where it stopped and budget accumulates
  across runs instead of restarting.

Determinism contract (what the tests and the fuzzcov benchmark gate pin):

* feedback folds in only at **batch boundaries**, and planning a batch
  is a pure function of the committed state — so verdicts, the grid,
  and the corpus are identical for any ``--jobs`` value;
* every batch commits atomically (one fsynced WAL record), batch
  windows align to fixed multiples of the batch size, and per-slot
  RNG is derived from ``(campaign seed, index)`` — so a campaign killed
  at *any* point and resumed reproduces the uninterrupted campaign's
  grid and corpus byte-for-byte (a kill loses only unacknowledged
  whole windows).  Explicit ``budget`` slicing reproduces the
  uninterrupted run exactly when each slice is a multiple of the batch
  size; an odd slice commits a short window whose feedback folds one
  window early, and the next run realigns to the fixed grid;
* nothing in planning or folding consults the clock, the PID, or
  ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path
from typing import ClassVar

from repro.errors import ReproError
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble
from repro.isa.instructions import Fence, FenceKind, Load, Rmw, Store
from repro.isa.operands import Const, Reg
from repro.isa.program import Program, Thread
from repro.service.wal import WriteAheadLog, replay_wal
from repro.storage import atomic_write, checksum
from repro.testing.fuzz import CampaignReport, run_campaign
from repro.testing.fuzzgen import (
    MIXED,
    MIXED_ORDER,
    PROFILES,
    derive_seed,
    generate_program,
    get_profile,
    profile_for_index,
)
from repro.testing.oracles import (
    FUZZ_LIMITS,
    ORACLES,
    OracleContext,
    get_oracle,
    run_oracles,
)
from repro.testing.shrink import reduction_candidates

#: One grid cell: (edge kind, coverage label, exhaustion reason, outcome).
Cell = tuple[str, str, str, str]

STATE_FILE = "state.json"
WAL_FILE = "campaign.wal"
CORPUS_SUBDIR = "corpus"

DEFAULT_BATCH_SIZE = 12
MUTATE_RATE = 0.45  #: chance a slot's first attempts mutate a corpus entry
CORPUS_LIMIT = 256  #: mutation-corpus entries kept per campaign

#: Format 2: the seen-program set is an exact sorted list of digest
#: prefixes (format 1 held a bloom filter).  Format 3: the config no
#: longer carries the mutation rate and corpus limit (both constants).
_STATE_FORMAT = 3
_PLAN_ATTEMPTS = 6  #: dedup retries per slot before accepting a duplicate
_MUTANT_ATTEMPTS = 3  #: of those, how many may draw from the corpus
_CHECKPOINT_EVERY = 4  #: batches between state.json checkpoints
_SEEN_PREFIX = 8  #: bytes of a program digest kept in the seen set
_EXPLORE_EVERY = 3  #: fresh-draw indices forced onto the round-robin


# ---------------------------------------------------------------------------
# edge kinds and cells


def _tag(instruction) -> str | None:
    """The edge-kind tag of one instruction; ``None`` for non-memory ops."""
    if isinstance(instruction, Load):
        tag = "Ld.acq" if instruction.acquire else "Ld"
        if isinstance(instruction.addr, Reg):
            tag += "@r"
        return tag
    if isinstance(instruction, Store):
        tag = "St.rel" if instruction.release else "St"
        if isinstance(instruction.addr, Reg):
            tag += "@r"
        return tag
    if isinstance(instruction, Rmw):
        tag = f"Rmw.{instruction.kind.value}"
        if instruction.acquire:
            tag += ".a"
        if instruction.release:
            tag += ".r"
        if isinstance(instruction.addr, Reg):
            tag += "@r"
        return tag
    if isinstance(instruction, Fence):
        return f"F.{instruction.kind.value}"
    return None


def program_edge_kinds(program: Program) -> frozenset[str]:
    """The syntactic coverage features of ``program``: every memory-op
    tag, every *adjacent* (by memory program order) tag pair rendered as
    ``a>b``, plus a ``branch`` marker for control flow.  Purely a
    function of the instruction stream — no enumeration needed, so the
    grid axis is free to compute and stable under replay."""
    kinds: set[str] = set()
    for thread in program.threads:
        tags = [tag for tag in map(_tag, thread.code) if tag is not None]
        kinds.update(tags)
        kinds.update(f"{a}>{b}" for a, b in zip(tags, tags[1:]))
    if program.has_branches():
        kinds.add("branch")
    return frozenset(kinds)


def verdict_cells(
    program: Program,
    reasons: dict[str, str],
    statuses: dict[str, str],
) -> frozenset[Cell]:
    """The grid cells one checked program contributes.

    ``reasons`` is :meth:`OracleContext.enumeration_reasons` after the
    oracles ran; ``statuses`` maps each selected oracle name to
    ``ok``/``skip``/``fail``.  An oracle contributes cells only for the
    coverage labels it *touches* and that actually enumerated — an
    oracle that skipped before enumerating adds nothing.
    """
    kinds = program_edge_kinds(program)
    cells: set[Cell] = set()
    for oracle_name, status in statuses.items():
        outcome = f"{oracle_name}:{status}"
        for label in get_oracle(oracle_name).touches:
            reason = reasons.get(label)
            if reason is None:
                continue
            for kind in kinds:
                cells.add((kind, label, reason, outcome))
    return frozenset(cells)


# ---------------------------------------------------------------------------
# the coverage grid


@dataclass
class CoverageGrid:
    """Hit counts over the 4-dimensional coverage grid."""

    cells: dict[Cell, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.cells)

    def add(self, cells) -> frozenset[Cell]:
        """Count one program's cells; returns the cells seen for the
        first time (the novelty signal that admits corpus entries)."""
        new = set()
        for cell in cells:
            if cell not in self.cells:
                new.add(cell)
            self.cells[cell] = self.cells.get(cell, 0) + 1
        return frozenset(new)

    def merge(self, other: "CoverageGrid") -> None:
        for cell, count in other.cells.items():
            self.cells[cell] = self.cells.get(cell, 0) + count

    def project(self, axes: tuple[int, ...] = (0, 1, 2)) -> frozenset[tuple]:
        """The distinct cells projected onto ``axes`` — the benchmark
        gate compares the default (edge-kind × model × reason)
        projection, which ignores the oracle-outcome axis."""
        return frozenset(tuple(cell[a] for a in axes) for cell in self.cells)

    def axis_values(self, axis: int) -> tuple[str, ...]:
        return tuple(sorted({cell[axis] for cell in self.cells}))

    def min_count(self, cells) -> int:
        """The rarest hit count among ``cells`` (0 when unseen) — the
        rarity weight used to pick corpus entries for mutation."""
        counts = [self.cells.get(cell, 0) for cell in cells]
        return min(counts) if counts else 0

    def is_superset_of(self, other: "CoverageGrid") -> bool:
        """Cell-set containment (counts ignored) — the nightly
        monotonicity gate: a restored campaign's grid must never
        shrink."""
        return set(other.cells) <= set(self.cells)

    def to_json(self) -> dict:
        return {
            "cells": sorted([*cell, count] for cell, count in self.cells.items())
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CoverageGrid":
        grid = cls()
        for entry in payload["cells"]:
            kind, label, reason, outcome, count = entry
            grid.cells[(str(kind), str(label), str(reason), str(outcome))] = int(count)
        return grid


# ---------------------------------------------------------------------------
# program identity


def program_digest(program: Program) -> str:
    """Content digest of a program *modulo its name* — two draws with
    identical threads and initial memory dedup even though the generator
    names them after their seeds."""
    lines = disassemble(program).splitlines()
    if lines and lines[0].startswith("test "):
        lines = lines[1:]
    body = "\n".join(lines)
    return hashlib.blake2b(body.encode("utf-8"), digest_size=16).hexdigest()


def _seen_key(digest: str) -> bytes:
    """The seen-set entry of a :func:`program_digest`."""
    return bytes.fromhex(digest)[:_SEEN_PREFIX]


def model_tables_digest(digest_size: int = 16) -> str:
    """Canonical digest of every registered model's full semantic
    content (reordering table, bypass and speculation flags).  The
    nightly workflow keys its campaign-state cache on this: changing a
    model definition invalidates accumulated coverage rather than
    resuming a grid measured under different semantics."""
    from repro.models.registry import all_models

    payload = [
        {
            "name": model.name,
            "store_load_bypass": bool(model.store_load_bypass),
            "speculative_aliasing": bool(model.speculative_aliasing),
            "table": sorted(
                (first.value, second.value, int(requirement))
                for (first, second), requirement in model.table.entries.items()
            ),
        }
        for model in all_models()
    ]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=digest_size).hexdigest()


# ---------------------------------------------------------------------------
# mutation operators


def _replace_instruction(thread: Thread, position: int, instruction) -> Thread | None:
    code = thread.code[:position] + (instruction,) + thread.code[position + 1 :]
    try:
        return Thread(thread.name, code, dict(thread.labels))
    except Exception:
        return None


def _insert_instruction(thread: Thread, position: int, instruction) -> Thread | None:
    code = thread.code[:position] + (instruction,) + thread.code[position:]
    labels = {
        label: index + 1 if index >= position else index
        for label, index in thread.labels.items()
    }
    try:
        return Thread(thread.name, code, labels)
    except Exception:
        return None


def _rebuild(program: Program, tindex: int, thread: Thread | None) -> Program | None:
    if thread is None:
        return None
    threads = program.threads[:tindex] + (thread,) + program.threads[tindex + 1 :]
    try:
        return Program(threads, dict(program.initial_memory), program.name)
    except Exception:
        return None


def _amplified(program: Program):
    """Amplifying mutations — the complement of the shrink reducers.
    Each either widens an instruction's ordering annotations, inserts a
    fence, or perturbs a stored value; all preserve well-typedness by
    construction (invalid rebuilds are dropped)."""
    for tindex, thread in enumerate(program.threads):
        for position, instruction in enumerate(thread.code):
            variants = []
            if isinstance(instruction, Load):
                variants.append(dc_replace(instruction, acquire=not instruction.acquire))
            elif isinstance(instruction, Store):
                variants.append(dc_replace(instruction, release=not instruction.release))
                value = instruction.value
                if isinstance(value, Const) and isinstance(value.value, int) and 0 <= value.value < 8:
                    variants.append(dc_replace(instruction, value=Const(value.value + 1)))
            elif isinstance(instruction, Rmw):
                variants.append(dc_replace(instruction, acquire=not instruction.acquire))
                variants.append(dc_replace(instruction, release=not instruction.release))
            elif isinstance(instruction, Fence):
                variants.extend(
                    Fence(kind) for kind in FenceKind if kind is not instruction.kind
                )
            for variant in variants:
                candidate = _rebuild(
                    program, tindex, _replace_instruction(thread, position, variant)
                )
                if candidate is not None:
                    yield candidate
    for tindex, thread in enumerate(program.threads):
        for position in range(len(thread.code) + 1):
            for kind in FenceKind:
                candidate = _rebuild(
                    program, tindex, _insert_instruction(thread, position, Fence(kind))
                )
                if candidate is not None:
                    yield candidate


def mutation_candidates(program: Program) -> list[Program]:
    """Every one-step neighbor of ``program``, in a fixed deterministic
    order: the PR 5 shrink reducers first (drop threads/spans, simplify,
    drop initial memory), then the amplifiers."""
    return [*reduction_candidates(program), *_amplified(program)]


# ---------------------------------------------------------------------------
# campaign state


@dataclass(frozen=True)
class CampaignConfig:
    """The parameters a campaign directory is pinned to.  Planning is a
    function of these plus the folded state, so resuming under different
    parameters would silently change history — :func:`open_campaign`
    refuses instead."""

    seed: int
    profile: str = MIXED
    oracles: tuple[str, ...] | None = None
    batch_size: int = DEFAULT_BATCH_SIZE
    tables: str = ""

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "oracles": list(self.oracles) if self.oracles is not None else None,
            "batch_size": self.batch_size,
            "tables": self.tables,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CampaignConfig":
        oracles = payload["oracles"]
        return cls(
            seed=int(payload["seed"]),
            profile=str(payload["profile"]),
            oracles=tuple(oracles) if oracles is not None else None,
            batch_size=int(payload["batch_size"]),
            tables=str(payload["tables"]),
        )


@dataclass(frozen=True)
class CorpusRecord:
    """One mutation-corpus entry: a program that hit new grid cells."""

    index: int
    seed: int
    profile: str
    source: str  #: ``fresh`` or ``mutant``
    digest: str
    program: str  #: disassembly text (self-contained — no file dependency)
    new_cells: tuple[Cell, ...]

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "profile": self.profile,
            "source": self.source,
            "digest": self.digest,
            "program": self.program,
            "new_cells": [list(cell) for cell in self.new_cells],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CorpusRecord":
        return cls(
            index=int(payload["index"]),
            seed=int(payload["seed"]),
            profile=str(payload["profile"]),
            source=str(payload["source"]),
            digest=str(payload["digest"]),
            program=str(payload["program"]),
            new_cells=tuple(
                (str(k), str(m), str(r), str(o)) for k, m, r, o in payload["new_cells"]
            ),
        )


@dataclass
class CampaignState:
    """Everything a campaign has learned, fold-deterministic.

    The same committed batches folded in the same order always produce
    the same state — whether they arrive live or from WAL replay after a
    crash.  ``next_index`` doubles as the fold cursor: a WAL record
    whose ``start`` is behind it has already been folded into the last
    checkpoint and is skipped.
    """

    config: CampaignConfig
    next_index: int = 0
    budget_spent: int = 0
    discrepancies: int = 0
    grid: CoverageGrid = field(default_factory=CoverageGrid)
    corpus: list[CorpusRecord] = field(default_factory=list)
    #: ``_SEEN_PREFIX``-byte prefixes of every checked program's digest.
    seen: set[bytes] = field(default_factory=set)
    #: per-profile (programs checked, new cells yielded) — the bandit's
    #: evidence for picking fresh-draw profiles.
    profile_programs: dict[str, int] = field(default_factory=dict)
    profile_novelty: dict[str, int] = field(default_factory=dict)


_state_crc = checksum


def save_state(state: CampaignState, campaign_dir: Path) -> Path:
    """Atomically checkpoint ``state`` to ``<dir>/state.json``."""
    campaign_dir = Path(campaign_dir)
    campaign_dir.mkdir(parents=True, exist_ok=True)
    body = {
        "format": _STATE_FORMAT,
        "config": state.config.to_json(),
        "next_index": state.next_index,
        "budget_spent": state.budget_spent,
        "discrepancies": state.discrepancies,
        "grid": state.grid.to_json(),
        "corpus": [record.to_json() for record in state.corpus],
        "profiles": {
            name: [
                state.profile_programs.get(name, 0),
                state.profile_novelty.get(name, 0),
            ]
            for name in sorted(
                set(state.profile_programs) | set(state.profile_novelty)
            )
        },
        "seen": sorted(prefix.hex() for prefix in state.seen),
    }
    payload = dict(body)
    payload["crc"] = _state_crc(body)
    path = campaign_dir / STATE_FILE
    atomic_write(path, json.dumps(payload, sort_keys=True).encode("utf-8"), fsync=True)
    return path


def load_state(campaign_dir: Path) -> CampaignState | None:
    """The last checkpoint, validated; ``None`` when the directory has
    no campaign yet.  Raises :class:`~repro.errors.ReproError` on a
    damaged checkpoint — coverage accounting must never silently trust
    or silently discard corrupt state."""
    path = Path(campaign_dir) / STATE_FILE
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ReproError(f"campaign state {path} is unreadable: {exc}") from exc
    try:
        crc = payload.pop("crc")
    except (KeyError, AttributeError):
        raise ReproError(f"campaign state {path} is malformed (no crc)") from None
    if _state_crc(payload) != crc:
        raise ReproError(f"campaign state {path} failed its checksum")
    if payload.get("format") != _STATE_FORMAT:
        raise ReproError(
            f"campaign state {path} has unsupported format {payload.get('format')!r}"
        )
    state = CampaignState(
        config=CampaignConfig.from_json(payload["config"]),
        next_index=int(payload["next_index"]),
        budget_spent=int(payload["budget_spent"]),
        discrepancies=int(payload["discrepancies"]),
        grid=CoverageGrid.from_json(payload["grid"]),
        corpus=[CorpusRecord.from_json(entry) for entry in payload["corpus"]],
        seen={bytes.fromhex(prefix) for prefix in payload["seen"]},
    )
    for name, (programs, novelty) in payload["profiles"].items():
        state.profile_programs[name] = int(programs)
        state.profile_novelty[name] = int(novelty)
    return state


def _fold_batch(state: CampaignState, items: list[dict]) -> frozenset[Cell]:
    """Apply one committed batch to the state, in index order.  This is
    the *only* mutation path — live runs and WAL replay both go through
    it, so they cannot diverge.  Returns the newly-hit cells."""
    new_cells: set[Cell] = set()
    for item in items:
        cells = frozenset(
            (str(k), str(m), str(r), str(o)) for k, m, r, o in item["cells"]
        )
        state.budget_spent += 1
        state.next_index = int(item["index"]) + 1
        state.discrepancies += int(item["fails"])
        profile = str(item["profile"])
        state.profile_programs[profile] = state.profile_programs.get(profile, 0) + 1
        new = state.grid.add(cells)
        new_cells |= new
        state.profile_novelty[profile] = state.profile_novelty.get(profile, 0) + len(new)
        state.seen.add(_seen_key(item["digest"]))
        if new and len(state.corpus) < CORPUS_LIMIT:
            state.corpus.append(
                CorpusRecord(
                    index=int(item["index"]),
                    seed=int(item["seed"]),
                    profile=profile,
                    source=str(item["source"]),
                    digest=str(item["digest"]),
                    program=str(item["text"]),
                    new_cells=tuple(sorted(new)),
                )
            )
    return frozenset(new_cells)


def load_campaign(campaign_dir: Path) -> CampaignState | None:
    """Checkpoint + WAL fold: the campaign's current state, including
    batches committed after the last ``state.json`` checkpoint."""
    state = load_state(campaign_dir)
    if state is None:
        return None
    for record in replay_wal(Path(campaign_dir) / WAL_FILE):
        if record.event == "batch" and int(record.data.get("start", -1)) == state.next_index:
            _fold_batch(state, record.data["items"])
    return state


def open_campaign(
    campaign_dir: Path, config: CampaignConfig, *, resume: bool
) -> CampaignState:
    """Load-or-create the campaign in ``campaign_dir``.

    A fresh directory starts a new campaign (checkpointed immediately so
    the directory is marked).  An existing campaign requires
    ``resume=True`` — continuing one by accident would silently append
    history — and its pinned config (seed, profile, oracle set, batch
    size) must match exactly, as must the
    :func:`model_tables_digest` (resuming a grid measured under edited
    model semantics would compare incomparable coverage).
    """
    state = load_campaign(campaign_dir)
    if state is None:
        state = CampaignState(config=config)
        save_state(state, campaign_dir)
        return state
    if not resume:
        raise ReproError(
            f"{campaign_dir} already holds a campaign "
            f"({state.budget_spent} programs spent); pass --resume to continue it"
        )
    if state.config.tables != config.tables:
        raise ReproError(
            f"{campaign_dir} was measured under different model tables "
            f"({state.config.tables} vs {config.tables}); the model definitions "
            f"changed — start a fresh campaign directory"
        )
    if dc_replace(state.config, tables="") != dc_replace(config, tables=""):
        raise ReproError(
            f"campaign config mismatch for {campaign_dir}: stored "
            f"{state.config.to_json()} vs requested {config.to_json()}; "
            f"planning is pinned to the original parameters"
        )
    return state


# ---------------------------------------------------------------------------
# guided planning


@dataclass(frozen=True)
class PlannedProgram:
    """One deterministic slot of a guided batch."""

    index: int
    seed: int
    profile: str
    source: str  #: ``fresh`` or ``mutant``
    text: str | None  #: mutant disassembly; ``None`` regenerates from seed
    digest: str


def _fresh_profile(state: CampaignState, index: int):
    """The bandit: fresh draws go to the profile with the best observed
    new-cells-per-program yield, with every ``_EXPLORE_EVERY``-th index
    forced onto the plain round-robin so no profile starves.  Entirely
    deterministic — ties break in :data:`MIXED_ORDER` order."""
    if state.config.profile != MIXED:
        return get_profile(state.config.profile)
    if state.budget_spent == 0:
        return profile_for_index(MIXED, index)
    if index % _EXPLORE_EVERY == 0:
        # Divide the index first: consecutive exploration slots walk the
        # whole MIXED_ORDER cycle (indices divisible by 3 taken mod 6
        # would only ever reach two of the six profiles).
        return profile_for_index(MIXED, index // _EXPLORE_EVERY)
    best_name, best_score = MIXED_ORDER[0], -1.0
    for name in MIXED_ORDER:
        score = (state.profile_novelty.get(name, 0) + 1.0) / (
            state.profile_programs.get(name, 0) + 1.0
        )
        if score > best_score:
            best_name, best_score = name, score
    return PROFILES[best_name]


def _pick_corpus_record(state: CampaignState, rng: random.Random) -> CorpusRecord:
    """Rarity-weighted corpus draw: entries whose novel cells are still
    rare in the grid are the most promising mutation parents."""
    weights = [
        1.0 / (1.0 + state.grid.min_count(record.new_cells))
        for record in state.corpus
    ]
    return rng.choices(state.corpus, weights=weights, k=1)[0]


def _pick_mutant(
    state: CampaignState, candidates: list[Program], rng: random.Random
) -> Program:
    """Novelty-targeted candidate choice: prefer (uniformly among) the
    mutants introducing the most edge kinds the grid has never seen —
    each genuinely new kind multiplies into a fresh cell per coverage
    label.  When no candidate adds a new kind, fall back to a uniform
    draw (perturbing reasons/outcomes can still pay)."""
    known = {cell[0] for cell in state.grid.cells}
    scores = [len(program_edge_kinds(c) - known) for c in candidates]
    best = max(scores)
    if best > 0:
        pool = [i for i, score in enumerate(scores) if score == best]
        return candidates[pool[rng.randrange(len(pool))]]
    return candidates[rng.randrange(len(candidates))]


def plan_batch(state: CampaignState, count: int) -> list[PlannedProgram]:
    """The next ``count`` slots, as a pure function of the committed
    state.  Each slot retries up to ``_PLAN_ATTEMPTS`` candidates whose
    digest the campaign (or this batch) has already seen — dedup pruning
    *before* enumeration — and accepts the last candidate unconditionally
    so a program space the campaign has exhausted degrades to blind
    generation, never to a stall."""
    planned: list[PlannedProgram] = []
    local: set[str] = set()
    for slot in range(count):
        index = state.next_index + slot
        rng = random.Random(repr((state.config.seed, "guided", index)))
        chosen: PlannedProgram | None = None
        for attempt in range(_PLAN_ATTEMPTS):
            program = None
            source = "fresh"
            text = None
            profile_name = None
            pseed = derive_seed(state.config.seed, index * _PLAN_ATTEMPTS + attempt)
            if (
                state.corpus
                and attempt < _MUTANT_ATTEMPTS
                and rng.random() < MUTATE_RATE
            ):
                record = _pick_corpus_record(state, rng)
                try:
                    parent = assemble(record.program).program
                    candidates = mutation_candidates(parent)
                except Exception:
                    candidates = []
                if candidates:
                    program = _pick_mutant(state, candidates, rng)
                    source = "mutant"
                    text = disassemble(program)
                    profile_name = record.profile
                    pseed = record.seed
            if program is None:
                profile = _fresh_profile(state, index)
                profile_name = profile.name
                program = generate_program(pseed, profile)
            digest = program_digest(program)
            last = attempt == _PLAN_ATTEMPTS - 1
            if last or (digest not in local and _seen_key(digest) not in state.seen):
                chosen = PlannedProgram(index, pseed, profile_name, source, text, digest)
                break
        assert chosen is not None
        local.add(chosen.digest)
        planned.append(chosen)
    return planned


# ---------------------------------------------------------------------------
# the work unit


def guided_one(item: tuple) -> dict:
    """The picklable fuzz work unit of every driver (the blind stream,
    the guided campaign, the mutation hunt, :func:`blind_grid`):
    ``(index, seed, profile, source, text | None, digest, oracle_names |
    None, cache_dir | None)`` → a verdict dict carrying the program's
    text, grid cells, oracle statuses, and (for the driver only — never
    the WAL) its discrepancies and skips."""
    index, seed, profile_name, source, text, digest, oracle_names, cache_dir = item
    cache = None
    if cache_dir is not None:
        from repro.cache import BehaviorCache

        # One shared instance per worker process, so its LRU survives
        # across programs; entries land on disk as they are stored, so
        # enumeration budget accumulates across campaigns.
        cache = BehaviorCache.shared(cache_dir)
    if text is not None:
        program = assemble(text).program
    else:
        program = generate_program(seed, get_profile(profile_name))
    context = OracleContext(program, FUZZ_LIMITS, cache=cache)
    discrepancies, skipped = run_oracles(
        program, names=oracle_names, limits=FUZZ_LIMITS, cache=cache, context=context
    )
    selected = (
        tuple(oracle.name for oracle in ORACLES)
        if oracle_names is None
        else tuple(oracle_names)
    )
    failed = {d.oracle for d in discrepancies}
    statuses = {
        name: "fail" if name in failed else "skip" if name in skipped else "ok"
        for name in selected
    }
    cells = verdict_cells(program, context.enumeration_reasons(), statuses)
    return {
        "index": index,
        "seed": seed,
        "profile": profile_name,
        "source": source,
        "digest": digest,
        "text": disassemble(program),
        "cells": sorted(list(cell) for cell in cells),
        "fails": len(discrepancies),
        "discrepancies": tuple(discrepancies),
        "skipped": tuple(skipped),
    }


_WAL_ITEM_KEYS = ("index", "seed", "profile", "source", "digest", "text", "cells", "fails")


# ---------------------------------------------------------------------------
# the campaign driver


@dataclass(kw_only=True)
class GuidedReport(CampaignReport):
    """What one guided run did (this run's slice of the campaign)."""

    note_suffix: ClassVar[str] = " (guided campaign)"

    campaign_dir: Path
    resumed_from: int  #: budget already spent when this run started
    new_cells: int = 0
    state: CampaignState | None = None

    def summary(self) -> str:
        state = self.state
        mutants = sum(1 for v in self.verdicts if v["source"] == "mutant")
        return self._render(
            f"guided campaign {self.campaign_dir}: seed={self.seed} "
            f"budget=+{self.budget} profile={self.profile}",
            f" ({mutants} mutated; campaign total {state.budget_spent})",
            (
                f"  grid cells       : {len(state.grid)} (+{self.new_cells} this run)",
                f"  3-dim cells      : {len(state.grid.project())} (edge × model × reason)",
                f"  mutation corpus  : {len(state.corpus)} / {CORPUS_LIMIT} entries",
            ),
        )


def _export_corpus_files(state: CampaignState, campaign_dir: Path) -> None:
    """Mirror the mutation corpus as replayable ``.litmus`` files under
    ``<dir>/corpus/`` — a human-inspectable convenience view; the
    authoritative copy lives inside the checkpoint, so a crash between
    the two writes at worst leaves this directory one checkpoint stale."""
    from repro.testing.corpus import CorpusEntry, save_entry

    directory = Path(campaign_dir) / CORPUS_SUBDIR
    for record in state.corpus:
        try:
            program = assemble(record.program).program
        except Exception:
            continue
        entry = CorpusEntry(
            program=program,
            seed=record.seed,
            profile=record.profile,
            note=f"campaign {record.source} draw {record.index}",
            cells="; ".join("|".join(cell) for cell in record.new_cells),
        )
        save_entry(entry, directory)


def run_guided_campaign(
    campaign_dir: Path,
    seed: int,
    budget: int,
    profile: str = MIXED,
    jobs: int = 1,
    oracle_names: tuple[str, ...] | None = None,
    cache_dir: Path | None = None,
    corpus_dir: Path | None = None,
    do_shrink: bool = True,
    resume: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> GuidedReport:
    """Add ``budget`` programs to the campaign in ``campaign_dir``.

    ``budget`` is *incremental*: each run appends that many programs to
    whatever the campaign has accumulated, which is how nightly budget
    adds up across runs.  Every batch commits as one fsynced WAL record
    before it is folded, so a ``kill -9`` at any moment loses at most
    in-flight (never acknowledged) work, and the resumed campaign is
    byte-identical to an uninterrupted one of the same total budget.
    """
    from repro.experiments.base import parallel_map

    if profile != MIXED:
        get_profile(profile)
    config = CampaignConfig(
        seed=seed,
        profile=profile,
        oracles=tuple(oracle_names) if oracle_names is not None else None,
        batch_size=batch_size,
        tables=model_tables_digest(),
    )
    campaign_dir = Path(campaign_dir)
    state = open_campaign(campaign_dir, config, resume=resume)
    report = GuidedReport(
        campaign_dir=campaign_dir,
        seed=seed,
        budget=budget,
        profile=profile,
        resumed_from=state.budget_spent,
    )
    wal = WriteAheadLog(campaign_dir / WAL_FILE, fsync=True)
    try:
        done = 0
        batches = 0
        new_cells: set[Cell] = set()
        while done < budget:
            # Batch windows align to *absolute* multiples of the batch
            # size, not to where this particular run happened to start:
            # a run whose budget was not a multiple of the batch size
            # commits a short window, and the next run first completes
            # that window before returning to the fixed grid.  Feedback
            # therefore folds at the same indices regardless of how the
            # total budget was sliced into runs — provided every slice
            # is a multiple of the batch size (which kill -9 resumes
            # always satisfy, because only whole windows ever commit).
            size = state.config.batch_size
            count = min(size - state.next_index % size, budget - done)
            planned = plan_batch(state, count)
            items = [
                (p.index, p.seed, p.profile, p.source, p.text, p.digest,
                 state.config.oracles, cache_dir)
                for p in planned
            ]
            if jobs > 1:
                results = list(parallel_map(guided_one, items, jobs=jobs))
            else:
                results = [guided_one(item) for item in items]
            wal_items = [{key: r[key] for key in _WAL_ITEM_KEYS} for r in results]
            wal.append(
                "batch",
                f"batch-{state.next_index}",
                {"start": state.next_index, "items": wal_items},
            )
            new_cells |= _fold_batch(state, wal_items)
            report.verdicts.extend(results)
            done += count
            batches += 1
            if batches % _CHECKPOINT_EVERY == 0:
                save_state(state, campaign_dir)
                wal.rewrite([])
                _export_corpus_files(state, campaign_dir)
        save_state(state, campaign_dir)
        wal.rewrite([])
        _export_corpus_files(state, campaign_dir)
    finally:
        wal.close()
    report.new_cells = len(new_cells)
    report.state = state
    if do_shrink:
        report.bank_minimized(corpus_dir)
    return report


# ---------------------------------------------------------------------------
# the blind baseline (what the benchmark compares against)


def blind_grid(
    seed: int,
    budget: int,
    oracle_names: tuple[str, ...] | None = None,
    profile: str = MIXED,
) -> CoverageGrid:
    """The coverage grid of the *stateless* fuzz stream — exactly the
    programs ``repro fuzz --seed S --budget N`` checks, scored on the
    same grid.  The fuzzcov gate in ``benchmarks/gates.py`` requires
    guided coverage strictly above this at equal budget."""
    grid = CoverageGrid()
    stream = run_campaign(seed, budget, profile, oracle_names=oracle_names, do_shrink=False)
    for verdict in stream.verdicts:
        grid.add(tuple(cell) for cell in verdict["cells"])
    return grid


# ---------------------------------------------------------------------------
# reporting


def coverage_report(campaign_dir: Path) -> str:
    """The human-readable grid report behind ``repro fuzz coverage DIR``."""
    state = load_campaign(campaign_dir)
    if state is None:
        raise ReproError(f"no campaign state under {campaign_dir}")
    config = state.config
    oracles = "all" if config.oracles is None else ",".join(config.oracles)
    lines = [
        f"campaign {campaign_dir}",
        f"  config       : seed={config.seed} profile={config.profile} "
        f"oracles={oracles} batch={config.batch_size} "
        f"mutate-rate={MUTATE_RATE}",
        f"  model tables : {config.tables}",
        f"  budget spent : {state.budget_spent} (next index {state.next_index})",
        f"  discrepancies: {state.discrepancies}",
        f"  grid cells   : {len(state.grid)} (edge-kind × model × reason × outcome)",
        f"  3-dim cells  : {len(state.grid.project())} (edge-kind × model × reason)",
        f"  axes         : {len(state.grid.axis_values(0))} edge kinds, "
        f"{len(state.grid.axis_values(1))} models, "
        f"{len(state.grid.axis_values(2))} reasons, "
        f"{len(state.grid.axis_values(3))} outcomes",
        f"  corpus       : {len(state.corpus)} / {CORPUS_LIMIT} entries",
        "  profile yield (programs / new cells):",
    ]
    for name in MIXED_ORDER:
        programs = state.profile_programs.get(name, 0)
        novelty = state.profile_novelty.get(name, 0)
        if programs or novelty:
            lines.append(f"    {name:10s} {programs} / {novelty}")
    return "\n".join(lines)


__all__ = [
    "Cell",
    "CampaignConfig",
    "CampaignState",
    "CorpusRecord",
    "CoverageGrid",
    "CORPUS_LIMIT",
    "DEFAULT_BATCH_SIZE",
    "GuidedReport",
    "MUTATE_RATE",
    "PlannedProgram",
    "blind_grid",
    "coverage_report",
    "guided_one",
    "load_campaign",
    "load_state",
    "model_tables_digest",
    "mutation_candidates",
    "open_campaign",
    "plan_batch",
    "program_digest",
    "program_edge_kinds",
    "run_guided_campaign",
    "save_state",
    "verdict_cells",
]
