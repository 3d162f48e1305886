"""Seeded random program generation for differential fuzzing.

The cycle generator (:mod:`repro.litmus.generator`) only emits plain
loads and stores along a critical cycle; this generator covers the rest
of the ISA — acquire/release accesses, RMWs, fences of every kind,
ALU dependency chains, forward branches, and **register-computed
addresses** — the inputs that exercise the dataflow facts and
speculation paths none of the litmus library reaches.

Every generated program is *well-typed by construction* so that each of
the repository's independent implementations can execute it:

* Memory locations are partitioned into **data locations** (only ever
  hold integers) and **pointer locations** (only ever hold the name of a
  data location).  Initial values respect the partition, and so does
  every generated store.
* A register is tracked as a *data register* (holds an int on every
  path) or a *pointer register* (holds a data-location name on every
  path).  Only pointer registers are used as addresses; only data
  registers feed the ALU, branch conditions, and stored values.
* Pointer registers defined inside a branch arm are not used after the
  join point (the arm may be skipped, and an unwritten register reads
  as integer 0 — not an address).
* Branches only jump forward, so every program terminates under any
  reordering and the enumeration node budget is never the limiting
  factor.
* Destination registers are always fresh, so a register's type never
  changes over the thread.

Generation is driven by a :class:`FuzzProfile` of weights; the same
``(seed, profile)`` pair always produces the same program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import ReproError
from repro.isa.dsl import ProgramBuilder, ThreadBuilder
from repro.isa.instructions import FenceKind, RmwKind
from repro.isa.operands import Reg
from repro.isa.program import Program

#: ALU operations safe on arbitrary integers (no division by zero).
_SAFE_ALU = ("add", "sub", "mul", "xor", "and", "or", "eq", "ne", "lt", "ge")


@dataclass(frozen=True)
class FuzzProfile:
    """Weights and shape bounds for one family of random programs.

    ``weights`` maps op kinds (``store``, ``load``, ``compute``,
    ``fence``, ``branch``, ``rmw``, ``ptrstore``) to relative
    frequencies; zero/absent kinds are never emitted.  ``ptrstore``
    re-points a pointer location at another data location mid-run, which
    is what makes register-computed addresses genuinely dynamic.
    """

    name: str
    description: str = ""
    threads: tuple[int, int] = (2, 3)
    ops_per_thread: tuple[int, int] = (2, 5)
    data_locations: tuple[str, ...] = ("x", "y", "z")
    pointer_locations: tuple[str, ...] = ()
    weights: Mapping[str, float] = field(
        default_factory=lambda: {"store": 4, "load": 4, "compute": 1, "fence": 1}
    )
    acqrel_rate: float = 0.0  #: P(acquire/release annotation) per load/store/RMW
    register_addr_rate: float = 0.0  #: P(register address) per memory op
    fence_kinds: tuple[FenceKind, ...] = (FenceKind.FULL,)
    rmw_kinds: tuple[RmwKind, ...] = (
        RmwKind.CAS,
        RmwKind.EXCHANGE,
        RmwKind.FETCH_ADD,
    )
    max_const: int = 3  #: stored data values are drawn from 1..max_const


PROFILES: dict[str, FuzzProfile] = {
    profile.name: profile
    for profile in (
        FuzzProfile(
            name="default",
            description="a bit of everything: fences, RMWs, branches, "
            "register addresses, acquire/release",
            threads=(2, 3),
            ops_per_thread=(2, 5),
            pointer_locations=("p", "q"),
            weights={
                "store": 4,
                "load": 4,
                "compute": 1.5,
                "fence": 1,
                "branch": 1,
                "rmw": 1,
                "ptrstore": 0.5,
            },
            acqrel_rate=0.15,
            register_addr_rate=0.25,
            fence_kinds=tuple(FenceKind),
        ),
        FuzzProfile(
            name="relaxed",
            description="plain loads/stores over few locations — the "
            "classic litmus soup, maximal reordering surface",
            threads=(2, 3),
            ops_per_thread=(2, 4),
            data_locations=("x", "y"),
            weights={"store": 5, "load": 5},
        ),
        FuzzProfile(
            name="dataflow",
            description="ALU chains and register-computed addresses — "
            "targets the PR 3 alias analysis and the solver encoding",
            threads=(2, 3),
            ops_per_thread=(3, 6),
            pointer_locations=("p", "q"),
            weights={
                "store": 3,
                "load": 4,
                "compute": 4,
                "ptrstore": 1.5,
                "fence": 0.5,
            },
            register_addr_rate=0.6,
        ),
        FuzzProfile(
            name="branchy",
            description="forward branches guarding stores and loads — "
            "targets speculation and control-dependency handling",
            threads=(2, 3),
            ops_per_thread=(3, 6),
            pointer_locations=("p",),
            weights={
                "store": 4,
                "load": 4,
                "compute": 2,
                "branch": 3,
                "fence": 0.5,
            },
            register_addr_rate=0.2,
        ),
        FuzzProfile(
            name="rmw",
            description="atomics-heavy: CAS/exchange/fetch-add with "
            "acquire-release annotations (lock-shaped programs)",
            threads=(2, 3),
            ops_per_thread=(2, 5),
            data_locations=("x", "y", "l"),
            weights={"store": 2, "load": 3, "rmw": 4, "compute": 1, "fence": 0.5},
            acqrel_rate=0.3,
        ),
        FuzzProfile(
            name="fences",
            description="densely fenced loads/stores of every fence kind "
            "— targets the Store Atomicity closure (rule c needs "
            "enforced program order to matter)",
            threads=(2, 3),
            ops_per_thread=(2, 5),
            data_locations=("x", "y"),
            weights={"store": 4, "load": 4, "fence": 3},
            acqrel_rate=0.2,
            fence_kinds=tuple(FenceKind),
        ),
    )
}

#: The pseudo-profile that cycles deterministically through every real
#: profile — the default for fuzzing campaigns.
MIXED = "mixed"

#: The fixed round-robin order :data:`MIXED` cycles through — also the
#: deterministic tie-break order of the coverage-guided profile bandit
#: (:mod:`repro.testing.coverage`).
MIXED_ORDER = ("relaxed", "default", "dataflow", "branchy", "rmw", "fences")
_MIXED_ORDER = MIXED_ORDER


def derive_seed(seed: int, index: int) -> int:
    """The per-program seed of the ``index``-th draw of a campaign.

    A pure function of ``(seed, index)``, so any slicing of a campaign —
    chunked workers, interrupted-and-resumed runs, guided replanning —
    regenerates exactly the same program for a given index.
    """
    return (seed * 1_000_003 + index) & 0x7FFFFFFF


def get_profile(name: str) -> FuzzProfile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES) + [MIXED])
        raise ReproError(
            f"unknown fuzz profile {name!r}; known profiles: {known}"
        ) from None


def profile_for_index(name: str, index: int) -> FuzzProfile:
    """Resolve the profile for the ``index``-th program of a campaign —
    constant for a real profile, round-robin for :data:`MIXED`."""
    if name == MIXED:
        return PROFILES[_MIXED_ORDER[index % len(_MIXED_ORDER)]]
    return get_profile(name)


class _ThreadGen:
    """Generation state for one thread: typed register pools."""

    def __init__(self, builder: ThreadBuilder, rng: random.Random, profile: FuzzProfile):
        self.builder = builder
        self.rng = rng
        self.profile = profile
        self.data_regs: list[str] = []
        self.pointer_regs: list[str] = []
        self.reg_counter = 0
        self.label_counter = 0

    def fresh_reg(self) -> str:
        self.reg_counter += 1
        return f"r{self.reg_counter}"

    def fresh_label(self) -> str:
        self.label_counter += 1
        return f"L{self.label_counter}"

    # -- operand pickers ------------------------------------------------

    def address(self) -> object:
        """A store/load/RMW address: a data-location constant, or a
        pointer register when the profile asks for register addressing."""
        rng, profile = self.rng, self.profile
        if self.pointer_regs and rng.random() < profile.register_addr_rate:
            return Reg(rng.choice(self.pointer_regs))
        return rng.choice(profile.data_locations)

    def data_value(self) -> object:
        """An integer-typed value: a small constant or a data register."""
        rng = self.rng
        if self.data_regs and rng.random() < 0.4:
            return rng.choice(self.data_regs)
        return rng.randint(1, self.profile.max_const)


def _emit_op(state: _ThreadGen, kind: str) -> None:
    """Emit one instruction of the chosen kind."""
    rng, profile, thread = state.rng, state.profile, state.builder
    if kind == "store":
        thread.store(
            state.address(),
            state.data_value(),
            release=rng.random() < profile.acqrel_rate,
        )
    elif kind == "load":
        dst = state.fresh_reg()
        thread.load(dst, state.address(), acquire=rng.random() < profile.acqrel_rate)
        state.data_regs.append(dst)
    elif kind == "compute":
        dst = state.fresh_reg()
        op = rng.choice(_SAFE_ALU)
        args = [state.data_value() for _ in range(2)]
        thread.compute(dst, op, *args)
        state.data_regs.append(dst)
    elif kind == "fence":
        thread.fence(rng.choice(profile.fence_kinds))
    elif kind == "rmw":
        dst = state.fresh_reg()
        rmw_kind = rng.choice(profile.rmw_kinds)
        acquire = rng.random() < profile.acqrel_rate
        release = rng.random() < profile.acqrel_rate
        addr = state.address()
        if rmw_kind is RmwKind.CAS:
            # Expect 0 or 1 so that success and failure are both live.
            thread.cas(dst, addr, rng.randint(0, 1), state.data_value(),
                       acquire=acquire, release=release)
        elif rmw_kind is RmwKind.EXCHANGE:
            thread.xchg(dst, addr, state.data_value(), acquire=acquire, release=release)
        else:
            thread.fetch_add(dst, addr, rng.randint(1, profile.max_const),
                             acquire=acquire, release=release)
        state.data_regs.append(dst)
    elif kind == "ptrstore":
        # Re-point a pointer location at a (possibly different) data
        # location — keeps the pointer/data partition intact.
        thread.store(
            rng.choice(profile.pointer_locations),
            rng.choice(profile.data_locations),
        )
    else:  # pragma: no cover - _pick_kind only returns known kinds
        raise ReproError(f"unknown op kind {kind!r}")


def _pick_kind(state: _ThreadGen, *, allow_branch: bool) -> str:
    profile, rng = state.profile, state.rng
    kinds, weights = [], []
    for kind, weight in profile.weights.items():
        if weight <= 0:
            continue
        if kind == "branch" and not allow_branch:
            continue
        if kind == "ptrstore" and not profile.pointer_locations:
            continue
        kinds.append(kind)
        weights.append(weight)
    return rng.choices(kinds, weights)[0]


def _emit_pointer_setup(state: _ThreadGen) -> int:
    """Seed the thread's pointer registers: a direct ``mov`` of a data
    location and/or a load from a pointer location.  Returns the number
    of instructions emitted."""
    rng, profile, thread = state.rng, state.profile, state.builder
    emitted = 0
    reg = state.fresh_reg()
    thread.mov(reg, rng.choice(profile.data_locations))
    state.pointer_regs.append(reg)
    emitted += 1
    if profile.pointer_locations and rng.random() < 0.7:
        reg = state.fresh_reg()
        thread.load(reg, rng.choice(profile.pointer_locations))
        state.pointer_regs.append(reg)
        emitted += 1
    return emitted


def _emit_branch(state: _ThreadGen, budget: int) -> int:
    """Emit a forward conditional branch skipping 1..3 ops; returns the
    number of instructions consumed (branch + guarded body)."""
    rng, thread = state.rng, state.builder
    body = rng.randint(1, max(1, min(3, budget - 1)))
    if state.data_regs and rng.random() < 0.8:
        cond = rng.choice(state.data_regs)
    else:
        cond = state.fresh_reg()
        thread.compute(cond, "eq", state.data_value(), rng.randint(0, 1))
        state.data_regs.append(cond)
        body = max(1, body - 1)
    label = state.fresh_label()
    if rng.random() < 0.5:
        thread.beqz(cond, label)
    else:
        thread.bnez(cond, label)
    # Pointer registers defined in the (skippable) arm must not escape.
    outer_pointers = list(state.pointer_regs)
    for _ in range(body):
        _emit_op(state, _pick_kind(state, allow_branch=False))
    state.pointer_regs = outer_pointers
    thread.label(label)
    return body + 1


def generate_program(seed: int, profile: FuzzProfile | str = "default") -> Program:
    """The deterministic random program for ``(seed, profile)``."""
    if isinstance(profile, str):
        profile = get_profile(profile)
    rng = random.Random((seed, profile.name).__repr__())
    builder = ProgramBuilder(f"fz-{profile.name}-{seed}")

    # Pointer locations start out pointing at a data location each.
    for pointer in profile.pointer_locations:
        builder.init(pointer, rng.choice(profile.data_locations))
    # Occasionally give a data location a non-zero initial value.
    for location in profile.data_locations:
        if rng.random() < 0.2:
            builder.init(location, rng.randint(1, profile.max_const))

    needs_pointers = profile.register_addr_rate > 0
    for _ in range(rng.randint(*profile.threads)):
        state = _ThreadGen(builder.thread(), rng, profile)
        budget = rng.randint(*profile.ops_per_thread)
        if needs_pointers:
            budget = max(budget - _emit_pointer_setup(state), 1)
        while budget > 0:
            kind = _pick_kind(state, allow_branch=budget >= 2)
            if kind == "branch":
                budget -= _emit_branch(state, budget)
            else:
                _emit_op(state, kind)
                budget -= 1
    return builder.build()


def iter_programs(
    seed: int, count: int, profile: str = MIXED
) -> Iterator[tuple[int, str, Program]]:
    """The campaign stream: ``count`` programs derived from ``seed``.

    Yields ``(derived_seed, profile_name, program)``; the derivation is
    independent of chunking, so a parallel campaign sees exactly the
    same programs as a sequential one.
    """
    for index in range(count):
        derived = derive_seed(seed, index)
        resolved = profile_for_index(profile, index)
        yield derived, resolved.name, generate_program(derived, resolved)


__all__ = [
    "FuzzProfile",
    "PROFILES",
    "MIXED",
    "MIXED_ORDER",
    "derive_seed",
    "get_profile",
    "profile_for_index",
    "generate_program",
    "iter_programs",
]
