"""The four workloads, one per user path of the engine.

Each workload builds its inputs from the seed, runs its loop, checks every
output against the pinned references, and reports the end-to-end metrics
(untraced) or the per-layer metrics (traced).  A phase runs the loop once:
untraced for the window, traced for a fixed number of passes (so exact
counts repeat between runs).  :func:`run_workload` runs an untraced phase
and, when tracing, a traced one after it.

Timings are scaled to reference speed with the probes of
:mod:`perfbench.speed`, run between operations in the process that times
them; the detail line keeps the raw numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench import references
from perfbench.speed import Speed
from perfbench.stats import latency_summary, quantile
from perfbench.tracer import (
    ENGINE_TARGETS,
    ORACLE_PREFIX,
    Tracer,
    load_spans,
    seconds_under,
    summarize,
    write_spans,
)

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
OUT = HERE / "out"

WORKLOADS = ("enum-large", "library-solve", "fuzz-campaign", "service-mixed")

#: (name, unit, better) of every end-to-end metric; BENCHMARK.json adds
#: the bounds.
E2E = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
)

#: The fuzz oracles at this commit, one per-layer time each.
ORACLE_NAMES = (
    "axiomatic-vs-sc", "axiomatic-vs-tso", "axiomatic-vs-pso", "axiomatic-vs-dataflow",
    "sequential-vs-parallel", "pruned-vs-unpruned", "solver-vs-axiomatic", "inclusion-chain",
    "static-vs-enumeration", "speculation-safety", "static-fence-repair",
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    ("core.enumerate.calls", "count", "lower"),
    ("core.enumerate.self_s", "s", "lower"),
    ("core.enumerate.explored", "count", "lower"),
    ("core.enumerate.useful_ratio", "ratio", "higher"),
    ("core.atomicity.close.calls", "count", "lower"),
    ("core.atomicity.close.s", "s", "lower"),
    ("core.atomicity.close.share", "ratio", "lower"),
    ("core.execution.copy.calls", "count", "lower"),
    ("core.execution.copy.s", "s", "lower"),
    ("core.execution.state_key.calls", "count", "lower"),
    ("core.execution.state_key.s", "s", "lower"),
    ("core.execution.loadstore_key.calls", "count", "lower"),
    ("core.execution.loadstore_key.s", "s", "lower"),
    ("core.execution.resolve_load.self_s", "s", "lower"),
    ("core.execution.stabilize.self_s", "s", "lower"),
    ("core.execution.eligible_loads.s", "s", "lower"),
    ("core.candidates.calls", "count", "lower"),
    ("core.candidates.s", "s", "lower"),
    ("core.candidates.scanned", "count", "lower"),
    ("solver.encode.calls", "count", "lower"),
    ("solver.encode.s", "s", "lower"),
    ("solver.sat.solve.calls", "count", "lower"),
    ("solver.sat.solve.s", "s", "lower"),
    ("solver.proposals", "count", "lower"),
    ("solver.conflicts", "count", "lower"),
    ("solver.useful_ratio", "ratio", "higher"),
    ("solver.materialize.s", "s", "lower"),
    ("cache.lookup.calls", "count", "lower"),
    ("cache.lookup.s", "s", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.store.calls", "count", "lower"),
    ("cache.store.s", "s", "lower"),
    ("testing.fuzzgen.s", "s", "lower"),
    ("testing.oracles.s", "s", "lower"),
    *((f"{ORACLE_PREFIX}{name}.s", "s", "lower") for name in ORACLE_NAMES),
    ("testing.oracles.skip_ratio", "ratio", "lower"),
    ("testing.coverage.new_cells", "count", "higher"),
    ("testing.campaign.wal_append.calls", "count", "lower"),
    ("testing.campaign.wal_append.s", "s", "lower"),
    ("operational.run_sc.s", "s", "lower"),
    ("operational.run_store_buffer.s", "s", "lower"),
    ("operational.run_dataflow.s", "s", "lower"),
    ("static.compute_static_facts.s", "s", "lower"),
    ("static.analyze_program.s", "s", "lower"),
    ("isa.assemble.calls", "count", "lower"),
    ("isa.assemble.s", "s", "lower"),
    ("service.submit_rtt_p50_ms", "ms", "lower"),
    ("service.polls_per_job", "count", "lower"),
    ("service.backlog_max", "count", "lower"),
    ("service.generator_late_max_ms", "ms", "lower"),
    ("service.warm_p50_ms", "ms", "lower"),
    ("service.warm_p90_ms", "ms", "lower"),
    ("service.cold_p50_ms", "ms", "lower"),
    ("service.cold_p90_ms", "ms", "lower"),
    ("service.wal.append.calls", "count", "lower"),
    ("service.wal.append.s", "s", "lower"),
    ("service.ratelimit.check.s", "s", "lower"),
    ("service.cache.lookup.s", "s", "lower"),
    ("service.pool.run_job.calls", "count", "lower"),
    ("service.pool.run_job.s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload.  ``FULL`` is the benchmark; ``SMOKE`` runs
    the same code paths on tiny inputs."""

    setup_spawns: int
    enum_items: tuple[str, ...]  #: one enum-large pass
    library: tuple[str, ...]  #: one library-solve pass: enumerate, then solve
    solve_big: tuple[str, ...]  #: solved after the library in each pass
    campaigns: tuple[int, ...]  #: one fuzz-campaign pass
    campaign_budget: int
    service_rate: float  #: jobs per second, open loop
    trace_passes: int  #: untraced/traced pass pairs of a traced closed loop


FULL = Scale(
    setup_spawns=9,
    # fanout-5x1 (10-14 s, one sample per window) is left out: a single
    # sample cannot be steadied against a shared VM's run-to-run noise.
    enum_items=("fanout-4x1/weak", "fanout-3x2/weak", "sb-chain-3/weak", "sb-ring-6/weak"),
    library=tuple(references.library_keys()),
    solve_big=("wide-12/sc", "wide-12/weak", "wide-14/sc", "wide-14/weak", "fanout-4x1/weak"),
    # Pinned, not drawn from the seed: one fuzz program can cost 100x
    # another (campaign seed 2 holds a 42 s program), so seed-drawn
    # campaigns would spread wider than any useful bound.  These finish
    # in about 2 s each, so a window holds several passes; the seed
    # orders them.
    campaigns=(15, 22),
    campaign_budget=16,
    service_rate=20.0,
    trace_passes=6,
)

SMOKE = Scale(
    setup_spawns=1,
    enum_items=("fanout-3x1/weak", "sb-chain-2/weak", "fanout-2x2/weak"),
    library=tuple(
        f"{name}/{model}" for name in ("SB", "MP", "LB", "WRC") for model in ("tso", "weak")
    ),
    solve_big=("wide-8/sc",),
    campaigns=(15,),
    campaign_budget=3,
    service_rate=20.0,
    trace_passes=2,
)

#: Modules each in-process workload imports; ``setup_s`` times a fresh
#: interpreter importing them.
IMPORTS = {
    "enum-large": ("repro.core.enumerate", "repro.experiments.scaling", "repro.litmus.families"),
    "library-solve": ("repro.core.enumerate", "repro.analysis.solver", "repro.litmus.library"),
    "fuzz-campaign": ("repro.testing.coverage",),
}

#: Every fifth service job is cold.  With four warm jobs per cold one the
#: median lands inside the warm class and p90 near the cold median, away
#: from the step between the classes and from the cold class's own tail:
#: the heavier cold programs spread its upper half over 25-125 ms, where
#: p90 of a one-in-three mix moved 10-15 % between seeds.
COLD_EVERY = 5
JOB_TIMEOUT_S = 10.0
POLL_INTERVAL_S = 0.005
TERMINAL = ("completed", "failed", "quarantined", "cancelled")
#: The client probes only when no job is in flight and the next event is
#: at least this far away, so probes never delay a submit or a poll.
IDLE_PROBE_S = 0.01


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@dataclass
class Context:
    seed: int
    seconds: float
    scale: Scale
    refs: dict
    scratch: Path  #: removed when the run ends
    speed: Speed = field(default_factory=Speed)
    made: int = 0

    def fresh_dir(self, label: str) -> Path:
        """A new directory, never reusing a name (process-shared caches
        are keyed by path)."""
        self.made += 1
        path = self.scratch / f"{label}-{self.made}"
        path.mkdir()
        return path


@dataclass
class Phase:
    """What one phase did: timed operations, checks and outputs."""

    speed: Speed  #: the run's probes, which scale ``ops`` to reference speed
    #: (group, raw seconds, midpoint on the ``perf_counter`` clock)
    ops: list[tuple[str, float, float]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    #: what ``op_p50_ms``/``op_p90_ms`` summarize, and the throughput
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)  #: the same, unscaled
    ops_per_s: float = 0.0
    detail: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    #: the untraced passes interleaved with a traced phase's passes
    baseline: "Phase | None" = None
    server_trace: tuple | None = None  #: (spans, counts) of the job server

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def digest(self) -> str:
        text = json.dumps(sorted(self.outputs.items()), separators=(",", ":"))
        return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()

    def record(self, group: str, start: float, end: float) -> None:
        self.ops.append((group, end - start, (start + end) / 2))

    def scaled(self) -> list[float]:
        """Every operation's seconds at reference speed."""
        return [self.speed.scale(seconds, at) for _, seconds, at in self.ops]

    def group_medians(self, scaled: bool = True) -> dict[str, float]:
        """Each group's median operation seconds, at reference speed
        unless ``scaled`` is false."""
        groups: dict[str, list[float]] = {}
        for group, seconds, at in self.ops:
            groups.setdefault(group, []).append(
                self.speed.scale(seconds, at) if scaled else seconds
            )
        return {group: statistics.median(values) for group, values in groups.items()}

    def summarize_closed_loop(self) -> None:
        """A closed loop repeats the same calls, so each distinct call
        counts once, at its median over the passes: the summary does not
        depend on how many passes fit in the window."""
        self.latencies = list(self.group_medians().values())
        self.raw_latencies = list(self.group_medians(scaled=False).values())
        self.ops_per_s = len(self.latencies) / sum(self.latencies)


@dataclass(frozen=True)
class Item:
    key: str
    program: object
    model: object
    reference: dict


def prepare(ctx: Context, keys, rng: random.Random) -> list[Item]:
    from repro.models import get_model

    items = []
    for key in keys:
        name, model = key.rsplit("/", 1)
        program = references.shuffle_threads(references.program_named(name, ctx.refs), rng)
        items.append(Item(key, program, get_model(model), ctx.refs["items"][key]))
    return items


def timed_item(phase: Phase, group: str, item: Item, engine) -> float:
    """Run one (program, model) call, time it, check it; returns seconds."""
    phase.speed.tick()
    if phase.tracer is not None:
        phase.tracer.set_request(len(phase.ops))
    start = perf_counter()
    result = engine(item.program, item.model)
    end = perf_counter()
    reference = references.result_reference(result)
    phase.record(group, start, end)
    phase.check(result.complete and reference == item.reference, f"{group}: differs from reference")
    phase.outputs[group] = f"{reference['executions']}:{reference['outcomes']}"
    return end - start


def repeat_passes(ctx: Context, phase: Phase, run_pass, traced: bool) -> list[float]:
    """Run whole passes of ``run_pass(phase)``; returns their seconds.

    Untraced: while the next pass is predicted to end inside the window;
    peak memory is read after the first pass, so it does not grow with the
    number of passes.  Traced: ``trace_passes`` pairs of an untraced pass
    (into ``phase.baseline``) and a traced one, so that both halves of the
    tracing overhead see the same machine; the pairs alternate which half
    runs first, so drift over the run cancels out."""
    durations: list[float] = []
    if traced:
        phase.tracer = Tracer(ENGINE_TARGETS)
        phase.baseline = Phase(phase.speed)

        def traced_pass() -> None:
            with phase.tracer:
                durations.append(run_pass(phase))

        for index in range(ctx.scale.trace_passes):
            if index % 2:
                traced_pass()
            run_pass(phase.baseline)
            if not index % 2:
                traced_pass()
        return durations
    started = perf_counter()
    while True:
        durations.append(run_pass(phase))
        if len(durations) == 1:
            phase.detail["peak_rss_mb"] = vm_hwm_mb()
        if perf_counter() - started + statistics.mean(durations) > ctx.seconds:
            phase.speed.sample()  # the probe after the last operation
            return durations


# -- enum-large ----------------------------------------------------------------


def enum_large(ctx: Context, traced: bool) -> Phase:
    from repro.core import enumerate as core_enumerate

    rng = random.Random(ctx.seed)
    items = prepare(ctx, ctx.scale.enum_items, rng)
    rng.shuffle(items)

    def engine(program, model):
        return core_enumerate.enumerate_behaviors(program, model)

    def run_pass(target: Phase) -> float:
        return sum(timed_item(target, item.key, item, engine) for item in items)

    run_pass(Phase(ctx.speed))  # warm-up
    phase = Phase(ctx.speed)
    passes = repeat_passes(ctx, phase, run_pass, traced)
    phase.summarize_closed_loop()
    phase.detail.update({
        "passes": len(passes),
        "enum_large_s": statistics.median(passes),
        "items_s": phase.group_medians(scaled=False),
    })
    return phase


# -- library-solve -------------------------------------------------------------


def library_solve(ctx: Context, traced: bool) -> Phase:
    from repro.analysis.solver import behaviors as solver_behaviors
    from repro.core import enumerate as core_enumerate

    rng = random.Random(ctx.seed)
    library = prepare(ctx, ctx.scale.library, rng)
    enum_order = rng.sample(library, len(library))
    solve_order = rng.sample(library, len(library)) + prepare(ctx, ctx.scale.solve_big, rng)

    def enumerate_(program, model):
        return core_enumerate.enumerate_behaviors(program, model)

    def solve(program, model):
        return solver_behaviors.solve_behaviors(program, model)

    def run_pass(target: Phase) -> float:
        enum_s = sum(timed_item(target, f"enum:{i.key}", i, enumerate_) for i in enum_order)
        solve_s = sum(timed_item(target, f"solve:{i.key}", i, solve) for i in solve_order)
        target.detail.setdefault("enum_parts", []).append(enum_s)
        target.detail.setdefault("solve_parts", []).append(solve_s)
        return enum_s + solve_s

    run_pass(Phase(ctx.speed))  # warm-up
    phase = Phase(ctx.speed)
    passes = repeat_passes(ctx, phase, run_pass, traced)
    phase.summarize_closed_loop()
    phase.detail.update({
        "passes": len(passes),
        "library_enum_s": statistics.median(phase.detail.pop("enum_parts")),
        "solve_s": statistics.median(phase.detail.pop("solve_parts")),
    })
    return phase


# -- fuzz-campaign -------------------------------------------------------------


@contextmanager
def timing_calls(module, attribute: str, speed: Speed, sink: list[tuple[float, float]]):
    """Append ``(start, end)`` of each call to ``module.attribute`` to
    ``sink``, letting ``speed`` probe before each call."""
    original = getattr(module, attribute)

    def timed(*args, **kwargs):
        speed.tick()
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((start, perf_counter()))

    setattr(module, attribute, timed)
    try:
        yield
    finally:
        setattr(module, attribute, original)


def fuzz_campaign(ctx: Context, traced: bool) -> Phase:
    from repro.testing import coverage

    scale = ctx.scale
    rng = random.Random(ctx.seed)
    order = rng.sample(scale.campaigns, len(scale.campaigns))
    #: the first run's observation of each campaign, which every later run
    #: of it must repeat
    first: dict[int, dict] = {}

    def campaign(target: Phase, seed: int) -> float:
        scratch = ctx.fresh_dir("campaign")
        programs: list[tuple[float, float]] = []
        if target.tracer is not None:
            target.tracer.set_request(seed)
        with timing_calls(coverage, "guided_one", target.speed, programs):
            report, seconds, observed = references.campaign(seed, scale.campaign_budget, scratch)
        shutil.rmtree(scratch)
        for verdict, (start, end) in zip(report.verdicts, programs):
            group = f"{seed}#{verdict['index']}"
            target.record(group, start, end)
            target.check(not verdict["discrepancies"], f"{group}: {verdict['discrepancies']}")
        reference = first.setdefault(seed, observed)
        target.check(
            observed == reference and observed["programs"] == scale.campaign_budget,
            f"campaign {seed}: {observed}, first run {reference}",
        )
        target.outputs[f"campaign-{seed}"] = observed["grid"]
        detail = target.detail
        detail.setdefault("campaign_s", []).append(seconds)
        detail.setdefault("programs_per_s", []).append(observed["programs"] / seconds)
        detail.setdefault("cells_per_s", []).append(observed["cells"] / seconds)
        detail["new_cells"] = detail.get("new_cells", 0) + report.new_cells
        return seconds

    campaign(Phase(ctx.speed), order[0])  # warm-up
    phase = Phase(ctx.speed)
    passes = repeat_passes(
        ctx, phase, lambda target: sum(campaign(target, seed) for seed in order), traced
    )
    # A campaign's planning, WAL and checkpoints add ~2% to its programs.
    phase.summarize_closed_loop()
    phase.detail.update({
        "passes": len(passes),
        "fuzz_programs_per_s": statistics.median(phase.detail.pop("programs_per_s")),
        "fuzz_cells_per_s": statistics.median(phase.detail.pop("cells_per_s")),
    })
    return phase


# -- service-mixed -------------------------------------------------------------


def _children(pid: int) -> list[int]:
    found = []
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found += [int(child) for child in path.read_text().split()]
        except OSError:
            pass
    return found


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from /proc."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _wait_gone(pid: int, timeout: float) -> None:
    """Wait for a process this one did not start (a server's worker)."""
    deadline = time.monotonic() + timeout
    while Path(f"/proc/{pid}").exists():
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            return
        if state == "Z":
            return
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


class Server:
    """A ``repro serve`` subprocess (traced through ``serve_traced.py``
    when ``spans_path`` is given), stopped with SIGINT.

    The WAL is written without fsync: an fsync waits on the host's shared
    disk, which alone doubled the warm-job median between runs minutes
    apart, and no probe of the CPU can scale that away."""

    def __init__(self, scratch: Path, cache_dir: Path, spans_path: Path | None = None):
        wal_dir = scratch / "wal"
        args = [
            "--port", "0", "--wal-dir", str(wal_dir), "--cache-dir", str(cache_dir),
            "--workers", "1", "--rate-capacity", "1e9", "--rate-refill", "1e9", "--no-fsync",
        ]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(spans_path), *args]
        self.log_path = scratch / "server.log"
        self._log = open(self.log_path, "w")
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self._log,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        self.announced = perf_counter()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(
                f"server did not announce a port: {line!r}; log: "
                f"{self.log_path.read_text()[-2000:]}"
            )
        self.url = f"http://{match[1]}:{match[2]}"

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid, *_children(self.proc.pid)]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        workers = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in workers:
            _wait_gone(pid, timeout=10)
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Job:
    index: int
    due: float  #: seconds after the phase start
    kind: str  #: "warm" or "cold"
    key: str
    source: str
    model: str
    reference: dict


def _schedule(ctx: Context) -> list[Job]:
    """The open-loop schedule; the first job is an untimed cold warm-up
    that starts the server's worker process.

    Which pairs a window submits depends only on its length: cold pairs
    are taken in pool order, the model rotating, and warm pairs cycle
    through the library.  The seed shuffles both lists, so it changes the
    order and the program behind each slot but not the work."""
    from repro.isa.disassembler import disassemble

    rng = random.Random(ctx.seed)
    count = max(1, round(ctx.scale.service_rate * ctx.seconds))
    cold_slots = [index % COLD_EVERY == COLD_EVERY - 1 for index in range(count)]
    names = sorted(ctx.refs["cold_pool"])
    models = references.MODELS
    if sum(cold_slots) + 1 > len(names) * len(models):
        raise ValueError(f"the cold pool holds too few pairs for --seconds {ctx.seconds}")
    # Pair i: program i mod n, the model rotating one step further on
    # every round through the pool, so no pair repeats.
    cold_keys = [
        f"{names[i % len(names)]}/{models[(i + i // len(names)) % len(models)]}"
        for i in range(sum(cold_slots) + 1)
    ]
    warmup_key = cold_keys.pop()
    library = ctx.scale.library
    warm_keys = [library[i % len(library)] for i in range(count - sum(cold_slots))]
    rng.shuffle(cold_keys)
    rng.shuffle(warm_keys)
    slots = [(-1, warmup_key, True)] + [
        (index, cold_keys.pop() if cold else warm_keys.pop(), cold)
        for index, cold in enumerate(cold_slots)
    ]
    jobs = []
    for index, key, cold in slots:
        name, model = key.rsplit("/", 1)
        if cold:
            body = ctx.refs["cold_pool"][name]
        else:
            body = disassemble(references.program_named(name))
        jobs.append(Job(
            index, index / ctx.scale.service_rate, "cold" if cold else "warm", key,
            f"{body}\n# req {ctx.seed}-{index}\n", model, ctx.refs["items"][key],
        ))
    return jobs


def prewarm(cache_dir: Path, keys) -> None:
    """Enumerate every warm (program, model) pair into the cache, keyed
    exactly as the server's submit path keys them."""
    from repro.cache import BehaviorCache
    from repro.core.enumerate import enumerate_behaviors
    from repro.isa.assembler import assemble_program
    from repro.isa.disassembler import disassemble
    from repro.models import get_model

    cache = BehaviorCache(cache_dir)
    try:
        for key in keys:
            name, model = key.rsplit("/", 1)
            program = assemble_program(disassemble(references.program_named(name)))
            enumerate_behaviors(program, get_model(model), cache=cache)
        cache.flush()
    finally:
        cache.close()


def _job_ok(view: dict, job: Job) -> bool:
    result = view.get("result") or {}
    return (
        view.get("state") == "completed"
        and result.get("complete") is True
        and result.get("executions") == job.reference["executions"]
        and references.outcome_digest(result.get("outcomes")) == job.reference["outcomes"]
    )


def service_mixed(ctx: Context, traced: bool) -> Phase:
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    phase = Phase(ctx.speed)
    scratch = ctx.fresh_dir("service")
    cache_dir = scratch / "cache"
    prewarm(cache_dir, ctx.scale.library)
    warmup, *jobs = _schedule(ctx)
    spans_path = OUT / f"service-mixed-seed{ctx.seed}-server-spans.jsonl.gz" if traced else None
    server = Server(scratch, cache_dir, spans_path)
    client = ServiceClient(server.url, timeout=JOB_TIMEOUT_S)
    latency = {"warm": [], "cold": []}
    pending: dict[str, tuple[Job, float]] = {}
    lateness: list[float] = []
    submit_rtt: list[float] = []
    polls = 0
    backlog_max = 0
    last_done = 0.0

    def finish(job: Job, view: dict, seconds: float, now: float) -> None:
        nonlocal last_done
        phase.check(
            _job_ok(view, job) and seconds <= JOB_TIMEOUT_S,
            f"job {job.index} {job.key}: {view.get('state')} after {seconds:.3f}s",
        )
        phase.record(job.kind, now - seconds, now)
        latency[job.kind].append(seconds)
        phase.outputs[job.key] = json.dumps(view.get("result"), sort_keys=True)
        last_done = max(last_done, now)

    try:
        view = client.wait(client.submit(warmup.source, warmup.model)["id"], timeout=60)
        phase.check(_job_ok(view, warmup), f"warm-up job {warmup.key}: {view['state']}")
        start = perf_counter() + 0.1
        next_job = 0
        last_round = last_health = start
        while next_job < len(jobs) or pending:
            now = perf_counter()
            if next_job < len(jobs) and now >= start + jobs[next_job].due:
                job = jobs[next_job]
                next_job += 1
                due = start + job.due
                lateness.append(now - due)
                try:
                    view = client.submit(job.source, job.model, account="bench")
                except ServiceError as exc:
                    phase.check(False, f"job {job.index} {job.key}: refused ({exc})")
                    continue
                back = perf_counter()
                submit_rtt.append(back - now)
                if view["state"] in TERMINAL:
                    finish(job, view, back - due, back)
                else:
                    pending[view["id"]] = (job, due)
            elif now - last_health >= 1.0:
                last_health = now
                backlog_max = max(backlog_max, client.health()["backlog"])
            elif pending and now - last_round >= POLL_INTERVAL_S:
                last_round = now
                for job_id, (job, due) in list(pending.items()):
                    view = client.status(job_id)
                    polls += 1
                    seen = perf_counter()
                    if view["state"] in TERMINAL or seen - due > JOB_TIMEOUT_S:
                        del pending[job_id]
                        finish(job, view, seen - due, seen)
            else:
                wake = last_health + 1.0
                if next_job < len(jobs):
                    wake = min(wake, start + jobs[next_job].due)
                if pending:
                    wake = min(wake, last_round + POLL_INTERVAL_S)
                if not pending and wake - now > IDLE_PROBE_S and ctx.speed.due():
                    ctx.speed.sample()
                    continue
                time.sleep(max(0.0, wake - perf_counter()))
        # Throughput stays raw: the schedule, not the machine, sets it.
        phase.latencies = phase.scaled()
        phase.raw_latencies = [seconds for _, seconds, _ in phase.ops]
        phase.ops_per_s = len(phase.latencies) / (last_done - start)
        phase.detail["peak_rss_mb"] = vm_hwm_mb() + server.peak_rss_mb()
    finally:
        server.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    if traced:
        phase.server_trace = load_spans(spans_path)
    cold = [job for job in jobs if job.kind == "cold"]
    phase.detail.update({
        "jobs": len(jobs),
        "warm": latency_summary(latency["warm"]),
        "cold": latency_summary(latency["cold"]),
        "warm_p90_ms": quantile(latency["warm"], 0.9) * 1e3 if latency["warm"] else 0.0,
        "cold_p90_ms": quantile(latency["cold"], 0.9) * 1e3 if latency["cold"] else 0.0,
        "generator_late_max_ms": max(lateness, default=0.0) * 1e3,
        "submit_rtt_p50_ms": quantile(submit_rtt, 0.5) * 1e3 if submit_rtt else 0.0,
        "polls_per_job": polls / len(cold) if cold else 0.0,
        "backlog_max": backlog_max,
    })
    return phase


PHASES = {
    "enum-large": enum_large,
    "library-solve": library_solve,
    "fuzz-campaign": fuzz_campaign,
    "service-mixed": service_mixed,
}


# -- set-up time -----------------------------------------------------------------


def setup_spawns(ctx: Context, workload: str) -> Phase:
    """Fresh spawns timed until the workload can start: the imports for an
    in-process workload, the port announcement for the job server (after
    its WAL replay), over the warm cache the phase uses.  A probe runs
    before each spawn and after the last.

    The probe tracks a single spawn only loosely (mostly ``fork``/``exec``,
    file reads and a child on the other core: over eight runs, scaling
    did not narrow the 14-25 % spread), but it does track the host's slow
    phases, which moved the probe by up to 45 % between sets of runs while
    the scaled set-up medians moved at most 10 %."""
    setup = Phase(ctx.speed)
    if workload == "service-mixed":
        cache_dir = ctx.fresh_dir("setup-cache")
        prewarm(cache_dir, ctx.scale.library)
        for _ in range(ctx.scale.setup_spawns):
            ctx.speed.sample()
            server = Server(ctx.fresh_dir("setup"), cache_dir)
            setup.record("setup", server.started, server.announced)
            server.stop()
        ctx.speed.sample()
        return setup
    code = "".join(f"import {module}\n" for module in IMPORTS[workload]) + "print('ready')"
    for _ in range(ctx.scale.setup_spawns):
        ctx.speed.sample()
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline()
        setup.record("setup", start, perf_counter())
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"import of {IMPORTS[workload]} failed")
    ctx.speed.sample()
    return setup


# -- metrics -------------------------------------------------------------------


def e2e_metrics(phase: Phase, setup: Phase) -> dict:
    """Every end-to-end metric; timings at reference speed."""
    values = {
        "setup_s": statistics.median(setup.scaled()),
        "peak_rss_mb": phase.detail["peak_rss_mb"],
        "op_p50_ms": quantile(phase.latencies, 0.5) * 1e3,
        "op_p90_ms": quantile(phase.latencies, 0.9) * 1e3,
        "ops_per_s": phase.ops_per_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in E2E}


def trace_overhead(untraced: Phase, traced: Phase) -> float:
    """Traced over untraced time of the same operations, minus one: the
    sum over operation groups of each group's median."""
    before, after = untraced.group_medians(), traced.group_medians()
    common = sorted(set(before) & set(after))
    base = sum(before[group] for group in common)
    return sum(after[group] for group in common) / base - 1.0 if base else 0.0


def layer_metrics(phase: Phase, spans: list, overhead: float) -> dict:
    """Every per-layer metric of a traced phase (0 where the workload does
    not reach a layer); ``spans`` are the phase tracer's spans."""
    counts = phase.tracer.counts if phase.tracer is not None else {}
    layers = summarize(spans)
    server_spans, server_counts = phase.server_trace or ([], {})
    server = summarize(server_spans)

    def calls(name, source=layers):
        return source[name].calls if name in source else 0

    def busy(name, source=layers):
        return source[name].seconds if name in source else 0.0

    def own(name):
        return layers[name].self_seconds if name in layers else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    execution = {name for name in layers if name.startswith("core.execution.")}
    resolutions = counts.get("core.enumerate.resolutions", 0)
    proposals = counts.get("solver.proposals", 0)
    detail = phase.detail
    values = {
        "core.enumerate.calls": calls("core.enumerate"),
        "core.enumerate.self_s": own("core.enumerate"),
        "core.enumerate.explored": counts.get("core.enumerate.explored", 0),
        "core.enumerate.useful_ratio": ratio(
            resolutions - counts.get("core.enumerate.wasted", 0), resolutions),
        "core.atomicity.close.calls": calls("core.atomicity.close"),
        "core.atomicity.close.s": busy("core.atomicity.close"),
        "core.atomicity.close.share": ratio(
            seconds_under(spans, {"core.atomicity.close"}, "core.enumerate"),
            busy("core.enumerate")),
        "core.execution.resolve_load.self_s": own("core.execution.resolve_load"),
        "core.execution.stabilize.self_s": own("core.execution.stabilize"),
        "core.execution.eligible_loads.s": busy("core.execution.eligible_loads"),
        "core.candidates.calls": calls("core.candidates"),
        "core.candidates.s": busy("core.candidates"),
        "core.candidates.scanned": counts.get("core.candidates.scanned", 0),
        "solver.proposals": proposals,
        "solver.conflicts": counts.get("solver.conflicts", 0),
        "solver.useful_ratio": ratio(proposals - counts.get("solver.infeasible", 0), proposals),
        "solver.materialize.s": seconds_under(spans, execution, "solver.solve"),
        "cache.hit_ratio": ratio(counts.get("cache.hits", 0), calls("cache.lookup")),
        "testing.fuzzgen.s": busy("testing.fuzzgen"),
        "testing.oracles.s": busy("testing.oracles"),
        "testing.oracles.skip_ratio": ratio(
            counts.get("testing.oracles.skipped", 0), counts.get("testing.oracles.selected", 0)),
        "testing.coverage.new_cells": detail.get("new_cells", 0),
        "testing.campaign.wal_append.calls": calls("wal.append"),
        "testing.campaign.wal_append.s": busy("wal.append"),
        "isa.assemble.calls": calls("isa.assemble") + calls("isa.assemble", server),
        "isa.assemble.s": busy("isa.assemble") + busy("isa.assemble", server),
        "service.submit_rtt_p50_ms": detail.get("submit_rtt_p50_ms", 0.0),
        "service.polls_per_job": detail.get("polls_per_job", 0.0),
        "service.backlog_max": detail.get("backlog_max", 0),
        "service.generator_late_max_ms": detail.get("generator_late_max_ms", 0.0),
        "service.warm_p50_ms": (detail.get("warm") or {}).get("p50_ms") or 0.0,
        "service.warm_p90_ms": detail.get("warm_p90_ms", 0.0),
        "service.cold_p50_ms": (detail.get("cold") or {}).get("p50_ms") or 0.0,
        "service.cold_p90_ms": detail.get("cold_p90_ms", 0.0),
        "service.wal.append.calls": calls("wal.append", server),
        "service.wal.append.s": busy("wal.append", server),
        "service.ratelimit.check.s": busy("ratelimit.check", server),
        "service.cache.lookup.s": busy("cache.lookup", server),
        "service.pool.run_job.calls": calls("pool.run_job", server),
        "service.pool.run_job.s": busy("pool.run_job", server),
        "trace.overhead": overhead,
    }
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        layer, _, measure = name.rpartition(".")
        values[name] = calls(layer) if measure == "calls" else busy(layer)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


# -- one run ---------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run: the result object plus a ``detail`` section."""
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        ctx = Context(seed, seconds, SMOKE if smoke else FULL, references.load(), scratch)
        phase_of = PHASES[workload]
        setup = None if trace else setup_spawns(ctx, workload)
        phase = phase_of(ctx, False)
        failures = list(phase.failures)
        attempted = phase.attempted
        detail = {
            "ops": len(phase.ops),
            "latency": latency_summary(phase.latencies),
            "raw_latency": latency_summary(phase.raw_latencies),
            "digest": phase.digest(),
            **phase.detail,
        }
        if trace:
            traced = phase_of(ctx, True)
            for checked in filter(None, (traced, traced.baseline)):
                attempted += checked.attempted
                failures += checked.failures
            # Closed loops interleave untraced passes with the traced ones;
            # the service compares against the untraced window.
            baseline = traced.baseline or phase
            detail["traced_digest"] = traced.digest()
            if detail["traced_digest"] != detail["digest"]:
                failures.append("traced and untraced outputs differ")
            spans = traced.tracer.spans() if traced.tracer is not None else []
            metrics = layer_metrics(traced, spans, trace_overhead(baseline, traced))
            if traced.tracer is not None:
                write_spans(
                    OUT / f"{workload}-seed{seed}-spans.jsonl.gz", spans, traced.tracer.counts
                )
        else:
            detail["setup_samples_s"] = [seconds for _, seconds, _ in setup.ops]
            metrics = e2e_metrics(phase, setup)
        detail["speed"] = ctx.speed.summary()
        detail["failures"] = failures[:20]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "detail": detail,
    }
