"""Command-line interface.

Usage examples::

    python -m repro models                      # list memory models
    python -m repro models --table weak         # render a Figure-1 table
    python -m repro run SB --model tso          # run a library litmus test
    python -m repro run my_test.litmus -m weak  # ... or a file
    python -m repro run SB -m weak --dot sb.dot # emit a Graphviz graph
    python -m repro enumerate MP -m weak --graphs 2
    python -m repro enumerate --library -m weak --jobs 4
    python -m repro matrix --models sc,tso,weak
    python -m repro wellsync MP -m weak --sync flag
    python -m repro analyze SB -m weak -m tso    # static delay-set analysis
    python -m repro analyze --library -m weak    # ... whole litmus library
    python -m repro analyze MP -m weak --repair  # static minimal fence repair
    python -m repro fences MP -m weak --static --upgrades
    python -m repro fences MP -m weak --verify   # static == enumerative gate
    python -m repro robust MP -m pso --static    # robustness certificate
    python -m repro robust MP --portability tso  # lattice portability
    python -m repro robust --library -m weak     # certify the whole library
    python -m repro models --lint               # audit every model table
    python -m repro lint SB --strict            # nonzero exit on warnings
    python -m repro experiments --markdown EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.analysis.wellsync import check_well_synchronized
from repro.core.enumerate import (
    EnumerationCheckpoint,
    EnumerationLimits,
    enumerate_behaviors,
    outcome_sort_key,
    resume_enumeration,
)
from repro.experiments.base import parallel_map
from repro.experiments.fig1 import render_table
from repro.litmus.finalstate import realizable_final_memory
from repro.litmus.library import all_tests, get_test, test_names
from repro.litmus.runner import format_matrix, run_litmus, run_matrix
from repro.litmus.test import LitmusTest, litmus_from_source
from repro.models.registry import available_models, get_model
from repro.viz.dot import to_dot


def _load_test(spec: str) -> LitmusTest:
    """Resolve a test spec: a library name, or a path to a litmus file."""
    path = Path(spec)
    if path.exists():
        return litmus_from_source(path.read_text(encoding="utf-8"))
    try:
        return get_test(spec)
    except ReproError:
        known = ", ".join(test_names())
        raise ReproError(
            f"{spec!r} is neither a readable file nor a library test; "
            f"library tests: {known}"
        ) from None


def _limits(args: argparse.Namespace) -> EnumerationLimits:
    defaults = EnumerationLimits()
    max_behaviors = getattr(args, "max_behaviors", None)
    max_executions = getattr(args, "max_executions", None)
    return EnumerationLimits(
        max_behaviors=defaults.max_behaviors if max_behaviors is None else max_behaviors,
        max_executions=defaults.max_executions if max_executions is None else max_executions,
        max_nodes_per_thread=args.max_nodes,
        deadline_seconds=getattr(args, "deadline", None),
    )


class _OneModel(argparse.Action):
    """``-m`` for a command that runs under exactly one model: stored as a
    one-element list like the repeatable flag, and a second ``-m`` is a
    usage error rather than silently ignored."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} takes one model (got a second: {values})")
        setattr(namespace, self.dest, [values])


def _cache(args: argparse.Namespace):
    """The shared :class:`BehaviorCache` for ``--cache-dir``, or None."""
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        return None
    from repro.cache import BehaviorCache

    return BehaviorCache.shared(cache_dir)


def _enumerate_pair(task: tuple) -> tuple:
    """Process-pool work unit for ``enumerate --library``: one (test,
    model) cell, returned as a rendered summary row."""
    name, model_name, limits, cache_dir = task
    test = get_test(name)
    cache = None
    if cache_dir:
        from repro.cache import BehaviorCache

        cache = BehaviorCache.shared(cache_dir)
    result = enumerate_behaviors(
        test.program, get_model(model_name), limits, cache=cache
    )
    status = result.status + (" cached" if result.cached else "")
    return (name, model_name, len(result), result.stats.explored, status)


def _analyze_pair(task: tuple) -> str:
    """Process-pool work unit for ``analyze --library``: one (test,
    model) static analysis, returned as a rendered line."""
    from repro.analysis.static import analyze_program, repair_fences

    name, model_name, precise, repair = task
    test = get_test(name)
    report = analyze_program(test.program, model_name, precise=precise)
    if report.precise:
        exact, approx = report.finding_provenance()
        caveat = f" exact={exact} approx={approx}"
    else:
        caveat = " [conservative]" if report.conservative else ""
    repaired = ""
    if repair:
        result = repair_fences(test.program, model_name)
        count = result.fence_count
        repaired = f" repair={'-' if count is None else count}"
    return (
        f"{name:<16} {model_name:<10} "
        f"cycles={len(report.live_cycles)} races={len(report.races)} "
        f"delays={len(report.delays)}{repaired}{caveat}"
    )


def _auto_lint(test: LitmusTest, args: argparse.Namespace) -> int | None:
    """Lint ``test`` before an enumeration-backed command.  Prints
    warnings/errors to stderr; returns an exit code on ERROR findings,
    None to proceed.  ``--no-lint`` skips the whole check."""
    if getattr(args, "no_lint", False):
        return None
    from repro.isa.lint import LintLevel, lint_program

    findings = [
        finding
        for finding in lint_program(test.program)
        if finding.level is not LintLevel.INFO
    ]
    for finding in findings:
        print(f"{test.name}: {finding}", file=sys.stderr)
    if any(finding.level is LintLevel.ERROR for finding in findings):
        print(
            f"{test.name}: lint errors — refusing to run "
            f"(pass --no-lint to override)",
            file=sys.stderr,
        )
        return 2
    return None


def cmd_models(args: argparse.Namespace) -> int:
    if args.lint is not None:
        from repro.analysis.static import (
            canonical_chain_findings,
            lint_all_models,
            lint_model,
        )
        from repro.isa.lint import LintLevel

        reports = (
            lint_all_models() if args.lint == "*" else {args.lint: lint_model(args.lint)}
        )
        worst_is_error = False
        for name, findings in sorted(reports.items()):
            if not findings:
                print(f"{name}: clean")
                continue
            for finding in findings:
                print(str(finding))
                worst_is_error |= finding.level is LintLevel.ERROR
        if args.lint == "*":
            for finding in canonical_chain_findings():
                print(str(finding))
                worst_is_error = True
        return 1 if worst_is_error else 0
    if args.explain:
        from repro.models.doc import model_card

        print(model_card(args.explain).render())
        return 0
    if args.table:
        print(render_table(get_model(args.table)))
        return 0
    for name in available_models():
        model = get_model(name)
        print(f"{name:<12} {model.description}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.isa.lint import LintLevel, lint_program

    if args.all:
        tests = all_tests()
    elif args.test:
        tests = [_load_test(args.test)]
    else:
        raise ReproError("lint requires a test name (or --all for the library)")

    worst: LintLevel | None = None
    for test in tests:
        findings = lint_program(test.program)
        if not findings:
            print(f"{test.name}: no findings")
            continue
        for finding in findings:
            print(f"{test.name}: {finding}")
            if finding.level is LintLevel.ERROR:
                worst = LintLevel.ERROR
            elif finding.level is LintLevel.WARNING and worst is not LintLevel.ERROR:
                worst = LintLevel.WARNING
    if worst is LintLevel.ERROR:
        return 1
    if worst is LintLevel.WARNING and args.strict:
        return 1
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.static import analyze_program, repair_fences

    precise = not args.syntactic
    if args.library:
        tasks = [
            (test.name, model_name, precise, args.repair)
            for test in all_tests()
            for model_name in args.model
        ]
        for line in parallel_map(_analyze_pair, tasks, getattr(args, "jobs", 1)):
            print(line)
        return 0
    if not args.test:
        raise ReproError("analyze requires a test name (or --library)")
    test = _load_test(args.test)
    racy = False
    for model_name in args.model:
        report = analyze_program(test.program, model_name, precise=precise)
        print(report.summary())
        if args.repair:
            repair = repair_fences(test.program, model_name)
            print("  " + repair.summary())
        racy |= bool(report.races)
    return 1 if racy else 0


def cmd_dataflow(args: argparse.Namespace) -> int:
    from repro.analysis.static import (
        compute_static_facts,
        describe_facts,
        speculation_safety,
    )

    test = _load_test(args.test)
    facts = compute_static_facts(test.program)
    print(describe_facts(facts))
    for model_name in args.model:
        report = speculation_safety(test.program, model_name, facts)
        print()
        print(report.summary())
    return 0


def _write_witness_dot(test: LitmusTest, verdict, path: str) -> None:
    """Draw the first execution that reaches ``test``'s outcome expression
    (judged as :func:`run_litmus` judges it, over the realizable final
    memories); when none does, draw the first execution and say so."""
    executions = verdict.result.executions
    if not executions:
        raise ReproError(f"{test.name} under {verdict.model.name}: no execution to draw")
    locations = test.condition.locations()
    witness = next(
        (
            execution
            for execution in executions
            if any(
                test.condition.holds_in(execution.final_registers(), memory)
                for memory in realizable_final_memory(execution, locations)
            )
        ),
        None,
    )
    title = f"{test.name} / {verdict.model.name}"
    note = ""
    if witness is None:
        witness = executions[0]
        title += " (not a witness)"
        note = f" (not a witness: no execution reaches {test.condition.expr})"
    Path(path).write_text(to_dot(witness.graph, title=title), encoding="utf-8")
    print(f"wrote {path}{note}")


def cmd_run(args: argparse.Namespace) -> int:
    if args.dot and len(args.model) > 1:
        raise ReproError("--dot draws one graph: give exactly one -m")
    test = _load_test(args.test)
    lint_exit = _auto_lint(test, args)
    if lint_exit is not None:
        return lint_exit
    exit_code = 0
    for model_name in args.model:
        verdict = run_litmus(test, model_name, _limits(args), strict=args.strict)
        expectation = ""
        if verdict.matches_expectation is False:
            expectation = "  [UNEXPECTED]"
            exit_code = 1
        partial = "" if verdict.complete else f"  [{verdict.result.status.upper()}]"
        print(
            f"{test.name} under {model_name}: {test.condition} -> "
            f"{'Yes' if verdict.holds else 'No'} "
            f"({verdict.executions} executions, "
            f"{verdict.satisfied_pairs}/{verdict.total_pairs} final states match)"
            f"{expectation}{partial}"
        )
    if args.dot:
        _write_witness_dot(test, verdict, args.dot)
    return exit_code


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.library:
        tasks = [
            (test.name, model_name, _limits(args), args.cache_dir)
            for test in all_tests()
            for model_name in args.model
        ]
        rows = parallel_map(_enumerate_pair, tasks, args.jobs)
        for name, model_name, count, explored, status in rows:
            print(
                f"{name:<16} {model_name:<10} {count:>4} executions "
                f"(explored {explored}) [{status}]"
            )
        return 0
    if not args.resume and not args.test:
        raise ReproError(
            "enumerate requires a test name (or --resume CHECKPOINT, or --library)"
        )
    if args.resume:
        # A resume takes this invocation's budgets (defaults unless
        # flags are given) — counting budgets are cumulative, so the
        # defaults let an exhausted search make progress.
        checkpoint = EnumerationCheckpoint.load(args.resume)
        result = resume_enumeration(checkpoint, _limits(args), strict=args.strict)
        _print_enumeration(args, checkpoint.program.name, checkpoint.model.name, result)
        return 0
    if args.checkpoint and len(args.model) > 1:
        raise ReproError("--checkpoint saves one search: give exactly one -m")
    test = _load_test(args.test)
    lint_exit = _auto_lint(test, args)
    if lint_exit is not None:
        return lint_exit
    for model_name in args.model:
        result = enumerate_behaviors(
            test.program,
            get_model(model_name),
            _limits(args),
            strict=args.strict,
            cache=_cache(args),
        )
        _print_enumeration(args, test.name, model_name, result)
    return 0


def _print_enumeration(args: argparse.Namespace, name: str, model_name: str, result) -> None:
    """One search's summary, checkpoint (``--checkpoint``), outcomes and graphs."""
    print(
        f"{name} under {model_name}: {len(result)} distinct executions "
        f"(explored {result.stats.explored} behaviors, "
        f"{result.stats.duplicates} duplicates discarded, "
        f"{result.stats.rolled_back} rolled back) "
        f"[{result.status}{' cached' if result.cached else ''}]"
    )
    if not result.complete and args.checkpoint:
        result.checkpoint.save(args.checkpoint)
        print(f"wrote checkpoint {args.checkpoint} (resume with --resume)")
    for outcome in sorted(result.register_outcomes(), key=outcome_sort_key):
        rendered = "  ".join(
            f"{thread}:{register}={value}"
            for (thread, register), value in sorted(outcome, key=repr)
        )
        print(f"  {rendered}")
    if args.graphs:
        from repro.viz.ascii import render

        for execution in result.executions[: args.graphs]:
            print()
            print(render(execution.graph))


def cmd_matrix(args: argparse.Namespace) -> int:
    models = tuple(args.models.split(","))
    tests = (
        [get_test(name) for name in args.tests.split(",")] if args.tests else all_tests()
    )
    verdicts = run_matrix(tests, models, _limits(args), strict=args.strict)
    print(format_matrix(verdicts))
    mismatches = [v for v in verdicts if v.matches_expectation is False]
    if mismatches:
        print(f"\n{len(mismatches)} verdicts differ from expectations:")
        for verdict in mismatches:
            print(f"  {verdict.summary()}")
        return 1
    return 0


def cmd_wellsync(args: argparse.Namespace) -> int:
    test = _load_test(args.test)
    sync = frozenset(args.sync.split(",")) if args.sync else frozenset()
    report = check_well_synchronized(test.program, args.model[0], sync, _limits(args))
    print(report.summary())
    return 0 if report.well_synchronized else 1


def cmd_robust(args: argparse.Namespace) -> int:
    from repro.analysis.compare import check_robustness
    from repro.analysis.static import certify_robustness, check_portability

    if args.library:
        model_names = args.model
        for test in all_tests():
            for model_name in model_names:
                certificate = certify_robustness(test.program, model_name)
                repairs = ""
                if certificate.repairs:
                    count = len(certificate.repairs[0])
                    repairs = (
                        f"  {count} fence(s): "
                        + " | ".join(
                            "{" + ", ".join(str(s) for s in sol) + "}"
                            for sol in certificate.repairs[:3]
                        )
                    )
                print(
                    f"{test.name:<16} {model_name:<10} "
                    f"{certificate.verdict:<22}{repairs}"
                )
        return 0

    test = _load_test(args.test)
    if args.portability:
        report = check_portability(test.program, args.portability)
        print(report.summary())
        return 0 if all(step.portable for step in report.steps) else 1
    if args.static:
        exit_code = 0
        for model_name in args.model:
            certificate = certify_robustness(test.program, model_name)
            print(certificate.summary())
            exit_code |= 0 if certificate.robust else 1
        return exit_code
    exit_code = 0
    for model_name in args.model:
        report = check_robustness(test.program, model_name, _limits(args))
        print(report.summary())
        exit_code |= 0 if report.robust else 1
    return exit_code


def cmd_delays(args: argparse.Namespace) -> int:
    from repro.analysis.compare import check_robustness
    from repro.analysis.delays import delay_set, fence_delays

    test = _load_test(args.test)
    report = delay_set(test.program)
    print(report.summary())
    if args.verify:
        fenced = fence_delays(test.program, report)
        robust = check_robustness(fenced, args.model[0], _limits(args))
        print(f"after fencing the delays: {robust.summary()}")
        return 0 if robust.robust else 1
    return 0


def cmd_fences(args: argparse.Namespace) -> int:
    from repro.analysis.fencesynth import synthesize_fences
    from repro.analysis.static import repair_fences, repair_upgrades

    test = _load_test(args.test)
    model_name = args.model[0]

    if args.static or args.verify:
        static = repair_fences(test.program, model_name)
        print(static.summary())
        if args.upgrades:
            print(repair_upgrades(test.program, model_name).summary())
        if not args.verify:
            return 0 if static.fence_count is not None else 1
        enumerative = synthesize_fences(
            test.program,
            model_name,
            _limits(args),
            max_fences=args.max_fences,
            target="robust",
            max_subsets=args.max_subsets,
        )
        print(enumerative.summary())
        if not enumerative.complete:
            print("verify: INCONCLUSIVE — the enumerative search was truncated")
            return 1
        agree = (
            enumerative.already_forbidden == static.already_robust
            and enumerative.solutions == static.solutions
        )
        print(
            "verify: static and enumerative minimal sets "
            + ("AGREE (byte-identical)" if agree else "DISAGREE")
        )
        return 0 if agree else 1

    target = "robust" if args.robust else "condition"
    synthesis = synthesize_fences(
        test.program if args.robust else test,
        model_name,
        _limits(args),
        max_fences=args.max_fences,
        target=target,
        max_subsets=args.max_subsets,
    )
    print(synthesis.summary())
    return 0 if synthesis.fence_count is not None else 1


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.litmus.generator import EdgeKindSpec, generate, predict_verdict

    by_name = {kind.value: kind for kind in EdgeKindSpec}
    try:
        cycle = [by_name[name] for name in args.edges]
    except KeyError as exc:
        raise ReproError(
            f"unknown edge {exc.args[0]!r}; known edges: {', '.join(by_name)}"
        ) from None
    generated = generate(cycle)
    print(generated.test.program)
    print(f"condition: {generated.test.condition}")
    for model_name in args.model:
        predicted = predict_verdict(generated, model_name)
        observed = run_litmus(generated.test, model_name, _limits(args)).holds
        print(
            f"  {model_name:<10} predicted {'Yes' if predicted else 'No ':<4}"
            f"observed {'Yes' if observed else 'No'}"
        )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.isa.disassembler import export_library

    written = export_library(args.out)
    print(f"wrote {len(written)} .litmus files to {args.out}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.analysis.solver import explain_forbidden

    solved = explain_forbidden(_load_test(args.test), args.model[0], _limits(args))
    print(solved.render())
    return 0 if solved.forbidden else 1


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.analysis.solver.behaviors import solve_behaviors_with_stats

    limits = _limits(args)
    names = test_names() if args.library else [args.test]
    exit_code = 0
    for name in names:
        test = _load_test(name)
        for model_name in args.model:
            solved, stats = solve_behaviors_with_stats(test.program, model_name, limits)
            line = (
                f"{test.name:<16} {model_name:<10} "
                f"behaviors={stats.behaviors:<5} proposals={stats.proposals:<6} "
                f"infeasible={stats.infeasible:<5} conflicts={stats.conflicts:<6} "
                f"[{solved.status}]"
            )
            if args.check:
                reference = enumerate_behaviors(
                    test.program, get_model(model_name), limits
                )
                agree = solved.complete == reference.complete and sorted(
                    repr(e.loadstore_key()) for e in solved.executions
                ) == sorted(repr(e.loadstore_key()) for e in reference.executions)
                line += "  agree=yes" if agree else "  agree=NO"
                if not agree:
                    exit_code = 1
            print(line)
    return exit_code


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.artifacts import write_figures

    for path in write_figures(args.out):
        print(f"wrote {path}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.report import main as report_main

    argv = ["--markdown", args.markdown] if args.markdown else []
    if args.deadline is not None:
        argv += ["--deadline", str(args.deadline)]
    if args.jobs != 1:
        argv += ["--jobs", str(args.jobs)]
    return report_main(argv)


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.testing.fuzz import replay_paths, run_campaign, run_mutation_kill
    from repro.testing.fuzzgen import MIXED, PROFILES
    from repro.testing.mutants import MUTANTS
    from repro.testing.oracles import ORACLES

    if args.list_oracles:
        for oracle in ORACLES:
            print(f"{oracle.name:24s} {oracle.description}")
        return 0
    if args.list_profiles:
        print(f"{MIXED:24s} round-robin over every profile below")
        for profile in PROFILES.values():
            print(f"{profile.name:24s} {profile.description}")
        return 0
    if args.list_mutants:
        for mutant in MUTANTS:
            print(f"{mutant.name:26s} {mutant.description}")
        return 0

    if args.action == "coverage":
        from repro.testing.coverage import coverage_report, load_campaign

        if not args.dir:
            raise ReproError("usage: repro fuzz coverage DIR")
        state = load_campaign(Path(args.dir))
        if state is None:
            raise ReproError(f"no campaign state under {Path(args.dir)}")
        print(coverage_report(Path(args.dir), state))
        if args.export:
            Path(args.export).write_text(
                json.dumps(state.grid.to_json(), sort_keys=True, indent=1) + "\n"
            )
            print(f"grid exported to {args.export}")
        if args.check_superset:
            from repro.testing.coverage import CoverageGrid

            baseline = CoverageGrid.from_json(
                json.loads(Path(args.check_superset).read_text())
            )
            if not state.grid.is_superset_of(baseline):
                missing = set(baseline.cells) - set(state.grid.cells)
                print(
                    f"GRID SHRANK: {len(missing)} cell(s) of "
                    f"{args.check_superset} are no longer covered"
                )
                return 1
            print(f"grid covers all {len(baseline)} cells of {args.check_superset}")
        return 0

    corpus_dir = Path(args.corpus_dir) if args.corpus_dir else None

    if args.campaign_dir and (args.replay or args.mutants):
        raise ReproError("--campaign-dir cannot be combined with --replay/--mutants")

    if args.replay:
        target = Path(args.replay)
        paths = sorted(target.glob("*.litmus")) if target.is_dir() else [target]
        if not paths:
            raise ReproError(f"no corpus entries under {target}")

        failures = 0
        for entry, discrepancies, _skipped in replay_paths(paths):
            # A mutant entry replays *with its mutant installed*, so a
            # discrepancy is the expected, healthy verdict for it.
            if entry.mutant:
                ok = bool(discrepancies)
                verdict = "reproduces" if ok else "LOST (mutant no longer caught)"
            else:
                ok = not discrepancies
                verdict = "clean" if ok else "DISCREPANCY"
            failures += 0 if ok else 1
            print(f"{entry.path.name:40s} {verdict}")
            for discrepancy in discrepancies if not ok else ():
                print(f"    {discrepancy}")
        return 1 if failures else 0

    if args.mutants:
        kills = run_mutation_kill(
            seed=args.seed,
            budget=args.budget,
            profile=args.profile,
            do_shrink=not args.no_shrink,
            corpus_dir=corpus_dir,
        )
        print(f"mutation-kill campaign: seed={args.seed} budget={args.budget}")
        bad = 0
        for kill in kills:
            print(kill.summary())
            ok = kill.detected
            if kill.shrink_result is not None:
                ok = ok and kill.reproducer_instructions <= args.max_reproducer
            if kill.corpus_path is not None:
                ok = ok and bool(kill.replay_fails_under_mutant)
                ok = ok and bool(kill.healthy_tree_clean)
            bad += 0 if ok else 1
        print(f"{len(kills) - bad}/{len(kills)} mutants killed cleanly")
        return 1 if bad else 0

    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    if args.campaign_dir:
        from repro.testing.coverage import DEFAULT_BATCH_SIZE, run_guided_campaign

        report = run_guided_campaign(
            campaign_dir=Path(args.campaign_dir),
            seed=args.seed,
            budget=args.budget,
            profile=args.profile,
            jobs=args.jobs,
            do_shrink=not args.no_shrink,
            corpus_dir=corpus_dir,
            cache_dir=cache_dir,
            resume=args.resume,
            batch_size=args.batch_size or DEFAULT_BATCH_SIZE,
        )
    else:
        report = run_campaign(
            seed=args.seed,
            budget=args.budget,
            profile=args.profile,
            jobs=args.jobs,
            do_shrink=not args.no_shrink,
            corpus_dir=corpus_dir,
            cache_dir=cache_dir,
        )
    print(report.summary())
    return 0 if report.clean else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import ServiceConfig, run_server

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        wal_dir=args.wal_dir,
        workers=args.workers,
        queue_limit=args.queue_limit,
        rate_capacity=args.rate_capacity,
        rate_refill=args.rate_refill,
        retries=args.retries,
        slice_behaviors=args.slice,
        slice_delay=args.slice_delay,
        fsync=not args.no_fsync,
        cache_dir=args.cache_dir,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.cache import BehaviorCache

    directory = Path(args.dir)
    if not directory.exists():
        raise ReproError(f"no cache directory {directory}")
    cache = BehaviorCache(directory)

    if args.action == "stats":
        stats = cache.stats()
        print(f"cache {stats['directory']}")
        print(f"  live entries      : {stats['live_entries']}")
        print(f"  disk bytes        : {stats['disk_bytes']}")
        return 0

    report = cache.verify(full=args.full)
    mode = "re-enumerated" if args.full else "decode-checked"
    print(
        f"verified {report['checked']} entries ({mode}): "
        f"{report['ok']} ok, {len(report['bad'])} bad"
    )
    for keyhex in report["bad"]:
        print(f"  BAD {keyhex}")
    return 1 if report["bad"] else 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient

    test_path = Path(args.test)
    if test_path.exists():
        source = test_path.read_text(encoding="utf-8")
    else:
        test = _load_test(args.test)
        from repro.isa.disassembler import disassemble

        source = disassemble(test.program, condition_text=str(test.condition))

    limits = {}
    if args.max_behaviors is not None:
        limits["max_behaviors"] = args.max_behaviors
    if args.max_nodes is not None:
        limits["max_nodes_per_thread"] = args.max_nodes
    client = ServiceClient(args.url)
    job = client.submit(
        source,
        model=args.model[0],
        limits=limits,
        deadline_seconds=args.deadline,
        account=args.account,
    )
    if args.wait:
        job = client.wait(job["id"], timeout=args.timeout)
    print(json.dumps(job, indent=2, sort_keys=True))
    return 0 if job["state"] not in ("failed", "quarantined") else 1


def cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if args.job == "all":
        for job in client.list_jobs():
            print(
                f"{job['id']}  {job['state']:<12} {job.get('program', ''):<16} "
                f"{job['model']:<8} explored={job.get('explored', 0)}"
            )
        return 0
    job = client.status(args.job)
    print(json.dumps(job, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory Model = Instruction Reordering + Store Atomicity "
        "(ISCA 2006) — behavior enumerator and litmus runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser, multi_model: bool = True, partial: bool = True
    ) -> None:
        """The model and budget flags.  ``partial=False`` is for a command
        that never returns a partial result: its deadline help says so."""
        p.add_argument(
            "--model",
            "-m",
            action="append" if multi_model else _OneModel,
            default=None,
            help="memory model name (repeatable)" if multi_model else "memory model name (one)",
        )
        p.add_argument(
            "--max-nodes",
            type=int,
            default=64,
            help="dynamic-instruction bound per thread (loop guard)",
        )
        p.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget per enumeration; exceeding it returns "
            "an honestly-labeled partial result"
            if partial
            else "wall-clock budget for the check; an exhausted deadline "
            "exits 2 with 'error:' (there is no partial verdict)",
        )

    strict_help = "raise on an exhausted budget instead of returning a partial result"

    p_models = sub.add_parser("models", help="list models / render a reordering table")
    p_models.add_argument("--table", metavar="MODEL", help="render MODEL's Figure-1 table")
    p_models.add_argument(
        "--explain",
        metavar="MODEL",
        help="full model card: table, flags, litmus signature (enumerated live)",
    )
    p_models.add_argument(
        "--lint",
        nargs="?",
        const="*",
        default=None,
        metavar="MODEL",
        help="audit model tables for soundness (all models when no name given); "
        "exits nonzero on errors",
    )
    p_models.set_defaults(func=cmd_models)

    p_lint = sub.add_parser("lint", help="static sanity checks on a test")
    p_lint.add_argument("test", nargs="?", help="test name/file (omit with --all)")
    p_lint.add_argument(
        "--all", action="store_true", help="lint every test in the litmus library"
    )
    p_lint.add_argument(
        "--strict", action="store_true", help="exit nonzero on warnings, not just errors"
    )
    p_lint.set_defaults(func=cmd_lint)

    p_analyze = sub.add_parser(
        "analyze",
        help="static delay-set analysis: races, delay edges, fence sites — "
        "no enumeration",
    )
    p_analyze.add_argument("test", nargs="?", help="test name/file (omit with --library)")
    p_analyze.add_argument(
        "--library", action="store_true", help="analyze the whole litmus library"
    )
    p_analyze.add_argument(
        "--model",
        "-m",
        action="append",
        default=None,
        help="memory model name (repeatable)",
    )
    p_analyze.add_argument(
        "--syntactic",
        action="store_true",
        help="disable the dataflow layer, which is on by default "
        "(dynamic addresses then alias everything)",
    )
    p_analyze.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="with --library, fan (test, model) pairs across N worker processes",
    )
    p_analyze.add_argument(
        "--repair",
        action="store_true",
        help="also compute the minimal static fence repair (set cover "
        "over the delay edges) per model",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_dataflow = sub.add_parser(
        "dataflow",
        help="per-thread dataflow facts (address sets, dead code, "
        "dependencies) + speculation-safety verdicts",
    )
    p_dataflow.add_argument("test", help="test name or .litmus file")
    p_dataflow.add_argument(
        "--model",
        "-m",
        action="append",
        default=None,
        help="model for speculation-safety verdicts (repeatable)",
    )
    p_dataflow.set_defaults(func=cmd_dataflow)

    p_run = sub.add_parser("run", help="run a litmus test (library name or file)")
    p_run.add_argument("test")
    add_common(p_run)
    p_run.add_argument("--strict", action="store_true", help=strict_help)
    p_run.add_argument("--dot", metavar="PATH", help="write a witness graph as Graphviz")
    p_run.add_argument(
        "--no-lint",
        dest="no_lint",
        action="store_true",
        help="skip the automatic pre-run lint",
    )
    p_run.set_defaults(func=cmd_run)

    p_enum = sub.add_parser("enumerate", help="enumerate all behaviors of a test")
    p_enum.add_argument(
        "test", nargs="?", help="test name/file (omit with --resume or --library)"
    )
    add_common(p_enum)
    p_enum.add_argument("--strict", action="store_true", help=strict_help)
    p_enum.add_argument("--graphs", type=int, default=0, help="print the first N graphs")
    p_enum.add_argument(
        "--library",
        action="store_true",
        help="enumerate every library test under each --model (summary rows)",
    )
    p_enum.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="with --library, fan (test, model) pairs across N worker processes",
    )
    p_enum.add_argument(
        "--max-behaviors", type=int, default=None, help="behavior-exploration budget"
    )
    p_enum.add_argument(
        "--max-executions", type=int, default=None, help="kept-execution budget"
    )
    p_enum.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="where to save a resumable checkpoint if the search is budget-limited",
    )
    p_enum.add_argument(
        "--resume",
        metavar="PATH",
        help="resume an interrupted search from a checkpoint file",
    )
    p_enum.add_argument(
        "--no-lint",
        dest="no_lint",
        action="store_true",
        help="skip the automatic pre-enumeration lint",
    )
    p_enum.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="memoize enumerations in a persistent behavior cache under DIR "
        "(repeat runs become near-free hits; see docs/api.md)",
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_matrix = sub.add_parser("matrix", help="run the litmus × model matrix")
    p_matrix.add_argument("--models", default="sc,tso,pso,weak,weak-corr")
    p_matrix.add_argument("--tests", default=None, help="comma-separated test names")
    p_matrix.add_argument("--max-nodes", type=int, default=64)
    p_matrix.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per enumeration (partial cells marked ~)",
    )
    p_matrix.add_argument("--strict", action="store_true", help=strict_help)
    p_matrix.set_defaults(func=cmd_matrix)

    p_ws = sub.add_parser("wellsync", help="check the §8 well-sync discipline")
    p_ws.add_argument("test")
    add_common(p_ws, multi_model=False, partial=False)
    p_ws.add_argument("--sync", default="", help="comma-separated sync locations")
    p_ws.set_defaults(func=cmd_wellsync)

    p_robust = sub.add_parser(
        "robust", help="check SC-robustness of a test under a weak model"
    )
    p_robust.add_argument("test", nargs="?", help="test name/file (omit with --library)")
    add_common(p_robust)
    p_robust.add_argument(
        "--static",
        action="store_true",
        help="certify robustness statically (no enumeration), with "
        "minimal repairs attached to refutations",
    )
    p_robust.add_argument(
        "--library",
        action="store_true",
        help="static robustness certificates for the whole litmus "
        "library under each --model",
    )
    p_robust.add_argument(
        "--portability",
        metavar="MODEL",
        help="lattice portability: verified under MODEL, which cycles "
        "break under each weaker model and which fences repair them",
    )
    p_robust.set_defaults(func=cmd_robust)

    p_delays = sub.add_parser(
        "delays", help="Shasha-Snir delay-set analysis of a test"
    )
    p_delays.add_argument("test")
    add_common(p_delays, multi_model=False)
    p_delays.add_argument(
        "--verify",
        action="store_true",
        help="also fence the delays and verify SC-robustness by enumeration",
    )
    p_delays.set_defaults(func=cmd_delays)

    p_fences = sub.add_parser("fences", help="synthesize minimal fences")
    p_fences.add_argument("test")
    add_common(p_fences, multi_model=False)
    p_fences.add_argument("--max-fences", type=int, default=None)
    p_fences.add_argument(
        "--max-subsets",
        type=int,
        default=None,
        metavar="N",
        help="cap the enumerative search at N fenced variants; exceeding "
        "it returns an honest partial result",
    )
    p_fences.add_argument(
        "--robust",
        action="store_true",
        help="synthesize for SC-robustness (behavior signature collapses "
        "to SC) instead of forbidding the test's condition",
    )
    p_fences.add_argument(
        "--static",
        action="store_true",
        help="compute the minimal robust fence sets statically (set "
        "cover over delay edges — no enumeration)",
    )
    p_fences.add_argument(
        "--upgrades",
        action="store_true",
        help="with --static, also show the cheapest table-priced mix of "
        "fences and acquire/release upgrades",
    )
    p_fences.add_argument(
        "--verify",
        action="store_true",
        help="run both the static and the enumerative robust synthesis "
        "and require byte-identical minimal sets",
    )
    p_fences.set_defaults(func=cmd_fences)

    p_gen = sub.add_parser(
        "generate", help="synthesize a litmus test from a critical cycle"
    )
    p_gen.add_argument("edges", nargs="+", help="e.g. Fre PodWR Fre PodWR")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_export = sub.add_parser(
        "export", help="write the whole litmus library as .litmus files"
    )
    p_export.add_argument("--out", default="litmus", help="output directory")
    p_export.set_defaults(func=cmd_export)

    p_explain = sub.add_parser(
        "explain",
        help="certify a test's outcome with the constraint solver: a "
        "minimal violated-axiom core plus a forced-ordering cycle when "
        "forbidden, a witness execution when reachable",
    )
    p_explain.add_argument("test")
    add_common(p_explain, multi_model=False, partial=False)
    p_explain.set_defaults(func=cmd_explain)

    p_solve = sub.add_parser(
        "solve",
        help="enumerate behaviors with the SAT/AllSAT constraint solver",
    )
    p_solve.add_argument("test", nargs="?", help="library test name or litmus file")
    p_solve.add_argument(
        "--library", action="store_true", help="solve every library test"
    )
    p_solve.add_argument(
        "--check",
        action="store_true",
        help="cross-validate against the axiomatic enumerator "
        "(loadstore_key byte-identical); exits nonzero on disagreement",
    )
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_fig = sub.add_parser(
        "figures", help="write every paper figure as a Graphviz .dot file"
    )
    p_fig.add_argument("--out", default="figures", help="output directory")
    p_fig.set_defaults(func=cmd_figures)

    p_exp = sub.add_parser("experiments", help="run every paper experiment")
    p_exp.add_argument("--markdown", metavar="PATH", help="also write EXPERIMENTS.md")
    p_exp.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-experiment wall-clock budget; hung experiments become ERROR rows",
    )
    p_exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan the experiments across N worker processes",
    )
    p_exp.set_defaults(func=cmd_experiments)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated programs vs N-way oracles",
    )
    p_fuzz.add_argument(
        "action",
        nargs="?",
        choices=["coverage"],
        help="'coverage DIR' prints a campaign's coverage-grid report "
        "instead of fuzzing",
    )
    p_fuzz.add_argument(
        "dir",
        nargs="?",
        metavar="DIR",
        help="campaign directory (with the 'coverage' action)",
    )
    p_fuzz.add_argument(
        "--budget",
        type=int,
        default=60,
        metavar="N",
        help="number of programs to generate and check (per mutant, "
        "with --mutants)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (deterministic)"
    )
    p_fuzz.add_argument(
        "--profile",
        default="mixed",
        help="generator profile ('mixed' round-robins; see --list-profiles)",
    )
    p_fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan programs across N worker processes (verdicts unchanged)",
    )
    p_fuzz.add_argument(
        "--corpus-dir",
        metavar="DIR",
        help="bank minimized counterexamples as corpus files under DIR",
    )
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report discrepancies without delta-debugging them",
    )
    p_fuzz.add_argument(
        "--mutants",
        action="store_true",
        help="mutation-kill mode: every seeded mutant must be detected, "
        "shrunk, and banked as a replayable reproducer",
    )
    p_fuzz.add_argument(
        "--max-reproducer",
        type=int,
        default=8,
        metavar="N",
        help="with --mutants: maximum instructions allowed in a "
        "minimized reproducer",
    )
    p_fuzz.add_argument(
        "--replay",
        metavar="PATH",
        help="replay a corpus file (or every *.litmus under a directory) "
        "instead of fuzzing",
    )
    p_fuzz.add_argument(
        "--list-oracles", action="store_true", help="list oracles and exit"
    )
    p_fuzz.add_argument(
        "--list-profiles", action="store_true", help="list generator profiles and exit"
    )
    p_fuzz.add_argument(
        "--list-mutants", action="store_true", help="list seeded mutants and exit"
    )
    p_fuzz.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="share a persistent behavior cache across oracles and "
        "campaigns (ignored by --mutants, which must re-enumerate)",
    )
    p_fuzz.add_argument(
        "--campaign-dir",
        metavar="DIR",
        default=None,
        help="coverage-guided mode: persist the campaign (coverage grid, "
        "mutation corpus, RNG cursor, spent budget) under DIR; --budget "
        "adds that many programs to whatever the campaign accumulated",
    )
    p_fuzz.add_argument(
        "--resume",
        action="store_true",
        help="continue the existing campaign in --campaign-dir (required "
        "when the directory already holds one)",
    )
    p_fuzz.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="guided-campaign batch size (coverage feedback folds in at "
        "batch boundaries; pinned per campaign)",
    )
    p_fuzz.add_argument(
        "--export",
        metavar="FILE",
        default=None,
        help="with 'coverage DIR': also write the grid as JSON to FILE",
    )
    p_fuzz.add_argument(
        "--check-superset",
        metavar="FILE",
        default=None,
        help="with 'coverage DIR': exit 1 unless the campaign's grid "
        "covers every cell of the grid JSON in FILE (monotonicity gate)",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_serve = sub.add_parser(
        "serve",
        help="run the crash-safe analysis job server (WAL-backed, "
        "rate-limited; see docs/service.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0, help="0 binds an ephemeral port (printed)"
    )
    p_serve.add_argument(
        "--wal-dir",
        default="service-data",
        help="directory for the write-ahead log and job checkpoints",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="enumeration worker processes (0 = run slices inline)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="bounded submission queue; full queue answers 429",
    )
    p_serve.add_argument(
        "--rate-capacity", type=float, default=10,
        help="token-bucket burst per account",
    )
    p_serve.add_argument(
        "--rate-refill", type=float, default=1.0,
        help="token-bucket refill per second per account",
    )
    p_serve.add_argument(
        "--retries", type=int, default=1,
        help="worker-crash retries before a job is quarantined",
    )
    p_serve.add_argument(
        "--slice", type=int, default=500, metavar="N",
        help="behaviors per checkpointed enumeration slice",
    )
    p_serve.add_argument(
        "--slice-delay", type=float, default=0.0, metavar="SECONDS",
        help="pause between slices (crash-recovery testing knob)",
    )
    p_serve.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on WAL appends (faster, weaker durability)",
    )
    p_serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="behavior cache shared by the submit fast path and the "
        "workers (cached submissions complete instantly)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain a behavior-cache directory"
    )
    p_cache.add_argument(
        "action",
        choices=("stats", "verify"),
        help="stats: store accounting; verify: decode-check every entry "
        "(--full also re-enumerates)",
    )
    p_cache.add_argument("dir", metavar="DIR", help="cache directory")
    p_cache.add_argument(
        "--full",
        action="store_true",
        help="with verify: re-enumerate every entry and compare "
        "loadstore-key sets (slow)",
    )
    p_cache.set_defaults(func=cmd_cache)

    p_submit = sub.add_parser(
        "submit", help="submit an enumeration job to a running server"
    )
    p_submit.add_argument("test", help="test name or .litmus file")
    p_submit.add_argument(
        "--url", default="http://127.0.0.1:8642", help="server base URL"
    )
    add_common(p_submit, multi_model=False)
    p_submit.add_argument(
        "--max-behaviors", type=int, default=None, help="behavior-exploration budget"
    )
    p_submit.add_argument("--account", default="anonymous", help="X-Account header")
    p_submit.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    p_submit.add_argument(
        "--timeout", type=float, default=300.0, help="with --wait: polling timeout"
    )
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser(
        "status", help="query a job (or 'all') on a running server"
    )
    p_status.add_argument("job", help="job id, or 'all' for a summary listing")
    p_status.add_argument(
        "--url", default="http://127.0.0.1:8642", help="server base URL"
    )
    p_status.set_defaults(func=cmd_status)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "model", None) is None and hasattr(args, "model"):
        args.model = ["weak"]
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Reader closed the pipe (e.g. ``repro fuzz coverage DIR | head``)
        # — the POSIX convention is a quiet exit, not a traceback.
        # Reopen stdout on devnull so the interpreter's shutdown flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
