"""Tests for imposed orderings (§3.3) and the dedup ablation."""

import pytest

from repro.errors import AtomicityViolation, CycleError
from repro.core.enumerate import _enumerate_full_eligibility, enumerate_behaviors
from repro.core.serialization import all_serializations
from repro.models.registry import get_model


def _keys(result) -> list[str]:
    return sorted(repr(e.loadstore_key()) for e in result.executions)


class TestImpose:
    def test_impose_narrows_serializations(self, sb_program, weak):
        """§3.3: extra edges rule out behaviors but never add them."""
        execution = enumerate_behaviors(sb_program, weak).executions[0]
        u, v = next(
            (a, b)
            for a, b in execution.graph.unordered_pairs()
            if execution.graph.node(a).is_memory and execution.graph.node(b).is_memory
        )
        baseline = {tuple(order) for order in all_serializations(execution)}
        constrained = execution.copy()
        constrained.impose(u, v)
        narrowed = {tuple(order) for order in all_serializations(constrained)}
        assert narrowed <= baseline
        assert all(order.index(u) < order.index(v) for order in narrowed)

    def test_impose_reruns_closure(self):
        """Figure 7 in miniature: imposing one ordering exposes another."""
        from repro.experiments.fig7 import S1, S2, build_program
        from repro.experiments.base import executions_where, node_at

        enumeration = enumerate_behaviors(build_program(), get_model("weak"))
        execution = executions_where(enumeration, r5=2, r6=3)[0]
        s1 = node_at(execution, *S1)
        s2 = node_at(execution, *S2)
        if execution.graph.ordered(s1.nid, s2.nid):
            pytest.skip("chosen execution already orders S1/S2")
        execution.impose(s1.nid, s2.nid)
        assert execution.graph.before(s1.nid, s2.nid)

    def test_inconsistent_imposition_rejected(self, sb_program, weak):
        execution = enumerate_behaviors(sb_program, weak).executions[0]
        ordered = next(
            (u, v)
            for u in range(len(execution.graph))
            for v in range(len(execution.graph))
            if u != v and execution.graph.before(u, v)
        )
        with pytest.raises((CycleError, AtomicityViolation)):
            execution.impose(ordered[1], ordered[0])


class TestDedupAblation:
    def test_same_behavior_set_without_dedup(self, sb_program, weak):
        with_dedup = enumerate_behaviors(sb_program, weak, dedup=True)
        without = enumerate_behaviors(sb_program, weak, dedup=False)
        assert with_dedup.register_outcomes() == without.register_outcomes()
        assert len(with_dedup) == len(without)

    def test_dedup_saves_exploration(self, weak):
        """§4.1's dedup, on the paper's procedure (every eligible load
        branched on), where resolution orders meet."""
        from repro.experiments.scaling import chain_program

        program = chain_program(3)
        with_dedup = _enumerate_full_eligibility(program, weak, dedup=True)
        without = _enumerate_full_eligibility(program, weak, dedup=False)
        assert without.stats.explored > with_dedup.stats.explored
        assert with_dedup.register_outcomes() == without.register_outcomes()
        assert with_dedup.stats.duplicates > 0
        assert without.stats.duplicates == 0

    def test_stable_search_needs_no_dedup(self, weak):
        """The stable-load reduction reaches the same executions as the
        deduplicated paper procedure with no more resolutions, and
        without dedup it explores nothing twice."""
        from repro.experiments.scaling import chain_program

        program = chain_program(3)
        full = _enumerate_full_eligibility(program, weak, dedup=True)
        stable = enumerate_behaviors(program, weak, dedup=True)
        undeduped = enumerate_behaviors(program, weak, dedup=False)
        assert _keys(stable) == _keys(full) == _keys(undeduped)
        assert stable.stats.resolutions <= full.stats.resolutions
        assert undeduped.stats == stable.stats
