"""The outside-in tracer: self-time arithmetic, wrapping and restoring."""

from __future__ import annotations

import sys
import threading
import types

import pytest

import repro.core
import repro.core.atomicity
import repro.core.enumerate
import repro.core.execution
import repro.testing.oracles
from perfbench.tracer import (
    ENGINE_TARGETS,
    SERVER_TARGETS,
    Span,
    Tracer,
    load_spans,
    seconds_under,
    self_times,
    summarize,
    write_spans,
)
from repro.core.execution import Execution
from repro.litmus.library import get_test
from repro.models import get_model


def test_self_time_subtracts_children_per_thread():
    spans = [
        # thread 0: A covers B and C; B covers D
        Span(0, -1, "A", 0, 0, 0.0, 10.0),
        Span(1, 0, "B", 0, 0, 1.0, 4.0),
        Span(2, 1, "D", 0, 0, 2.0, 3.0),
        Span(3, 0, "C", 0, 0, 5.0, 6.0),
        # thread 1, running at the same time: its spans never reduce A
        Span(4, -1, "E", 1, 1, 0.0, 8.0),
        Span(5, 4, "F", 1, 1, 2.0, 3.0),
        Span(6, 4, "G", 1, 1, 2.5, 5.0),  # overlaps F: the union counts once
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 5.0, 5: 1.0, 6: 2.5})
    totals = summarize(spans)
    assert totals["A"].calls == 1 and totals["A"].self_seconds == pytest.approx(6.0)
    assert seconds_under(spans, {"B", "D"}, "A") == pytest.approx(3.0)  # D nests in B
    assert seconds_under(spans, {"F"}, "A") == 0.0


def _bindings(originals: set[int]) -> dict[tuple[str, str], object]:
    """Every repro module attribute that holds one of ``originals``."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if id(value) in originals:
                found[(name, attribute)] = value
    return found


def test_tracer_wraps_every_binding_and_restores_the_originals():
    import importlib

    for target in ENGINE_TARGETS + SERVER_TARGETS:
        importlib.import_module(target.module)
    closure = repro.core.atomicity.close_store_atomicity
    enumerate_behaviors = repro.core.enumerate.enumerate_behaviors
    registry = repro.testing.oracles.ORACLES
    copy = Execution.__dict__["copy"]
    before = _bindings({id(closure), id(enumerate_behaviors), id(registry)})
    assert ("repro.core.execution", "close_store_atomicity") in before
    assert ("repro.core", "close_store_atomicity") in before

    probe = types.ModuleType("repro._trace_probe")
    with Tracer():
        for key in before:
            assert getattr(sys.modules[key[0]], key[1]) is not before[key], key
        assert Execution.__dict__["copy"] is not copy
        # A module imported while tracing copies the wrapper; exit restores it.
        probe.enumerate_behaviors = repro.core.enumerate.enumerate_behaviors
        sys.modules[probe.__name__] = probe
    del sys.modules[probe.__name__]
    assert probe.enumerate_behaviors is enumerate_behaviors
    assert _bindings({id(closure), id(enumerate_behaviors), id(registry)}) == before
    for key, value in before.items():
        assert getattr(sys.modules[key[0]], key[1]) is value
    assert Execution.__dict__["copy"] is copy


def test_spans_nest_per_thread_and_carry_requests(tmp_path):
    program = get_test("WRC").program
    tracer = Tracer()
    with tracer:
        def work(request):
            tracer.set_request(request)
            repro.core.enumerate.enumerate_behaviors(program, get_model("weak"))

        threads = [threading.Thread(target=work, args=(index,)) for index in (7, 8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    spans = tracer.spans()
    by_id = {span.sid: span for span in spans}
    roots = [span for span in spans if span.parent < 0]
    assert sorted(span.request for span in roots if span.name == "core.enumerate") == [7, 8]
    for span in spans:
        if span.parent >= 0:
            parent = by_id[span.parent]
            assert parent.thread == span.thread
            assert parent.start <= span.start and span.end <= parent.end
            assert span.request == parent.request
    assert {"core.atomicity.close", "core.execution.copy"} <= {span.name for span in spans}
    assert tracer.counts["core.enumerate.explored"] > 0

    path = tmp_path / "spans.jsonl.gz"
    write_spans(path, spans, tracer.counts)
    loaded, counts = load_spans(path)
    assert [(s.sid, s.parent, s.name, s.request) for s in loaded] == [
        (s.sid, s.parent, s.name, s.request) for s in spans
    ]
    assert counts == tracer.counts
