"""Shared fixtures and program builders for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.isa.dsl import ProgramBuilder
from repro.models.registry import get_model

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    settings = None

if settings is not None:
    # "dev" keeps hypothesis's default randomized exploration for local
    # runs; "ci" derandomizes so a property-test failure in the CI log
    # reproduces exactly with the printed blob.  Select with
    # HYPOTHESIS_PROFILE=ci (the CI workflow exports it).
    settings.register_profile("dev", settings.default)
    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def build_sb():
    """The store-buffering litmus program."""
    builder = ProgramBuilder("SB")
    p0 = builder.thread("P0")
    p0.store("x", 1)
    p0.load("r1", "y")
    p1 = builder.thread("P1")
    p1.store("y", 1)
    p1.load("r2", "x")
    return builder.build()


def build_mp():
    """The message-passing litmus program."""
    builder = ProgramBuilder("MP")
    p0 = builder.thread("P0")
    p0.store("x", 1)
    p0.store("flag", 1)
    p1 = builder.thread("P1")
    p1.load("r1", "flag")
    p1.load("r2", "x")
    return builder.build()


def build_single_thread():
    """A single thread exercising ALU + memory dataflow."""
    builder = ProgramBuilder("single")
    t = builder.thread("T")
    t.store("x", 5)
    t.load("r1", "x")
    t.add("r2", "r1", 10)
    t.store("y", "r2")
    t.load("r3", "y")
    return builder.build()


def build_branchy():
    """A thread whose store happens only when the loaded flag is set."""
    builder = ProgramBuilder("branchy")
    p0 = builder.thread("P0")
    p0.store("flag", 1)
    p1 = builder.thread("P1")
    p1.load("r1", "flag")
    p1.beqz("r1", "skip")
    p1.store("x", 7)
    p1.label("skip")
    p1.load("r2", "x")
    return builder.build()


def build_loop(bound_register: int = 2):
    """A thread that spins loading a flag another thread eventually sets.

    The loop is bounded by a countdown so enumeration stays finite.
    """
    builder = ProgramBuilder("loop")
    p0 = builder.thread("P0")
    p0.store("flag", 1)
    p1 = builder.thread("P1")
    p1.mov("r9", bound_register)
    p1.label("again")
    p1.load("r1", "flag")
    p1.bnez("r1", "done")
    p1.compute("r9", "sub", "r9", 1)  # type: ignore[arg-type]
    p1.bnez("r9", "again")
    p1.label("done")
    p1.load("r2", "flag")
    return builder.build()


@pytest.fixture
def sb_program():
    return build_sb()


@pytest.fixture
def mp_program():
    return build_mp()


@pytest.fixture
def weak():
    return get_model("weak")


@pytest.fixture
def sc():
    return get_model("sc")


@pytest.fixture
def tso():
    return get_model("tso")
