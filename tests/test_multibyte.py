"""Tests for the mixed-size access extension."""

import pytest

from repro.errors import ProgramError
from repro.core.enumerate import enumerate_behaviors
from repro.isa.operands import Reg
from repro.models.registry import get_model
from repro.multibyte import MultibyteBuilder, byte_cell, combine_bytes, split_bytes
from repro.tm import enumerate_transactional


class TestByteHelpers:
    def test_split_little_endian(self):
        assert split_bytes(0x0201, 2) == [0x01, 0x02]
        assert split_bytes(0, 3) == [0, 0, 0]
        assert split_bytes(0x123456, 3) == [0x56, 0x34, 0x12]

    def test_split_range_checked(self):
        with pytest.raises(ProgramError):
            split_bytes(256, 1)
        with pytest.raises(ProgramError):
            split_bytes(-1, 2)

    def test_combine_inverts_split(self):
        for value, width in ((0, 1), (255, 1), (0x0102, 2), (0xABCDEF, 3)):
            assert combine_bytes(split_bytes(value, width)) == value

    def test_byte_cell_names(self):
        assert byte_cell("x", 0) == "x#0"
        assert byte_cell("x", 1) == "x#1"


class TestDesugaring:
    def test_constant_store_and_load_round_trip(self):
        builder = MultibyteBuilder("rt")
        thread = builder.thread("T")
        thread.wide_store("x", 0x0304, 2)
        thread.fence()
        thread.wide_load("r9", "x", 2)
        program, _ = builder.build()
        (execution,) = enumerate_behaviors(program, get_model("sc")).executions
        assert execution.final_registers()[("T", "r9")] == 0x0304

    def test_register_valued_wide_store(self):
        builder = MultibyteBuilder("reg")
        thread = builder.thread("T")
        thread.inner.mov("r1", 0x0506)
        thread._advance(1)
        thread.wide_store("x", Reg("r1"), 2)
        thread.fence()
        thread.wide_load("r9", "x", 2)
        program, _ = builder.build()
        (execution,) = enumerate_behaviors(program, get_model("sc")).executions
        assert execution.final_registers()[("T", "r9")] == 0x0506

    def test_wide_init(self):
        builder = MultibyteBuilder("init")
        builder.init_wide("x", 0x0708, 2)
        builder.thread("T").wide_load("r9", "x", 2)
        program, _ = builder.build()
        (execution,) = enumerate_behaviors(program, get_model("sc")).executions
        assert execution.final_registers()[("T", "r9")] == 0x0708

    def test_three_byte_width(self):
        builder = MultibyteBuilder("w3")
        thread = builder.thread("T")
        thread.wide_store("x", 0x030201, 3)
        thread.fence()
        thread.wide_load("r9", "x", 3)
        program, _ = builder.build()
        (execution,) = enumerate_behaviors(program, get_model("sc")).executions
        assert execution.final_registers()[("T", "r9")] == 0x030201

    def test_blocks_cover_desugared_ranges(self):
        builder = MultibyteBuilder("blocks")
        thread = builder.thread("T")
        thread.wide_store("x", 1, 2)
        thread.wide_load("r9", "x", 2)
        program, blocks = builder.build()
        assert len(blocks) == 2
        store_block, load_block = blocks
        assert (store_block.start, store_block.end) == (0, 2)
        # 2 loads + mul + add + mov = 5 instructions
        assert (load_block.start, load_block.end) == (2, 7)
        assert load_block.end == len(program.threads[0].code)


class TestTearing:
    def test_torn_values_under_plain_sc(self):
        builder = MultibyteBuilder("tear")
        builder.thread("W").wide_store("x", 0x0101, 2)
        builder.thread("R").wide_load("r9", "x", 2)
        program, _ = builder.build()
        result = enumerate_behaviors(program, get_model("sc"))
        values = {execution.final_registers()[("R", "r9")] for execution in result.executions}
        assert values == {0x0000, 0x0001, 0x0100, 0x0101}
        assert len(result) == 4

    def test_atomic_blocks_restore_single_copy(self):
        builder = MultibyteBuilder("tear")
        builder.thread("W").wide_store("x", 0x0101, 2)
        builder.thread("R").wide_load("r9", "x", 2)
        program, blocks = builder.build()
        result = enumerate_transactional(program, blocks, "sc")
        values = {execution.final_registers()[("R", "r9")] for execution in result.executions}
        assert values == {0x0000, 0x0101}
        assert result.rejected > 0

    def test_byte_store_merges_into_wide_load(self):
        builder = MultibyteBuilder("merge")
        builder.thread("W").wide_store("x", 0x0201, 2)
        builder.thread("B").byte_store("x", 0, 0xFF)
        builder.thread("R").wide_load("r9", "x", 2)
        program, blocks = builder.build()
        values = {
            execution.final_registers()[("R", "r9")]
            for execution in enumerate_transactional(program, blocks, "sc").executions
        }
        assert 0x02FF in values  # high byte from W, low byte from B
