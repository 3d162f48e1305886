"""Mixed-size memory accesses by desugaring (paper §8).

    "We assumed all reads and writes accessed fixed-size, aligned words;
    in practice, loads and stores occur at many granularities from a
    single byte to whole cache blocks.  A faithful model can potentially
    match a Load up with several Store operations, each providing a
    portion of the data being read."

A ``width``-byte location ``x`` is modeled as byte cells ``x#0 … x#w-1``
(little-endian).  A wide store writes each cell; a wide load reads each
cell and recombines the bytes with ALU ops — so the wide load's value
genuinely comes from *several* store operations, one per byte, exactly
the matching the paper describes.

Single-copy atomicity is optional and orthogonal: wrapping each wide
access in an :class:`~repro.tm.AtomicBlock` (reusing the transactional
machinery) restores it; without the blocks, racing wide accesses can
*tear*, observing bytes from different stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProgramError
from repro.isa.dsl import ProgramBuilder, ThreadBuilder
from repro.isa.instructions import FenceKind
from repro.isa.operands import Reg
from repro.isa.program import Program
from repro.tm.blocks import AtomicBlock

_BYTE = 256


def byte_cell(location: str, index: int) -> str:
    """The name of byte ``index`` of wide location ``location``."""
    return f"{location}#{index}"


def split_bytes(value: int, width: int) -> list[int]:
    """Little-endian byte decomposition; validates the value fits."""
    if not 0 <= value < _BYTE**width:
        raise ProgramError(f"value {value} does not fit in {width} byte(s)")
    return [(value >> (8 * k)) & 0xFF for k in range(width)]


def combine_bytes(cells: list[int]) -> int:
    return sum(byte << (8 * k) for k, byte in enumerate(cells))


@dataclass
class WideThread:
    """A thread builder with wide (multi-byte) memory operations.

    Wide operations record the atomic block covering their desugared
    instructions; :meth:`MultibyteBuilder.build` returns those blocks so
    callers can choose single-copy-atomic semantics (pass the blocks to
    :func:`repro.tm.enumerate_transactional`) or plain, tearing-prone
    semantics (ignore them).
    """

    inner: ThreadBuilder
    blocks: list[AtomicBlock]
    _position: int = 0
    _temp_counter: int = 0

    def _temp(self) -> str:
        self._temp_counter += 1
        return f"r_wide{self._temp_counter}"

    def _advance(self, count: int) -> None:
        self._position += count

    def wide_store(self, location: str, value: int | Reg, width: int) -> "WideThread":
        """Store ``value`` across ``width`` byte cells (little-endian)."""
        start = self._position
        if isinstance(value, Reg):
            # Extract bytes with mod/div chains on a running quotient.
            quotient = value.name
            for index in range(width):
                byte_reg = self._temp()
                self.inner.compute(byte_reg, "mod", Reg(quotient), _BYTE)
                self.inner.store(byte_cell(location, index), Reg(byte_reg))
                if index + 1 < width:
                    next_quotient = self._temp()
                    self.inner.compute(next_quotient, "div", Reg(quotient), _BYTE)
                    quotient = next_quotient
                self._advance(3 if index + 1 < width else 2)
        else:
            for index, byte in enumerate(split_bytes(value, width)):
                self.inner.store(byte_cell(location, index), byte)
                self._advance(1)
        self.blocks.append(AtomicBlock(self.inner.name, start, self._position))
        return self

    def wide_load(self, dst: str | Reg, location: str, width: int) -> "WideThread":
        """Load ``width`` byte cells and recombine them into ``dst``."""
        start = self._position
        byte_regs = []
        for index in range(width):
            byte_reg = self._temp()
            self.inner.load(byte_reg, byte_cell(location, index))
            byte_regs.append(byte_reg)
            self._advance(1)
        # dst = b0 + 256*b1 + 65536*b2 + ...
        accumulator = byte_regs[0]
        for index, byte_reg in enumerate(byte_regs[1:], start=1):
            scaled = self._temp()
            self.inner.compute(scaled, "mul", Reg(byte_reg), _BYTE**index)
            summed = self._temp()
            self.inner.compute(summed, "add", Reg(accumulator), Reg(scaled))
            accumulator = summed
            self._advance(2)
        destination = dst if isinstance(dst, Reg) else Reg(dst)
        self.inner.mov(destination, Reg(accumulator))
        self._advance(1)
        self.blocks.append(AtomicBlock(self.inner.name, start, self._position))
        return self

    def byte_store(self, location: str, index: int, value: int) -> "WideThread":
        """A single-byte store into one cell of a wide location."""
        self.inner.store(byte_cell(location, index), value)
        self._advance(1)
        return self

    def fence(self, kind: FenceKind = FenceKind.FULL) -> "WideThread":
        self.inner.fence(kind)
        self._advance(1)
        return self


@dataclass
class MultibyteBuilder:
    """Builds programs with wide accesses plus their atomicity blocks."""

    name: str = "multibyte"
    _builder: ProgramBuilder = field(init=False)
    _threads: list[WideThread] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self._builder = ProgramBuilder(self.name)

    def thread(self, name: str | None = None) -> WideThread:
        wide = WideThread(self._builder.thread(name), [])
        self._threads.append(wide)
        return wide

    def init_wide(self, location: str, value: int, width: int) -> "MultibyteBuilder":
        for index, byte in enumerate(split_bytes(value, width)):
            self._builder.init(byte_cell(location, index), byte)
        return self

    def build(self) -> tuple[Program, tuple[AtomicBlock, ...]]:
        """The desugared program and the single-copy-atomicity blocks."""
        program = self._builder.build()
        blocks = tuple(block for thread in self._threads for block in thread.blocks)
        return program, blocks
