"""Program images: the unit the loader places into platform memories.

A :class:`Program` couples the instruction stream (one entry per IM word)
with an initialized data segment, a symbol table and optional source-line
mapping.  Both the assembler and the minic compiler produce programs; the
platform loader consumes them.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from .encoding import decode, encode
from .instruction import Instruction

_SOURCE_LINE_RE = re.compile(r"\(line (\d+)\)")


@dataclass(frozen=True, slots=True)
class DataBlock:
    """An initialized region of data memory.

    :param address: absolute DM word address of the first word.
    :param values: the 16-bit word values (unsigned representation).
    """

    address: int
    values: tuple[int, ...]

    @property
    def end(self) -> int:
        return self.address + len(self.values)


@dataclass(slots=True)
class Program:
    """An executable image for the multi-core platform.

    :param instructions: decoded instruction stream, index == IM address.
    :param data: initialized DM regions.
    :param symbols: label -> address (IM for code labels, DM for data labels).
    :param entry: IM address execution starts at.
    :param source_map: IM address -> human-readable origin (for diagnostics).
    """

    instructions: list[Instruction] = field(default_factory=list)
    data: list[DataBlock] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    entry: int = 0
    source_map: dict[int, str] = field(default_factory=dict)
    #: lazily-built predecoded dispatch records (see
    #: :func:`repro.cpu.predecode.predecode`); cached here so every
    #: machine running this image shares one compilation.
    _decode_cache: list | None = field(default=None, repr=False,
                                       compare=False)
    #: lazily-computed content digest (see :meth:`digest`)
    _digest_cache: str | None = field(default=None, repr=False,
                                      compare=False)

    def __len__(self) -> int:
        return len(self.instructions)

    def line_of(self, pc: int) -> int | None:
        """Source line number of the instruction at ``pc``, if recorded.

        Parses the ``"MNEMONIC (line N)"`` convention both toolchains use
        when filling :attr:`source_map` — the anchor diagnostics tools
        (assembler errors, synclint) report to the programmer.
        """
        origin = self.source_map.get(pc)
        if not origin:
            return None
        match = _SOURCE_LINE_RE.search(origin)
        return int(match.group(1)) if match else None

    def predecoded(self) -> list:
        """Predecoded ``(kind, run)`` dispatch records, index == address.

        Compiled on first use and cached; the cache assumes the
        instruction stream is not mutated afterwards (program images are
        treated as immutable once loaded).
        """
        if self._decode_cache is None:
            from ..cpu.predecode import predecode

            self._decode_cache = predecode(self.instructions)
        return self._decode_cache

    def digest(self) -> str:
        """Content hash of the built image: code bits, entry, data, symbols.

        Two programs with equal digests load identically into platform
        memories, so anything derived purely from the image — predecoded
        records, fused superblocks, cached sweep results — may be shared
        between them.  Cached after the first call (images are treated as
        immutable once loaded).
        """
        if self._digest_cache is None:
            h = hashlib.sha256()
            h.update(self.to_binary())
            h.update(f"entry={self.entry};".encode())
            for block in self.data:
                h.update(f"@{block.address}:".encode())
                h.update(",".join(map(str, block.values)).encode())
            for name, address in sorted(self.symbols.items()):
                h.update(f"{name}={address};".encode())
            self._digest_cache = h.hexdigest()
        return self._digest_cache

    def to_binary(self) -> bytes:
        """Encode the instruction stream as little-endian 16-bit words."""
        out = bytearray()
        for ins in self.instructions:
            word = encode(ins)
            out += word.to_bytes(2, "little")
        return bytes(out)

    @classmethod
    def from_binary(cls, blob: bytes, *, entry: int = 0) -> "Program":
        """Decode a binary image produced by :meth:`to_binary`."""
        if len(blob) % 2:
            raise ValueError("binary image must be an even number of bytes")
        instructions = [
            decode(int.from_bytes(blob[i:i + 2], "little"))
            for i in range(0, len(blob), 2)
        ]
        return cls(instructions=instructions, entry=entry)

    def listing(self) -> str:
        """Render a disassembly listing with addresses and symbols."""
        addr_labels: dict[int, list[str]] = {}
        for name, addr in self.symbols.items():
            addr_labels.setdefault(addr, []).append(name)
        lines = []
        for addr, ins in enumerate(self.instructions):
            for label in sorted(addr_labels.get(addr, ())):
                lines.append(f"{label}:")
            lines.append(f"  {addr:5d}  {ins}")
        return "\n".join(lines)
