"""Two-pass assembler for the ``ulp16`` ISA.

Supported syntax::

    ; comment              // comment
    label:                 ; binds to the current code or data address
    .equ NAME expr         ; assembler constant (must precede use)
    .entry label           ; program entry point (default: address 0)
    .org addr              ; set the code origin
    .data addr             ; switch to data emission at DM address `addr`
    .code                  ; switch back to code emission
    .word e0, e1, ...      ; emit initialized data words
    .space n               ; reserve n zero-initialized data words

    ADD R0, R1, R2         ; R-type
    ADDI R0, R1, #-3       ; immediates accept '#' or bare expressions
    LD  R0, [R1 + #2]      ; memory operands, offset optional
    ST  R0, [R1]
    BEQ label              ; short conditional branch (pc-relative, 8 bit)
    LBNE label             ; long branch pseudo: inverted Bcc over a JMP
    JMP label              ; absolute jump
    LI  R0, #0x1234        ; load-immediate pseudo (LDI or LUI+ORI)
    RET / NEG / NOT / INC / DEC / CLR  ; other pseudos

Expressions support decimal/hex/binary literals, symbols, unary minus,
``+``/``-``/``*`` and ``lo(expr)`` / ``hi(expr)`` byte extraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .instruction import Instruction
from .program import DataBlock, Program
from .spec import (
    Cond,
    Opcode,
    ShiftOp,
    SysOp,
    SpecialReg,
    IMM8_MIN,
    IMM8_MAX,
    REG_ALIASES,
    to_unsigned16,
)


class AssemblyError(ValueError):
    """A syntax or semantic error in assembly source."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>0[xX][0-9a-fA-F]+|0[bB][01]+|\d+)"
    r"|(?P<sym>[A-Za-z_.$][\w.$]*)"
    r"|(?P<punct>[#,\[\]()+\-*]))"
)

_COND_MNEMONICS = {f"B{c.name}": c for c in Cond}
_LONG_COND_MNEMONICS = {f"LB{c.name}": c for c in Cond}
_COND_INVERSE = {
    Cond.EQ: Cond.NE, Cond.NE: Cond.EQ,
    Cond.LT: Cond.GE, Cond.GE: Cond.LT,
    Cond.LE: Cond.GT, Cond.GT: Cond.LE,
    Cond.LTU: Cond.GEU, Cond.GEU: Cond.LTU,
}

_R3_MNEMONICS = {
    "ADD": Opcode.ADD, "SUB": Opcode.SUB, "AND": Opcode.AND,
    "OR": Opcode.OR, "XOR": Opcode.XOR, "ADC": Opcode.ADC,
    "SBC": Opcode.SBC, "MUL": Opcode.MUL, "MULH": Opcode.MULH,
    "SLL": Opcode.SLL, "SRL": Opcode.SRL, "SRA": Opcode.SRA,
}
_SHIFT_MNEMONICS = {
    "SLLI": ShiftOp.SLLI, "SRLI": ShiftOp.SRLI, "SRAI": ShiftOp.SRAI,
}
_SYS_MNEMONICS = {s.name: s for s in SysOp}
_SREG_NAMES = {s.name: int(s) for s in SpecialReg}


@dataclass
class _Item:
    """One statement scheduled for emission in pass 2."""

    kind: str                 # 'ins' | 'li' | 'lb' | 'branch'
    mnemonic: str
    operands: list[list[tuple[str, str]]]
    line: int
    address: int = 0
    size: int = 1


@dataclass
class Assembler:
    """Two-pass assembler producing :class:`~repro.isa.program.Program`."""

    symbols: dict[str, int] = field(default_factory=dict)

    def assemble(self, source: str, *, origin: int = 0) -> Program:
        """Assemble ``source`` into a program image."""
        self._equates: dict[str, int] = {}
        self._labels: dict[str, int] = dict(self.symbols)
        items: list[_Item] = []
        data_blocks: list[tuple[int, list[object]]] = []
        entry_symbol: str | None = None

        mode = "code"
        code_addr = origin
        data_addr = 0
        current_block: tuple[int, list[object]] | None = None

        def flush_block() -> None:
            nonlocal current_block
            if current_block is not None and current_block[1]:
                data_blocks.append(current_block)
            current_block = None

        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw).strip()
            while True:
                m = _LABEL_RE.match(line)
                if not m:
                    break
                name = m.group(1)
                if name in self._labels or name in self._equates:
                    raise AssemblyError(f"duplicate symbol {name!r}", lineno)
                self._labels[name] = code_addr if mode == "code" else data_addr
                line = line[m.end():].strip()
            if not line:
                continue

            head, _, rest = line.partition(" ")
            head_up = head.upper()

            if head_up == ".EQU":
                name, expr = _split_equ(rest, lineno)
                self._equates[name] = self._eval_const(expr, lineno)
                continue
            if head_up == ".ENTRY":
                entry_symbol = rest.strip()
                continue
            if head_up == ".ORG":
                code_addr = self._eval_const(rest, lineno)
                mode = "code"
                continue
            if head_up == ".DATA":
                flush_block()
                data_addr = self._eval_const(rest, lineno)
                current_block = (data_addr, [])
                mode = "data"
                continue
            if head_up == ".CODE":
                flush_block()
                mode = "code"
                continue
            if head_up == ".WORD":
                if mode != "data":
                    raise AssemblyError(".word outside .data section", lineno)
                assert current_block is not None
                for part in _split_operands(rest):
                    current_block[1].append((part, lineno))
                    data_addr += 1
                continue
            if head_up == ".SPACE":
                if mode != "data":
                    raise AssemblyError(".space outside .data section", lineno)
                assert current_block is not None
                count = self._eval_const(rest, lineno)
                current_block[1].extend([0] * count)
                data_addr += count
                continue
            if head_up.startswith("."):
                raise AssemblyError(f"unknown directive {head}", lineno)

            if mode != "code":
                raise AssemblyError("instruction inside .data section", lineno)
            item = self._parse_statement(head_up, rest, lineno)
            item.address = code_addr
            code_addr += item.size
            items.append(item)

        flush_block()

        # Pass 2: resolve symbols and emit.
        program = Program()
        program.symbols = dict(self._labels)
        program.symbols.update(self._equates)
        for item in items:
            for ins in self._emit(item):
                if len(program.instructions) < item.address:
                    pad = item.address - len(program.instructions)
                    program.instructions.extend([Instruction(Opcode.SYS)] * pad)
                program.instructions.append(ins)
                program.source_map[len(program.instructions) - 1] = (
                    f"{item.mnemonic} (line {item.line})")
        for base, entries in data_blocks:
            values = []
            for entry in entries:
                if isinstance(entry, int):
                    values.append(entry)
                else:
                    expr, lineno = entry
                    values.append(to_unsigned16(self._eval(expr, lineno)))
            program.data.append(DataBlock(base, tuple(values)))
        if entry_symbol is not None:
            if entry_symbol not in program.symbols:
                raise AssemblyError(f"unknown entry symbol {entry_symbol!r}")
            program.entry = program.symbols[entry_symbol]
        return program

    # ------------------------------------------------------------------
    # Parsing helpers
    # ------------------------------------------------------------------

    def _parse_statement(self, mnemonic: str, rest: str, line: int) -> _Item:
        operands = [_tokenize(part, line) for part in _split_operands(rest)]
        if mnemonic == "LI":
            if len(operands) != 2:
                raise AssemblyError("LI needs register, immediate", line)
            size = self._li_size(operands[1], line)
            return _Item("li", mnemonic, operands, line, size=size)
        if mnemonic in _LONG_COND_MNEMONICS:
            return _Item("lb", mnemonic, operands, line, size=2)
        return _Item("ins", mnemonic, operands, line, size=1)

    def _li_size(self, tokens: list[tuple[str, str]], line: int) -> int:
        """LI is 1 instruction iff the value is a known simm8 constant."""
        try:
            value = self._eval_tokens(tokens, line, allow_labels=False)
        except AssemblyError:
            return 2
        return 1 if IMM8_MIN <= value <= IMM8_MAX else 2

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit(self, item: _Item) -> list[Instruction]:
        m, ops, line = item.mnemonic, item.operands, item.line

        if item.kind == "li":
            rd = self._reg(ops[0], line)
            value = self._eval_tokens(ops[1], line)
            svalue = to_unsigned16(value)
            if item.size == 1:
                return [Instruction(Opcode.LDI, rd=rd,
                                    imm=_as_simm8(svalue))]
            out = [Instruction(Opcode.LUI, rd=rd, imm=svalue >> 8)]
            if svalue & 0xFF:
                out.append(Instruction(Opcode.ORI, rd=rd, imm=svalue & 0xFF))
            else:
                out.append(Instruction(Opcode.SYS))  # keep sizes stable
            return out

        if item.kind == "lb":
            cond = _LONG_COND_MNEMONICS[m]
            target = self._eval_tokens(ops[0], line)
            return [
                Instruction(Opcode.BCC, cond=_COND_INVERSE[cond], imm=1),
                Instruction(Opcode.JMP, imm=target),
            ]

        if m in _SYS_MNEMONICS:
            if ops:
                raise AssemblyError(f"{m} takes no operands", line)
            return [Instruction(Opcode.SYS, sub=_SYS_MNEMONICS[m])]

        if m in _R3_MNEMONICS:
            rd, rs, rt = (self._reg(o, line) for o in self._arity(ops, 3, m, line))
            return [Instruction(_R3_MNEMONICS[m], rd=rd, rs=rs, rt=rt)]

        if m in ("MOV", "CMP"):
            a, b = self._arity(ops, 2, m, line)
            return [Instruction(Opcode[m], rd=self._reg(a, line),
                                rs=self._reg(b, line))]

        if m in ("NEG", "NOT"):
            a, b = self._arity(ops, 2, m, line)
            rd, rs = self._reg(a, line), self._reg(b, line)
            if rd == rs:
                raise AssemblyError(f"{m} pseudo requires rd != rs", line)
            seed = 0 if m == "NEG" else -1
            op = Opcode.SUB if m == "NEG" else Opcode.XOR
            return [Instruction(Opcode.LDI, rd=rd, imm=seed),
                    Instruction(op, rd=rd, rs=rd, rt=rs)]

        if m in ("INC", "DEC"):
            (a,) = self._arity(ops, 1, m, line)
            rd = self._reg(a, line)
            delta = 1 if m == "INC" else -1
            return [Instruction(Opcode.ADDI, rd=rd, rs=rd, imm=delta)]

        if m == "CLR":
            (a,) = self._arity(ops, 1, m, line)
            return [Instruction(Opcode.LDI, rd=self._reg(a, line), imm=0)]

        if m == "RET":
            if ops:
                raise AssemblyError("RET takes no operands", line)
            return [Instruction(Opcode.JR, rs=7)]

        if m == "ADDI":
            a, b, c = self._arity(ops, 3, m, line)
            return [Instruction(Opcode.ADDI, rd=self._reg(a, line),
                                rs=self._reg(b, line),
                                imm=self._eval_tokens(c, line))]

        if m in ("LDI", "LUI", "ORI"):
            a, b = self._arity(ops, 2, m, line)
            return [Instruction(Opcode[m], rd=self._reg(a, line),
                                imm=self._eval_tokens(b, line))]

        if m == "CMPI":
            a, b = self._arity(ops, 2, m, line)
            return [Instruction(Opcode.CMPI, rd=self._reg(a, line),
                                imm=self._eval_tokens(b, line))]

        if m in _SHIFT_MNEMONICS:
            a, b = self._arity(ops, 2, m, line)
            return [Instruction(Opcode.SHI, rd=self._reg(a, line),
                                sub=_SHIFT_MNEMONICS[m],
                                imm=self._eval_tokens(b, line))]

        if m in ("LD", "ST"):
            a, b = self._arity(ops, 2, m, line)
            base, offset = self._mem_operand(b, line)
            return [Instruction(Opcode[m], rd=self._reg(a, line),
                                rs=base, imm=offset)]

        if m in ("MFSR", "MTSR"):
            a, b = self._arity(ops, 2, m, line)
            if m == "MFSR":
                return [Instruction(Opcode.MFSR, rd=self._reg(a, line),
                                    imm=self._sreg(b, line))]
            return [Instruction(Opcode.MTSR, imm=self._sreg(a, line),
                                rs=self._reg(b, line))]

        if m in _COND_MNEMONICS:
            (a,) = self._arity(ops, 1, m, line)
            target = self._eval_tokens(a, line)
            disp = target - (item.address + 1)
            if not IMM8_MIN <= disp <= IMM8_MAX:
                raise AssemblyError(
                    f"branch to {target} out of range from {item.address}"
                    f" (use L{m})", line)
            return [Instruction(Opcode.BCC, cond=_COND_MNEMONICS[m], imm=disp)]

        if m in ("JMP", "CALL", "BR"):
            (a,) = self._arity(ops, 1, m, line)
            op = Opcode.JMP if m == "BR" else Opcode[m]
            return [Instruction(op, imm=self._eval_tokens(a, line))]

        if m in ("JR", "CALLR"):
            (a,) = self._arity(ops, 1, m, line)
            return [Instruction(Opcode[m], rs=self._reg(a, line))]

        if m in ("SINC", "SDEC"):
            (a,) = self._arity(ops, 1, m, line)
            return [Instruction(Opcode[m], imm=self._eval_tokens(a, line))]

        raise AssemblyError(f"unknown mnemonic {m!r}", line)

    # ------------------------------------------------------------------
    # Operand helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _arity(ops, count: int, mnemonic: str, line: int):
        if len(ops) != count:
            raise AssemblyError(
                f"{mnemonic} expects {count} operand(s), got {len(ops)}", line)
        return ops

    @staticmethod
    def _reg(tokens: list[tuple[str, str]], line: int) -> int:
        if len(tokens) != 1 or tokens[0][0] != "sym":
            raise AssemblyError(f"expected register, got {tokens!r}", line)
        name = tokens[0][1].upper()
        if name in REG_ALIASES:
            return REG_ALIASES[name]
        if re.fullmatch(r"R[0-7]", name):
            return int(name[1])
        raise AssemblyError(f"unknown register {name!r}", line)

    @staticmethod
    def _sreg(tokens: list[tuple[str, str]], line: int) -> int:
        toks = [t for t in tokens if t != ("punct", "#")]
        if len(toks) == 1 and toks[0][0] == "sym":
            name = toks[0][1].upper()
            if name in _SREG_NAMES:
                return _SREG_NAMES[name]
        if len(toks) == 1 and toks[0][0] == "num":
            return _parse_num(toks[0][1])
        raise AssemblyError(f"expected special register, got {tokens!r}", line)

    def _mem_operand(self, tokens: list[tuple[str, str]], line: int):
        """Parse ``[Rbase + #offset]`` / ``[Rbase]``."""
        if not tokens or tokens[0] != ("punct", "[") or tokens[-1] != ("punct", "]"):
            raise AssemblyError("expected memory operand [Rn + #off]", line)
        inner = tokens[1:-1]
        if not inner or inner[0][0] != "sym":
            raise AssemblyError("memory operand must start with a register", line)
        base = self._reg([inner[0]], line)
        rest = inner[1:]
        if not rest:
            return base, 0
        if rest[0] == ("punct", "+"):
            rest = rest[1:]
        return base, self._eval_tokens(rest, line)

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def _eval_const(self, text: str, line: int) -> int:
        return self._eval_tokens(_tokenize(text, line), line, allow_labels=False)

    def _eval(self, text: str, line: int) -> int:
        return self._eval_tokens(_tokenize(text, line), line)

    def _eval_tokens(self, tokens: list[tuple[str, str]], line: int,
                     *, allow_labels: bool = True) -> int:
        parser = _ExprParser(tokens, self._equates,
                             self._labels if allow_labels else {}, line)
        value = parser.parse()
        parser.expect_end()
        return value


class _ExprParser:
    """Tiny precedence-free expression parser: term ((+|-|*) term)*."""

    def __init__(self, tokens, equates, labels, line):
        self.tokens = [t for t in tokens if t != ("punct", "#")]
        self.pos = 0
        self.equates = equates
        self.labels = labels
        self.line = line

    def parse(self) -> int:
        value = self._muldiv()
        while self._peek() in (("punct", "+"), ("punct", "-")):
            op = self._next()[1]
            rhs = self._muldiv()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _muldiv(self) -> int:
        value = self._term()
        while self._peek() == ("punct", "*"):
            self._next()
            value *= self._term()
        return value

    def _term(self) -> int:
        tok = self._next()
        if tok is None:
            raise AssemblyError("unexpected end of expression", self.line)
        kind, text = tok
        if tok == ("punct", "-"):
            return -self._term()
        if tok == ("punct", "("):
            value = self.parse()
            if self._next() != ("punct", ")"):
                raise AssemblyError("missing ')'", self.line)
            return value
        if kind == "num":
            return _parse_num(text)
        if kind == "sym":
            lowered = text.lower()
            if lowered in ("lo", "hi") and self._peek() == ("punct", "("):
                self._next()
                value = self.parse()
                if self._next() != ("punct", ")"):
                    raise AssemblyError("missing ')'", self.line)
                return value & 0xFF if lowered == "lo" else (value >> 8) & 0xFF
            if text in self.equates:
                return self.equates[text]
            if text in self.labels:
                return self.labels[text]
            raise AssemblyError(f"undefined symbol {text!r}", self.line)
        raise AssemblyError(f"unexpected token {text!r}", self.line)

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect_end(self) -> None:
        if self.pos != len(self.tokens):
            raise AssemblyError(
                f"trailing tokens {self.tokens[self.pos:]!r}", self.line)


def _split_equ(rest: str, line: int) -> tuple[str, str]:
    name, _, expr = rest.strip().partition(" ")
    if not name or not expr.strip():
        raise AssemblyError(".equ needs a name and a value", line)
    return name, expr.strip()


def _strip_comment(line: str) -> str:
    for marker in (";", "//"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line


def _split_operands(text: str) -> list[str]:
    text = text.strip()
    if not text:
        return []
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return [p for p in parts if p]


def _tokenize(text: str, line: int) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise AssemblyError(f"bad token at {text[pos:]!r}", line)
        pos = m.end()
        for kind in ("num", "sym", "punct"):
            value = m.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


def _parse_num(text: str) -> int:
    return int(text, 0)


def _as_simm8(value16: int) -> int:
    """Reinterpret an unsigned 16-bit value as the simm8 that produces it."""
    return value16 - 0x10000 if value16 >= 0xFF80 else value16


def assemble(source: str, **kwargs) -> Program:
    """Module-level convenience wrapper around :class:`Assembler`."""
    return Assembler().assemble(source, **kwargs)
