"""Code generation: analyzed ``minic`` AST to ``ulp16`` assembly.

Register discipline
-------------------

R0-R4 form a small expression stack (a "virtual stack" of values); R5 is
the frame pointer, R6 the stack pointer and R7 the link register, reused as
an intra-statement scratch.  When more than five values are live, the
*bottom-most* register-resident value is spilled to the machine stack; the
evaluation order of properly-nested expressions guarantees spills and
reloads pair up LIFO with argument pushes and caller-saves.

All expression registers are caller-saved: the resident virtual stack is
spilled around calls, so callees use R0-R4 freely.

Synchronization regions
-----------------------

Conditionals annotated with a ``sync_index`` are emitted exactly per the
paper's Listing 1: ``SINC #k`` before the condition, ``SDEC #k`` after the
construct.  ``break``/``continue``/``return`` that exit wrapped regions
emit compensating ``SDEC`` instructions so every check-in is matched on
every path (otherwise the barrier would deadlock).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast_nodes import (
    AddrOfExpr,
    AssignExpr,
    BinaryExpr,
    Block,
    BreakStmt,
    CallExpr,
    ContinueStmt,
    DeclStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FuncDecl,
    IfStmt,
    IndexExpr,
    NumberExpr,
    ReturnStmt,
    Symbol,
    UnaryExpr,
    VarExpr,
    WhileStmt,
)
from .lexer import CompileError

_CMP_BRANCH = {"==": "EQ", "!=": "NE", "<": "LT", "<=": "LE",
               ">": "GT", ">=": "GE"}
_CMP_INVERSE = {"EQ": "NE", "NE": "EQ", "LT": "GE", "GE": "LT",
                "LE": "GT", "GT": "LE", "LTU": "GEU", "GEU": "LTU"}
_SIMPLE_BINOPS = {"+": "ADD", "-": "SUB", "&": "AND", "|": "OR",
                  "^": "XOR", "*": "MUL", "<<": "SLL", ">>": "SRA"}

MAX_CALL_ARGS = 5
SCRATCH = "R7"



@dataclass
class _Value:
    """One virtual-stack entry."""

    reg: int | None          # register index, or None when spilled
    spilled: bool = False


@dataclass
class _Region:
    """An open control region (for break/continue/return compensation)."""

    kind: str                          # 'loop' | 'if'
    sync_index: int | None
    break_label: str = ""
    continue_label: str = ""


class FunctionCodegen:
    """Generates assembly for one function."""

    def __init__(self, func: FuncDecl, emit, new_label):
        self.func = func
        self.emit = emit
        self.new_label = new_label
        self.free_regs = [4, 3, 2, 1, 0]
        self.vstack: list[_Value] = []
        self.regions: list[_Region] = []
        self.epilogue_label = new_label("epilogue")

    # ------------------------------------------------------------------
    # Virtual register stack
    # ------------------------------------------------------------------

    def vpush(self) -> str:
        """Allocate a register for a new top-of-stack value."""
        if not self.free_regs:
            victim = next(v for v in self.vstack if not v.spilled)
            self._push_reg(victim.reg)
            self.free_regs.append(victim.reg)
            victim.reg, victim.spilled = None, True
        reg = self.free_regs.pop()
        self.vstack.append(_Value(reg))
        return f"R{reg}"

    def vpop(self) -> str:
        """Release the top value; returns the register holding it."""
        value = self.vstack.pop()
        if value.spilled:
            if not self.free_regs:  # pragma: no cover - invariant
                raise CompileError("register allocator invariant broken")
            value.reg = self.free_regs.pop()
            self._pop_reg(value.reg)
        self.free_regs.append(value.reg)
        return f"R{value.reg}"

    def vtop(self) -> str:
        value = self.vstack[-1]
        if value.spilled:
            value.reg = self.free_regs.pop()
            self._pop_reg(value.reg)
            value.spilled = False
        return f"R{value.reg}"

    def vpop2(self) -> tuple[str, str]:
        """Pop the top two values as ``(lhs, rhs)``.

        Both are made register-resident *before* either is popped —
        popping first and unspilling second could reload the deeper value
        into the register just freed by (and still holding) the upper one.
        """
        self.ensure_resident(2)
        rhs = self.vpop()
        lhs = self.vpop()
        return lhs, rhs

    def vpush_reg(self, reg: str) -> None:
        """Push a value already in ``reg`` (must be a just-freed register)."""
        index = int(reg[1])
        self.free_regs.remove(index)
        self.vstack.append(_Value(index))

    def _push_reg(self, reg: int) -> None:
        self.emit("ADDI SP, SP, #-1")
        self.emit(f"ST R{reg}, [SP]")

    def _pop_reg(self, reg: int) -> None:
        self.emit(f"LD R{reg}, [SP]")
        self.emit("ADDI SP, SP, #1")

    def spill_all(self) -> None:
        """Spill every resident value (before a CALL clobbers R0-R4)."""
        for value in self.vstack:
            if not value.spilled:
                self._push_reg(value.reg)
                self.free_regs.append(value.reg)
                value.reg, value.spilled = None, True

    def ensure_resident(self, count: int) -> None:
        """Reload the top ``count`` entries into registers (LIFO order)."""
        for value in reversed(self.vstack[-count:]):
            if value.spilled:
                value.reg = self.free_regs.pop()
                self._pop_reg(value.reg)
                value.spilled = False

    # ------------------------------------------------------------------
    # Function skeleton
    # ------------------------------------------------------------------

    def generate(self) -> None:
        func = self.func
        self.emit(f"f_{func.name}:", label=True)
        self._push_named("R7")
        self._push_named("R5")
        self.emit("MOV R5, R6")
        if func.frame_size:
            self._adjust_sp(-func.frame_size)
        self.gen_block(func.body)
        self.emit(f"{self.epilogue_label}:", label=True)
        self.emit("MOV R6, R5")
        self._pop_named("R5")
        self._pop_named("R7")
        self.emit("RET")
        if self.vstack:  # pragma: no cover - compiler invariant
            raise CompileError(
                f"internal error: value stack not empty in {func.name}")

    def _push_named(self, reg: str) -> None:
        self.emit("ADDI SP, SP, #-1")
        self.emit(f"ST {reg}, [SP]")

    def _pop_named(self, reg: str) -> None:
        self.emit(f"LD {reg}, [SP]")
        self.emit("ADDI SP, SP, #1")

    def _adjust_sp(self, delta: int) -> None:
        if -16 <= delta <= 15:
            self.emit(f"ADDI SP, SP, #{delta}")
        else:
            self.emit(f"LI {SCRATCH}, #{delta}")
            self.emit(f"ADD SP, SP, {SCRATCH}")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def gen_block(self, block: Block) -> None:
        for stmt in block.statements:
            self.gen_stmt(stmt)

    def gen_stmt(self, stmt) -> None:
        if isinstance(stmt, Block):
            self.gen_block(stmt)
        elif isinstance(stmt, DeclStmt):
            if stmt.init is not None:
                self.gen_expr(stmt.init)
                reg = self.vpop()
                self._store_symbol(stmt.symbol, reg)
        elif isinstance(stmt, ExprStmt):
            if self._gen_void_intrinsic(stmt.expr):
                return
            self.gen_expr(stmt.expr)
            self.vpop()
        elif isinstance(stmt, IfStmt):
            self.gen_if(stmt)
        elif isinstance(stmt, WhileStmt):
            self.gen_while(stmt)
        elif isinstance(stmt, ForStmt):
            self.gen_for(stmt)
        elif isinstance(stmt, ReturnStmt):
            self.gen_return(stmt)
        elif isinstance(stmt, BreakStmt):
            self.gen_break(stmt)
        elif isinstance(stmt, ContinueStmt):
            self.gen_continue(stmt)
        else:  # pragma: no cover
            raise CompileError(f"unknown statement {stmt!r}", stmt.line)

    def _gen_void_intrinsic(self, expr: Expr) -> bool:
        """Emit result-less intrinsics used as bare statements."""
        if not (isinstance(expr, CallExpr) and expr.intrinsic):
            return False
        if expr.name == "__halt":
            self.emit("HALT")
            return True
        if expr.name == "__sleep":
            self.emit("SLEEP")
            return True
        if expr.name == "__sync_enter":
            self.emit(f"SINC #{expr.args[0].value}")
            return True
        if expr.name == "__sync_exit":
            self.emit(f"SDEC #{expr.args[0].value}")
            return True
        return False

    def gen_if(self, stmt: IfStmt) -> None:
        if stmt.sync_index is not None:
            self.emit(f"SINC #{stmt.sync_index}")
        self.regions.append(_Region("if", stmt.sync_index))
        else_label = self.new_label("else")
        end_label = self.new_label("endif")
        self.gen_branch(stmt.cond, else_label if stmt.else_body is not None
                        else end_label, when=False)
        self.gen_stmt(stmt.then_body)
        if stmt.else_body is not None:
            self.emit(f"BR {end_label}")
            self.emit(f"{else_label}:", label=True)
            self.gen_stmt(stmt.else_body)
        self.emit(f"{end_label}:", label=True)
        self.regions.pop()
        if stmt.sync_index is not None:
            self.emit(f"SDEC #{stmt.sync_index}")

    def gen_while(self, stmt: WhileStmt) -> None:
        if stmt.sync_index is not None:
            self.emit(f"SINC #{stmt.sync_index}")
        head = self.new_label("while")
        end = self.new_label("wend")
        self.regions.append(_Region("loop", stmt.sync_index, end, head))
        self.emit(f"{head}:", label=True)
        self.gen_branch(stmt.cond, end, when=False)
        self.gen_stmt(stmt.body)
        self.emit(f"BR {head}")
        self.emit(f"{end}:", label=True)
        self.regions.pop()
        if stmt.sync_index is not None:
            self.emit(f"SDEC #{stmt.sync_index}")

    def gen_for(self, stmt: ForStmt) -> None:
        if stmt.init is not None:
            self.gen_stmt(stmt.init)
        if stmt.sync_index is not None:
            self.emit(f"SINC #{stmt.sync_index}")
        head = self.new_label("for")
        step_label = self.new_label("fstep")
        end = self.new_label("fend")
        self.regions.append(_Region("loop", stmt.sync_index, end, step_label))
        self.emit(f"{head}:", label=True)
        if stmt.cond is not None:
            self.gen_branch(stmt.cond, end, when=False)
        self.gen_stmt(stmt.body)
        self.emit(f"{step_label}:", label=True)
        if stmt.step is not None:
            if not self._gen_void_intrinsic(stmt.step):
                self.gen_expr(stmt.step)
                self.vpop()
        self.emit(f"BR {head}")
        self.emit(f"{end}:", label=True)
        self.regions.pop()
        if stmt.sync_index is not None:
            self.emit(f"SDEC #{stmt.sync_index}")

    def gen_return(self, stmt: ReturnStmt) -> None:
        if stmt.value is not None:
            self.gen_expr(stmt.value)
            reg = self.vpop()
            if reg != "R0":
                self.emit(f"MOV R0, {reg}")
        # leaving every open region: emit compensating check-outs
        for region in reversed(self.regions):
            if region.sync_index is not None:
                self.emit(f"SDEC #{region.sync_index}")
        self.emit(f"BR {self.epilogue_label}")

    def gen_break(self, stmt: BreakStmt) -> None:
        for region in reversed(self.regions):
            if region.kind == "loop":
                # the loop's own SDEC sits after its end label, so the jump
                # still passes through it — no compensation for the loop
                self.emit(f"BR {region.break_label}")
                return
            if region.sync_index is not None:
                self.emit(f"SDEC #{region.sync_index}")
        raise CompileError("break outside loop", stmt.line)

    def gen_continue(self, stmt: ContinueStmt) -> None:
        for region in reversed(self.regions):
            if region.kind == "loop":
                self.emit(f"BR {region.continue_label}")
                return
            if region.sync_index is not None:
                self.emit(f"SDEC #{region.sync_index}")
        raise CompileError("continue outside loop", stmt.line)

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------

    def gen_branch(self, cond: Expr, label: str, *, when: bool) -> None:
        """Branch to ``label`` when ``cond`` evaluates to ``when``."""
        if isinstance(cond, UnaryExpr) and cond.op == "!":
            self.gen_branch(cond.operand, label, when=not when)
            return
        if isinstance(cond, BinaryExpr) and cond.op in ("&&", "||"):
            short_and = cond.op == "&&"
            if when != short_and:
                # branch taken if either operand decides it
                self.gen_branch(cond.left, label, when=when)
                self.gen_branch(cond.right, label, when=when)
            else:
                skip = self.new_label("sc")
                self.gen_branch(cond.left, skip, when=not when)
                self.gen_branch(cond.right, label, when=when)
                self.emit(f"{skip}:", label=True)
            return
        if isinstance(cond, BinaryExpr) and cond.op in _CMP_BRANCH:
            self.gen_expr(cond.left)
            self.gen_expr(cond.right)
            lhs, rhs = self.vpop2()
            self.emit(f"CMP {lhs}, {rhs}")
            cc = _CMP_BRANCH[cond.op]
            if not when:
                cc = _CMP_INVERSE[cc]
            self.emit(f"LB{cc} {label}")
            return
        if isinstance(cond, NumberExpr):
            if bool(cond.value) == when:
                self.emit(f"BR {label}")
            return
        self.gen_expr(cond)
        reg = self.vpop()
        self.emit(f"CMPI {reg}, #0")
        self.emit(f"LB{'NE' if when else 'EQ'} {label}")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def gen_expr(self, node: Expr) -> None:
        """Evaluate ``node`` onto the virtual stack."""
        if isinstance(node, NumberExpr):
            reg = self.vpush()
            self.emit(f"LI {reg}, #{node.value}")
        elif isinstance(node, VarExpr):
            self._gen_var(node)
        elif isinstance(node, UnaryExpr):
            self._gen_unary(node)
        elif isinstance(node, BinaryExpr):
            self._gen_binary(node)
        elif isinstance(node, AssignExpr):
            self._gen_assign(node)
        elif isinstance(node, IndexExpr):
            self._gen_index_load(node)
        elif isinstance(node, AddrOfExpr):
            self._gen_addr(node.operand)
        elif isinstance(node, CallExpr):
            self._gen_call(node)
        else:  # pragma: no cover
            raise CompileError(f"unknown expression {node!r}", node.line)

    def _frame_offset(self, symbol: Symbol) -> int:
        if symbol.kind == "param":
            return 2 + symbol.slot
        if symbol.is_array:
            return -(symbol.slot + symbol.size)
        return -(1 + symbol.slot)

    def _gen_var(self, node: VarExpr) -> None:
        symbol = node.symbol
        reg = self.vpush()
        if symbol.kind == "global":
            self.emit(f"LI {reg}, #{symbol.label}")
            if not symbol.is_array:
                self.emit(f"LD {reg}, [{reg}]")
            return
        offset = self._frame_offset(symbol)
        if symbol.is_array:
            if -16 <= offset <= 15:
                self.emit(f"ADDI {reg}, R5, #{offset}")
            else:
                self.emit(f"LI {reg}, #{offset}")
                self.emit(f"ADD {reg}, R5, {reg}")
            return
        if -16 <= offset <= 15:
            self.emit(f"LD {reg}, [R5 + #{offset}]")
        else:
            self.emit(f"LI {reg}, #{offset}")
            self.emit(f"ADD {reg}, R5, {reg}")
            self.emit(f"LD {reg}, [{reg}]")

    def _store_symbol(self, symbol: Symbol, reg: str) -> None:
        if symbol.kind == "global":
            self.emit(f"LI {SCRATCH}, #{symbol.label}")
            self.emit(f"ST {reg}, [{SCRATCH}]")
            return
        offset = self._frame_offset(symbol)
        if -16 <= offset <= 15:
            self.emit(f"ST {reg}, [R5 + #{offset}]")
        else:
            self.emit(f"LI {SCRATCH}, #{offset}")
            self.emit(f"ADD {SCRATCH}, R5, {SCRATCH}")
            self.emit(f"ST {reg}, [{SCRATCH}]")

    def _gen_addr(self, node: Expr) -> None:
        """Evaluate the address of an lvalue onto the virtual stack."""
        if isinstance(node, VarExpr):
            symbol = node.symbol
            reg = self.vpush()
            if symbol.kind == "global":
                self.emit(f"LI {reg}, #{symbol.label}")
                return
            offset = self._frame_offset(symbol)
            if symbol.is_array:
                offset = self._frame_offset(symbol)
            if -16 <= offset <= 15:
                self.emit(f"ADDI {reg}, R5, #{offset}")
            else:
                self.emit(f"LI {reg}, #{offset}")
                self.emit(f"ADD {reg}, R5, {reg}")
            return
        if isinstance(node, IndexExpr):
            self.gen_expr(node.base)
            if isinstance(node.index, NumberExpr) \
                    and 0 <= node.index.value <= 15:
                base = self.vtop()
                if node.index.value:
                    self.emit(f"ADDI {base}, {base}, #{node.index.value}")
                return
            self.gen_expr(node.index)
            base, index = self.vpop2()
            self.vpush_reg(base)
            self.emit(f"ADD {base}, {base}, {index}")
            return
        if isinstance(node, UnaryExpr) and node.op == "*":
            self.gen_expr(node.operand)
            return
        raise CompileError("expression is not addressable", node.line)

    def _gen_index_load(self, node: IndexExpr) -> None:
        self.gen_expr(node.base)
        if isinstance(node.index, NumberExpr) and 0 <= node.index.value <= 15:
            reg = self.vtop()
            self.emit(f"LD {reg}, [{reg} + #{node.index.value}]")
            return
        self.gen_expr(node.index)
        base, index = self.vpop2()
        self.vpush_reg(base)
        self.emit(f"ADD {base}, {base}, {index}")
        self.emit(f"LD {base}, [{base}]")

    def _gen_unary(self, node: UnaryExpr) -> None:
        if node.op == "*":
            self.gen_expr(node.operand)
            reg = self.vtop()
            self.emit(f"LD {reg}, [{reg}]")
            return
        self.gen_expr(node.operand)
        reg = self.vtop()
        if node.op == "-":
            self.emit(f"MOV {SCRATCH}, {reg}")
            self.emit(f"LDI {reg}, #0")
            self.emit(f"SUB {reg}, {reg}, {SCRATCH}")
        elif node.op == "~":
            self.emit(f"MOV {SCRATCH}, {reg}")
            self.emit(f"LDI {reg}, #-1")
            self.emit(f"XOR {reg}, {reg}, {SCRATCH}")
        elif node.op == "!":
            skip = self.new_label("nz")
            self.emit(f"CMPI {reg}, #0")
            self.emit(f"LDI {reg}, #1")
            self.emit(f"BEQ {skip}")
            self.emit(f"LDI {reg}, #0")
            self.emit(f"{skip}:", label=True)
        else:  # pragma: no cover
            raise CompileError(f"unknown unary {node.op!r}", node.line)

    def _gen_binary(self, node: BinaryExpr) -> None:
        op = node.op
        if op in ("&&", "||"):
            self._gen_logical_value(node)
            return
        if op in _CMP_BRANCH:
            self._gen_compare_value(node)
            return
        if op in ("/", "%"):
            self._gen_runtime_call(
                "__div16" if op == "/" else "__mod16",
                [node.left, node.right])
            return

        # constant-immediate peepholes
        if isinstance(node.right, NumberExpr):
            value = node.right.value
            if op == "+" and -16 <= value <= 15:
                self.gen_expr(node.left)
                reg = self.vtop()
                self.emit(f"ADDI {reg}, {reg}, #{value}")
                return
            if op == "-" and -15 <= value <= 16:
                self.gen_expr(node.left)
                reg = self.vtop()
                self.emit(f"ADDI {reg}, {reg}, #{-value}")
                return
            if op in ("<<", ">>") and 0 <= value <= 15:
                self.gen_expr(node.left)
                reg = self.vtop()
                mnemonic = "SLLI" if op == "<<" else "SRAI"
                self.emit(f"{mnemonic} {reg}, #{value}")
                return
            if op == "*" and value > 0 and (value & (value - 1)) == 0:
                self.gen_expr(node.left)
                reg = self.vtop()
                self.emit(f"SLLI {reg}, #{value.bit_length() - 1}")
                return

        self.gen_expr(node.left)
        self.gen_expr(node.right)
        lhs, rhs = self.vpop2()
        self.vpush_reg(lhs)
        self.emit(f"{_SIMPLE_BINOPS[op]} {lhs}, {lhs}, {rhs}")

    def _gen_compare_value(self, node: BinaryExpr) -> None:
        self.gen_expr(node.left)
        self.gen_expr(node.right)
        lhs, rhs = self.vpop2()
        skip = self.new_label("cset")
        self.vpush_reg(lhs)
        self.emit(f"CMP {lhs}, {rhs}")
        self.emit(f"LDI {lhs}, #1")
        self.emit(f"B{_CMP_BRANCH[node.op]} {skip}")
        self.emit(f"LDI {lhs}, #0")
        self.emit(f"{skip}:", label=True)

    def _gen_logical_value(self, node: BinaryExpr) -> None:
        false_label = self.new_label("lf")
        end_label = self.new_label("le")
        self.gen_branch(node, false_label, when=False)
        reg = self.vpush()
        self.emit(f"LDI {reg}, #1")
        self.emit(f"BR {end_label}")
        self.emit(f"{false_label}:", label=True)
        self.emit(f"LDI {reg}, #0")
        self.emit(f"{end_label}:", label=True)

    def _gen_assign(self, node: AssignExpr) -> None:
        target = node.target
        if isinstance(target, VarExpr):
            self.gen_expr(node.value)
            reg = self.vtop()
            self._store_symbol(target.symbol, reg)
            return
        # element or deref target: value first, then address
        self.gen_expr(node.value)
        self._gen_addr(target)
        value, addr = self.vpop2()
        self.vpush_reg(value)
        self.emit(f"ST {value}, [{addr}]")

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _gen_call(self, node: CallExpr) -> None:
        if node.intrinsic:
            self._gen_intrinsic(node)
            return
        self._gen_runtime_call(f"f_{node.name}", node.args)

    def _gen_runtime_call(self, label: str, args: list[Expr]) -> None:
        if len(args) > MAX_CALL_ARGS:
            raise CompileError(
                f"calls support at most {MAX_CALL_ARGS} arguments")
        self.spill_all()
        for arg in args:
            self.gen_expr(arg)
        self.ensure_resident(len(args))
        for _ in args:
            reg = self.vpop()         # pops right-to-left: argN first
            self._push_reg(int(reg[1]))
        self.emit(f"CALL {label}")
        if args:
            self._adjust_sp(len(args))
        result = self.vpush()
        if result != "R0":  # pragma: no cover - R0 is always free here
            self.emit(f"MOV {result}, R0")

    def _gen_intrinsic(self, node: CallExpr) -> None:
        name = node.name
        if name == "__coreid":
            reg = self.vpush()
            self.emit(f"MFSR {reg}, COREID")
        elif name == "__ncores":
            reg = self.vpush()
            self.emit(f"MFSR {reg}, NCORES")
        elif name == "__halt":
            self.emit("HALT")
            reg = self.vpush()
            self.emit(f"LDI {reg}, #0")
        elif name == "__sleep":
            self.emit("SLEEP")
            reg = self.vpush()
            self.emit(f"LDI {reg}, #0")
        elif name in ("__sync_enter", "__sync_exit"):
            mnemonic = "SINC" if name == "__sync_enter" else "SDEC"
            self.emit(f"{mnemonic} #{node.args[0].value}")
            reg = self.vpush()
            self.emit(f"LDI {reg}, #0")
        else:  # pragma: no cover
            raise CompileError(f"unknown intrinsic {name!r}", node.line)
