"""Semantic analysis for ``minic``: symbols, frames, checks, const folding.

minic is word-addressed and every value is a 16-bit word, so ``int`` and
``int*`` interconvert freely and pointer arithmetic needs no scaling;
types are tracked for diagnostics, not representation.

Frame layout (full-descending stack, word addressed)::

    FP + 2 + k   argument k          (pushed right-to-left by the caller)
    FP + 1       saved LR
    FP + 0       saved FP
    FP - 1 - s   scalar local in slot s
    FP - s - n   element 0 of a local array of n words in slots s..s+n-1
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
    INT,
    NumberExpr,
    ProgramAst,
    PTR,
    ReturnStmt,
    Symbol,
    UnaryExpr,
    VarExpr,
    WhileStmt,
)
from .lexer import CompileError
from .parser import INTRINSICS


@dataclass
class FunctionSignature:
    name: str
    num_params: int
    returns_value: bool


class _Scope:
    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.names: dict[str, Symbol] = {}

    def define(self, symbol: Symbol, line: int) -> None:
        if symbol.name in self.names:
            raise CompileError(f"redefinition of {symbol.name!r}", line)
        self.names[symbol.name] = symbol

    def lookup(self, name: str) -> Symbol | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class Analyzer:
    """Annotates the AST in place; raises :class:`CompileError` on misuse."""

    def __init__(self, program: ProgramAst):
        self.program = program
        self.globals = _Scope()
        self.signatures: dict[str, FunctionSignature] = {}

    def analyze(self) -> ProgramAst:
        for decl in self.program.globals:
            symbol = Symbol(decl.name, "global", INT, uniform=decl.uniform,
                            label=f"g_{decl.name}", size=decl.size,
                            is_array=decl.is_array)
            decl.symbol = symbol
            self.globals.define(symbol, decl.line)
        for func in self.program.functions:
            if func.name in self.signatures:
                raise CompileError(f"redefinition of {func.name!r}()",
                                   func.line)
            if func.name in INTRINSICS:
                raise CompileError(
                    f"{func.name!r} is a reserved intrinsic", func.line)
            self.signatures[func.name] = FunctionSignature(
                func.name, len(func.params), func.returns_value)
        for func in self.program.functions:
            _FunctionAnalyzer(self, func).analyze()
        return self.program


class _FunctionAnalyzer:
    def __init__(self, top: Analyzer, func: FuncDecl):
        self.top = top
        self.func = func
        self.next_slot = 0
        self.loop_depth = 0

    def analyze(self) -> None:
        scope = _Scope(self.top.globals)
        for index, param in enumerate(self.func.params):
            symbol = Symbol(param.name, "param", param.type,
                            uniform=param.uniform, slot=index)
            param.symbol = symbol
            scope.define(symbol, self.func.line)
            self.func.symbols[param.name] = symbol
        self.block(self.func.body, _Scope(scope))
        self.func.frame_size = self.next_slot

    # -- statements ------------------------------------------------------

    def block(self, block: Block, scope: _Scope) -> None:
        for stmt in block.statements:
            self.statement(stmt, scope)

    def statement(self, stmt, scope: _Scope) -> None:
        if isinstance(stmt, Block):
            self.block(stmt, _Scope(scope))
        elif isinstance(stmt, DeclStmt):
            self.decl(stmt, scope)
        elif isinstance(stmt, ExprStmt):
            self.expr(stmt.expr, scope)
        elif isinstance(stmt, IfStmt):
            self.expr(stmt.cond, scope)
            self.statement(stmt.then_body, scope)
            if stmt.else_body is not None:
                self.statement(stmt.else_body, scope)
        elif isinstance(stmt, WhileStmt):
            self.expr(stmt.cond, scope)
            self.loop_depth += 1
            self.statement(stmt.body, scope)
            self.loop_depth -= 1
        elif isinstance(stmt, ForStmt):
            inner = _Scope(scope)
            if stmt.init is not None:
                self.statement(stmt.init, inner)
            if stmt.cond is not None:
                self.expr(stmt.cond, inner)
            if stmt.step is not None:
                self.expr(stmt.step, inner)
            self.loop_depth += 1
            self.statement(stmt.body, inner)
            self.loop_depth -= 1
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                if not self.func.returns_value:
                    raise CompileError(
                        f"void function {self.func.name!r} returns a value",
                        stmt.line)
                self.expr(stmt.value, scope)
            elif self.func.returns_value:
                raise CompileError(
                    f"{self.func.name!r} must return a value", stmt.line)
        elif isinstance(stmt, (BreakStmt, ContinueStmt)):
            if self.loop_depth == 0:
                kind = "break" if isinstance(stmt, BreakStmt) else "continue"
                raise CompileError(f"{kind!r} outside a loop", stmt.line)
        else:  # pragma: no cover
            raise CompileError(f"unknown statement {stmt!r}", stmt.line)

    def decl(self, stmt: DeclStmt, scope: _Scope) -> None:
        symbol = Symbol(stmt.name, "local",
                        PTR if stmt.is_pointer else INT,
                        slot=self.next_slot, size=stmt.size,
                        is_array=stmt.size > 1)
        if stmt.size > 1 and stmt.init is not None:
            raise CompileError("local arrays cannot have initializers",
                               stmt.line)
        self.next_slot += stmt.size
        stmt.symbol = symbol
        scope.define(symbol, stmt.line)
        self.func.symbols.setdefault(stmt.name, symbol)
        if stmt.init is not None:
            stmt.init = self.expr(stmt.init, scope)

    # -- expressions -------------------------------------------------------

    def expr(self, node: Expr, scope: _Scope) -> Expr:
        """Analyze and constant-fold; returns the (possibly new) node."""
        if isinstance(node, NumberExpr):
            node.type = INT
            return node

        if isinstance(node, VarExpr):
            symbol = scope.lookup(node.name)
            if symbol is None:
                raise CompileError(f"undefined variable {node.name!r}",
                                   node.line)
            node.symbol = symbol
            node.type = PTR if (symbol.is_array
                                or symbol.type.is_pointer) else INT
            return node

        if isinstance(node, UnaryExpr):
            node.operand = self.expr(node.operand, scope)
            if node.op == "*" and not node.operand.type.is_pointer:
                # word-addressed machine: any int can be dereferenced,
                # but flag the common mistake of '*scalar-local'
                pass
            node.type = INT
            return _fold_unary(node)

        if isinstance(node, BinaryExpr):
            node.left = self.expr(node.left, scope)
            node.right = self.expr(node.right, scope)
            if node.op in ("+", "-") and (node.left.type.is_pointer
                                          or node.right.type.is_pointer):
                node.type = PTR
                if (node.op == "-" and node.left.type.is_pointer
                        and node.right.type.is_pointer):
                    node.type = INT
            else:
                node.type = INT
            return _fold_binary(node)

        if isinstance(node, AssignExpr):
            node.target = self.expr(node.target, scope)
            self._check_lvalue(node.target)
            node.value = self.expr(node.value, scope)
            node.type = node.target.type
            return node

        if isinstance(node, IndexExpr):
            node.base = self.expr(node.base, scope)
            node.index = self.expr(node.index, scope)
            node.type = INT
            return node

        if isinstance(node, AddrOfExpr):
            node.operand = self.expr(node.operand, scope)
            if (isinstance(node.operand, VarExpr)
                    and node.operand.symbol.kind == "param"
                    and node.operand.symbol.is_array):
                raise CompileError("cannot take the address of an array "
                                   "parameter", node.line)
            node.type = PTR
            return node

        if isinstance(node, CallExpr):
            for i, arg in enumerate(node.args):
                node.args[i] = self.expr(arg, scope)
            if node.intrinsic:
                expected = INTRINSICS[node.name]
                if len(node.args) != expected:
                    raise CompileError(
                        f"{node.name} expects {expected} argument(s)",
                        node.line)
                if node.name in ("__sync_enter", "__sync_exit"):
                    if not isinstance(node.args[0], NumberExpr):
                        raise CompileError(
                            f"{node.name} needs a constant checkpoint index",
                            node.line)
            else:
                sig = self.top.signatures.get(node.name)
                if sig is None:
                    raise CompileError(f"undefined function {node.name!r}()",
                                       node.line)
                if len(node.args) != sig.num_params:
                    raise CompileError(
                        f"{node.name}() expects {sig.num_params} "
                        f"argument(s), got {len(node.args)}", node.line)
            node.type = INT
            return node

        raise CompileError(f"unknown expression {node!r}", node.line)

    @staticmethod
    def _check_lvalue(target: Expr) -> None:
        if isinstance(target, VarExpr):
            if target.symbol.is_array:
                raise CompileError(
                    f"cannot assign to array {target.name!r}", target.line)
            return
        if isinstance(target, IndexExpr):
            return
        if isinstance(target, UnaryExpr) and target.op == "*":
            return
        raise CompileError("invalid assignment target", target.line)


def _wrap16(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


def _fold_unary(node: UnaryExpr) -> Expr:
    if not isinstance(node.operand, NumberExpr) or node.op == "*":
        return node
    v = node.operand.value
    result = {"-": -v, "~": ~v, "!": int(v == 0)}[node.op]
    return NumberExpr(line=node.line, value=_wrap16(result), divergent=False)


def _fold_binary(node: BinaryExpr) -> Expr:
    if not (isinstance(node.left, NumberExpr)
            and isinstance(node.right, NumberExpr)):
        return node
    a, b = node.left.value, node.right.value
    op = node.op
    if op in (">>", "<<") and not 0 <= b <= 15:
        raise CompileError("constant shift amount out of range", node.line)
    table = {
        "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
        # division by zero folds to the runtime's defined convention
        # (quotient -1, remainder = dividend), keeping constant folding
        # observationally identical to executing __div16/__mod16
        "/": lambda: int(a / b) if b else -1,
        "%": lambda: a - b * int(a / b) if b else a,
        "&": lambda: a & b, "|": lambda: a | b, "^": lambda: a ^ b,
        "<<": lambda: a << b, ">>": lambda: a >> b,
        "==": lambda: int(a == b), "!=": lambda: int(a != b),
        "<": lambda: int(a < b), "<=": lambda: int(a <= b),
        ">": lambda: int(a > b), ">=": lambda: int(a >= b),
        "&&": lambda: int(bool(a) and bool(b)),
        "||": lambda: int(bool(a) or bool(b)),
    }
    return NumberExpr(line=node.line, value=_wrap16(table[op]()),
                      divergent=False)


def analyze(program: ProgramAst) -> ProgramAst:
    """Run semantic analysis over a parsed program."""
    return Analyzer(program).analyze()
