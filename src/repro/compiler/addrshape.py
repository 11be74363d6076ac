"""Address-shape (stride) analysis for ``minic``.

Memory-fused superblocks (:mod:`repro.cpu.blocks`) need to know, at
block-build time, which LD/ST instructions are *statically conflict-free*
on the data crossbar.  The two patterns the engine's group LD/ST path
(``FastEngine._mem_group``) serves without arbitration are

- **uniform** accesses — every core computes the same effective address
  (a broadcast read of a shared global), and
- **core-affine** accesses — the effective address is ``coreid * k + u``
  with a per-core-uniform ``u``; for suitable strides ``k`` each core hits
  its own private D-bank (stacks, frames and per-core channel buffers all
  have ``k = STACK_BANK_WORDS``).

This pass computes a *stride* for every expression over the lattice

    ``_BOTTOM``  <  ``k`` (int: value ≡ coreid·k + uniform)  <  ``None``

where ``0`` means "uniform" and ``None`` "unknown shape".  It piggybacks
on the uniformity analysis (run it first): any expression the uniformity
pass proved non-divergent has stride ``0`` by definition, so the stride
rules below only have to track how ``__coreid()`` flows into address
arithmetic.  Like :class:`~repro.compiler.uniformity.UniformityAnalysis`
it iterates function summaries and per-parameter contexts to a fixed
point across the call graph, so the per-core channel-pointer idiom
(``base = __coreid() * BANK + off`` passed down into a filter kernel)
keeps its stride through calls.

Results are annotations consumed by codegen:

- ``expr.stride`` — the value's stride, and
- ``node.addr_stride`` on loads/stores through computed addresses
  (``IndexExpr``, ``*p`` and their assignment-target forms) — the stride
  of the *effective address*, which codegen turns into an ``;@mem=``
  marker on the emitted LD/ST.

The facts are hints, not proofs the engine trusts blindly: the fused
block's entry guard re-checks the actual addresses every execution and
deoptimizes to the reference interpreter on any mismatch, so a wrong
stride can cost performance but never correctness.
"""

from __future__ import annotations

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
    ProgramAst,
    ReturnStmt,
    Symbol,
    UnaryExpr,
    VarExpr,
    WhileStmt,
)
from .runtime import STACK_BANK_WORDS

#: lattice bottom: "no call site / assignment observed yet"
_BOTTOM = object()

_MASK = 0xFFFF


def _join(a, b):
    """Lattice join: ``_BOTTOM`` is the identity, unequal strides go top."""
    if a is _BOTTOM:
        return b
    if b is _BOTTOM:
        return a
    if a == b:
        return a
    return None


def _add(a, b, sign: int = 1):
    if a is None or b is None:
        return None
    if a is _BOTTOM or b is _BOTTOM:
        return _BOTTOM
    return (a + sign * b) & _MASK


def _scale(a, factor: int):
    if a is None:
        return None
    if a is _BOTTOM:
        return _BOTTOM
    return (a * factor) & _MASK


class AddrShapeAnalysis:
    """Annotates expressions with coreid-strides of values and addresses."""

    def __init__(self, program: ProgramAst):
        self.program = program
        #: callee name -> stride of the returned value (joined over returns)
        self.summaries: dict[str, object] = {
            f.name: _BOTTOM for f in program.functions}
        #: callee name -> per-parameter stride joined over call sites
        self.param_context: dict[str, list] = {
            f.name: [_BOTTOM] * len(f.params) for f in program.functions}
        self.called: set[str] = set()
        self._context_changed = False

    def observe_call(self, name: str, arg_strides: list) -> None:
        if name not in self.param_context:
            return
        self.called.add(name)
        context = self.param_context[name]
        for index, stride in enumerate(arg_strides[:len(context)]):
            joined = _join(context[index], stride)
            if joined != context[index] or (
                    joined is None and context[index] is not None):
                context[index] = joined
                self._context_changed = True

    def param_stride(self, func: FuncDecl, index: int,
                     *, pessimistic_uncalled: bool = False):
        param = func.params[index]
        if param.uniform:
            return 0
        if func.name in self.called:
            return self.param_context[func.name][index]
        return None if pessimistic_uncalled else _BOTTOM

    def run(self) -> ProgramAst:
        changed = True
        while changed:
            self._context_changed = False
            changed = False
            for func in self.program.functions:
                result = _FunctionShapes(self, func).run()
                joined = _join(self.summaries[func.name], result)
                if joined != self.summaries[func.name] or (
                        joined is None
                        and self.summaries[func.name] is not None):
                    self.summaries[func.name] = joined
                    changed = True
            changed = changed or self._context_changed
        for func in self.program.functions:
            _FunctionShapes(self, func, pessimistic_uncalled=True).run()
        return self.program


class _FunctionShapes:
    def __init__(self, top: AddrShapeAnalysis, func: FuncDecl,
                 *, pessimistic_uncalled: bool = False):
        self.top = top
        self.func = func
        self.state: dict[int, object] = {}   # id(symbol) -> stride
        for index, param in enumerate(func.params):
            self.state[id(param.symbol)] = top.param_stride(
                func, index, pessimistic_uncalled=pessimistic_uncalled)
        self.return_stride = _BOTTOM

    def run(self):
        """Returns the stride of the function's result."""
        while True:
            before = dict(self.state)
            self.return_stride = _BOTTOM
            self.stmt(self.func.body, control_divergent=False)
            if self.state == before:
                break
        return self.return_stride

    # -- symbols -----------------------------------------------------------

    def _sym_stride(self, symbol: Symbol):
        if symbol.kind == "global":
            if symbol.is_array:
                return 0            # array decays to its (constant) label
            return 0 if symbol.uniform else None
        if symbol.is_array:
            return STACK_BANK_WORDS   # frame-relative base address
        if id(symbol) not in self.state:
            self.state[id(symbol)] = _BOTTOM
        return self.state[id(symbol)]

    def _taint(self, symbol: Symbol, stride) -> None:
        if symbol.kind == "global":
            return
        self.state[id(symbol)] = _join(self.state.get(id(symbol), _BOTTOM),
                                       stride)

    # -- statements --------------------------------------------------------

    def stmt(self, node, control_divergent: bool) -> None:
        if isinstance(node, Block):
            for child in node.statements:
                self.stmt(child, control_divergent)
        elif isinstance(node, DeclStmt):
            stride = _BOTTOM
            if node.init is not None:
                stride = self.expr(node.init)
            if control_divergent:
                stride = None
            if node.size <= 1:
                self._taint(node.symbol, stride)
        elif isinstance(node, ExprStmt):
            self.expr(node.expr, control_divergent)
        elif isinstance(node, IfStmt):
            self.expr(node.cond)
            inner = control_divergent or node.divergent
            self.stmt(node.then_body, inner)
            if node.else_body is not None:
                self.stmt(node.else_body, inner)
        elif isinstance(node, WhileStmt):
            self.expr(node.cond)
            inner = control_divergent or node.divergent
            self.stmt(node.body, inner)
            self.expr(node.cond)
        elif isinstance(node, ForStmt):
            if node.init is not None:
                self.stmt(node.init, control_divergent)
            if node.cond is not None:
                self.expr(node.cond)
            inner = control_divergent or node.divergent
            self.stmt(node.body, inner)
            if node.step is not None:
                self.expr(node.step, inner)
            if node.cond is not None:
                self.expr(node.cond)
        elif isinstance(node, ReturnStmt):
            if node.value is not None:
                stride = self.expr(node.value)
                if control_divergent:
                    stride = None
                self.return_stride = _join(self.return_stride, stride)
        elif isinstance(node, (BreakStmt, ContinueStmt)):
            pass
        else:  # pragma: no cover
            raise TypeError(f"unknown statement {node!r}")

    # -- expressions -------------------------------------------------------

    def expr(self, node: Expr, control_divergent: bool = False):
        stride = self._expr(node, control_divergent)
        if stride is None and not node.divergent:
            stride = 0        # uniformity already proved it core-invariant
        node.stride = stride
        return stride

    def _index_addr(self, node: IndexExpr):
        """Stride of the *element address* of ``base[index]``."""
        base = self.expr(node.base)
        index = self.expr(node.index)
        addr = _add(base, index)
        node.addr_stride = addr if isinstance(addr, int) else None
        return node.addr_stride

    def _expr(self, node: Expr, control_divergent: bool):
        if isinstance(node, NumberExpr):
            return 0
        if isinstance(node, VarExpr):
            return self._sym_stride(node.symbol)
        if isinstance(node, UnaryExpr):
            operand = self.expr(node.operand)
            if node.op == "*":
                node.addr_stride = operand if isinstance(operand, int) \
                    else None
                return 0 if node.addr_stride == 0 else None
            if node.op == "-":
                return _scale(operand, -1)
            return None
        if isinstance(node, BinaryExpr):
            left = self.expr(node.left)
            right = self.expr(node.right)
            if node.op == "+":
                return _add(left, right)
            if node.op == "-":
                return _add(left, right, sign=-1)
            if node.op == "*":
                if isinstance(node.right, NumberExpr):
                    return _scale(left, node.right.value)
                if isinstance(node.left, NumberExpr):
                    return _scale(right, node.left.value)
                if left == 0 and right == 0:
                    return 0
                return None
            if node.op == "<<" and isinstance(node.right, NumberExpr) \
                    and 0 <= node.right.value <= 15:
                return _scale(left, 1 << node.right.value)
            if left == 0 and right == 0:
                return 0
            return None
        if isinstance(node, AssignExpr):
            value = self.expr(node.value)
            target = node.target
            if isinstance(target, VarExpr):
                self._taint(target.symbol,
                            None if control_divergent else value)
            elif isinstance(target, IndexExpr):
                self._index_addr(target)
            elif isinstance(target, UnaryExpr) and target.op == "*":
                operand = self.expr(target.operand)
                target.addr_stride = operand if isinstance(operand, int) \
                    else None
            return value
        if isinstance(node, IndexExpr):
            addr = self._index_addr(node)
            return 0 if addr == 0 else None
        if isinstance(node, AddrOfExpr):
            operand = node.operand
            if isinstance(operand, VarExpr):
                if operand.symbol.kind == "global":
                    return 0
                return STACK_BANK_WORDS
            if isinstance(operand, IndexExpr):
                return self._index_addr(operand)
            return None
        if isinstance(node, CallExpr):
            arg_strides = [self.expr(arg) for arg in node.args]
            if node.intrinsic:
                return 1 if node.name == "__coreid" else 0
            self.top.observe_call(node.name, arg_strides)
            return self.top.summaries.get(node.name, None)
        raise TypeError(f"unknown expression {node!r}")  # pragma: no cover


def analyze_address_shapes(program: ProgramAst) -> ProgramAst:
    """Annotate strides; run *after* :func:`analyze_uniformity`."""
    return AddrShapeAnalysis(program).run()
