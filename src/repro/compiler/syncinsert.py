"""Automatic synchronization-point insertion (the paper's Listing 1).

Decides, per conditional construct, whether the code generator must wrap it
in a ``SINC``/``SDEC`` checkpoint pair, and allocates the checkpoint index.

Modes:

- ``none`` — no points (builds the *without synchronizer* baseline).
- ``all``  — every ``if``/``while``/``for`` is wrapped, exactly the paper's
  manual discipline of instrumenting "each data-dependent conditional
  statement" without further analysis.
- ``auto`` — only conditionals whose condition the uniformity analysis
  proves divergent are wrapped; uniform control flow (e.g. a ``for`` over a
  compile-time bound) keeps lockstep by construction and needs no
  checkpoint.  This is the compiler automation the paper proposes.

Indices are allocated from 0 upward; manual ``__sync_enter(k)`` intrinsics
share the same checkpoint array, so programs using them should pick high
indices (see :mod:`repro.sync.points`).
"""

from __future__ import annotations

from .ast_nodes import (
    Block,
    DeclStmt,
    ForStmt,
    IfStmt,
    ProgramAst,
    WhileStmt,
)
from ..sync.points import SyncPointAllocator

SYNC_MODES = ("none", "all", "auto")


def insert_sync_points(program: ProgramAst, mode: str = "auto",
                       allocator: SyncPointAllocator | None = None,
                       *, min_statements: int = 0) -> SyncPointAllocator:
    """Annotate conditional statements with checkpoint indices.

    Requires uniformity analysis to have run when ``mode='auto'``.
    Returns the allocator (exposes the number and names of points).

    :param min_statements: skip regions whose body holds fewer statements
        than this (a density/overhead trade-off: a skipped region keeps
        its divergence until an enclosing checkpoint resynchronizes — a
        correctness-preserving performance knob, explored by the
        ``bench_ablation_density`` experiment).
    """
    if mode not in SYNC_MODES:
        raise ValueError(f"unknown sync mode {mode!r}; pick from {SYNC_MODES}")
    allocator = allocator or SyncPointAllocator()
    if mode == "none":
        return allocator
    for func in program.functions:
        _Inserter(mode, allocator, func.name, min_statements).stmt(func.body)
    return allocator


def _body_statements(node) -> int:
    """Rough region size: statements inside a conditional's body."""
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Block):
            stack.extend(current.statements)
            continue
        count += 1
        for attr in ("then_body", "else_body", "body", "init"):
            child = getattr(current, attr, None)
            if child is not None:
                stack.append(child)
    return count


class _Inserter:
    def __init__(self, mode: str, allocator: SyncPointAllocator, fn: str,
                 min_statements: int = 0):
        self.mode = mode
        self.allocator = allocator
        self.fn = fn
        self.min_statements = min_statements

    def _region_size(self, node) -> int:
        if isinstance(node, IfStmt):
            size = _body_statements(node.then_body)
            if node.else_body is not None:
                size += _body_statements(node.else_body)
            return size
        return _body_statements(node.body)

    def _wrap(self, node, what: str) -> None:
        node.sync_index = None
        if self.mode != "all" and not node.divergent:
            return
        if self.min_statements and \
                self._region_size(node) < self.min_statements:
            return
        node.sync_index = self.allocator.allocate(
            f"{self.fn}:{what}@line{node.line}")

    def stmt(self, node) -> None:
        if isinstance(node, Block):
            for child in node.statements:
                self.stmt(child)
        elif isinstance(node, IfStmt):
            self._wrap(node, "if")
            self.stmt(node.then_body)
            if node.else_body is not None:
                self.stmt(node.else_body)
        elif isinstance(node, WhileStmt):
            self._wrap(node, "while")
            self.stmt(node.body)
        elif isinstance(node, ForStmt):
            self._wrap(node, "for")
            if node.init is not None and isinstance(node.init, DeclStmt):
                pass
            self.stmt(node.body)
        # other statements carry no regions
