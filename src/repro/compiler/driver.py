"""The minic compiler driver: source text to a loadable program image.

Pipeline: lex/parse → semantic analysis → uniformity analysis →
sync-point insertion → code generation → peephole → assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.assembler import assemble
from ..isa.program import Program
from ..sync.points import DEFAULT_SYNC_BASE, SyncPointAllocator
from .ast_nodes import ProgramAst
from .codegen import FunctionCodegen
from .lexer import CompileError
from .optimizer import peephole
from .parser import parse
from .runtime import GLOBALS_BASE, crt0, runtime_library
from .semantics import analyze
from .syncinsert import insert_sync_points
from .uniformity import analyze_uniformity


@dataclass
class CompileResult:
    """Everything the compiler produced for one translation unit.

    :ivar program: the assembled, loadable image.
    :ivar assembly: the generated assembly text (for inspection).
    :ivar ast: the analyzed AST with divergence annotations.
    :ivar allocator: checkpoint allocation (names, count, addresses).
    :ivar sync_mode: the insertion mode the unit was built with.
    """

    program: Program
    assembly: str
    ast: ProgramAst
    allocator: SyncPointAllocator
    sync_mode: str
    sync_points: int = 0
    symbols: dict[str, int] = field(default_factory=dict)
    #: synclint report (:class:`repro.sync.verifier.LintReport`), unless
    #: the unit was compiled with ``synclint='off'``
    lint: object | None = None

    def symbol(self, name: str) -> int:
        """DM address of a minic global (``name`` without mangling)."""
        return self.symbols[f"g_{name}"]


def compile_source(source: str, *, sync_mode: str = "auto",
                   optimize: bool = True,
                   sync_base: int = DEFAULT_SYNC_BASE,
                   globals_base: int = GLOBALS_BASE,
                   sync_min_statements: int = 0,
                   synclint: str = "warn") -> CompileResult:
    """Compile minic source into a program for the multi-core platform.

    :param sync_mode: ``'none'`` (baseline build without check-in/out),
        ``'all'`` (wrap every conditional, the paper's manual discipline) or
        ``'auto'`` (wrap only divergent conditionals).
    :param sync_min_statements: skip checkpoints around regions smaller
        than this many statements (density/overhead knob).
    :param synclint: ``'warn'`` (default) verifies the sync discipline of
        the output and surfaces error-severity findings through
        ``warnings.warn``; ``'error'`` raises :class:`CompileError`
        instead; ``'off'`` skips verification.  The report is attached as
        :attr:`CompileResult.lint`.
    """
    if synclint not in ("warn", "error", "off"):
        raise ValueError(f"synclint must be warn/error/off, not {synclint!r}")
    ast = parse(source)
    analyze(ast)
    analyze_uniformity(ast)
    allocator = SyncPointAllocator(base=sync_base)
    insert_sync_points(ast, sync_mode, allocator,
                       min_statements=sync_min_statements)

    if not any(f.name == "main" for f in ast.functions):
        raise CompileError("program has no main() function")

    lines: list[str] = []
    label_counter = [0]

    def new_label(hint: str) -> str:
        label_counter[0] += 1
        return f".L{hint}{label_counter[0]}"

    def emit(text: str, label: bool = False) -> None:
        lines.append(text if label else f"    {text}")

    for func in ast.functions:
        FunctionCodegen(func, emit, new_label).generate()

    if optimize:
        lines = peephole(lines)

    data_lines = _emit_globals(ast, globals_base)
    assembly = "\n".join(
        [crt0(sync_base)] + lines
        + [runtime_library(sync=sync_mode != "none")] + data_lines) + "\n"

    program = assemble(assembly)
    result = CompileResult(
        program=program,
        assembly=assembly,
        ast=ast,
        allocator=allocator,
        sync_mode=sync_mode,
        sync_points=allocator.count,
        symbols=dict(program.symbols),
    )
    if synclint != "off":
        result.lint = _run_synclint(result, synclint)
    return result


def _run_synclint(result: CompileResult, mode: str):
    """Verify the compiled unit's sync discipline (the ``synclint`` gate).

    Imported lazily: the verifier needs the AST node types for its
    source-level pass, and importing it at module scope would cycle
    through ``repro.compiler`` package init.
    """
    import warnings

    from ..sync.verifier import SyncLintWarning, lint_compile_result

    report = lint_compile_result(result)
    if report.errors:
        summary = "; ".join(
            d.render().splitlines()[0]
            for d in report.diagnostics if d.severity == "error")
        if mode == "error":
            raise CompileError(f"synclint: {summary}")
        warnings.warn(f"synclint found {report.errors} sync-discipline "
                      f"error(s): {summary}", SyncLintWarning,
                      stacklevel=3)
    return report


def _emit_globals(ast: ProgramAst, base: int) -> list[str]:
    if not ast.globals:
        return []
    lines = [f".data {base}"]
    for decl in ast.globals:
        lines.append(f"g_{decl.name}:")
        if decl.init:
            values = ", ".join(str(v) for v in decl.init)
            lines.append(f"    .word {values}")
            if len(decl.init) < decl.size:
                lines.append(f"    .space {decl.size - len(decl.init)}")
        else:
            lines.append(f"    .space {decl.size}")
    return lines
