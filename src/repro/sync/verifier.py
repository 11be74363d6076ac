"""synclint — static verification of the SINC/SDEC sync discipline.

The paper's whole technique rests on one programming discipline: every
data-dependent divergent region must be bracketed by a ``SINC #i`` /
``SDEC #i`` checkpoint pair, indices must name one live region at a time,
and regions must nest.  Violations are only discovered dynamically today —
as simulated deadlocks or silently degraded broadcast ratios.  This module
discovers them *statically*, before a single cycle is simulated:

1. control flow is recovered from the instruction stream
   (:mod:`repro.sync.cfg`);
2. a path-sensitive balance analysis propagates the open-checkpoint stack
   through every function, checking balance (``SL001``/``SL002``), join
   consistency (``SL003``), nesting (``SL006``), self-aliasing (``SL005``)
   and call-chain aliasing (``SL007``);
3. a core-ID taint analysis finds conditional branches that provably
   depend on per-core data yet execute outside any checkpoint region
   (``SL004``) — the exact condition that breaks lockstep;
4. for compiled ``minic``, the compiler's own uniformity facts
   (:mod:`repro.compiler.uniformity`) drive the same coverage check at
   source granularity.

Diagnostics are structured (:class:`Diagnostic`: code, severity, PC,
source line, fix-it hint) and the whole report serializes to JSON.  The
region forest the analysis recovers doubles as the reference for the
*runtime cross-check* (:class:`SyncCrosscheck`): a listener on the
simulated hardware synchronizer asserts that the observed barrier traces
replay a path through the static region tree.

Every error code is documented, with a violating example and its fix, in
``docs/sync_model.md``; the tool manual is ``docs/synclint.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..isa.program import Program
from ..isa.spec import Opcode, SpecialReg, SYNC_INDEX_MAX
from .cfg import FunctionCfg, entry_label, partition, program_flow
from .points import DEFAULT_SYNC_BASE, RUNTIME_SYNC_INDICES

__all__ = [
    "CrosscheckResult",
    "Diagnostic",
    "ERROR_CODES",
    "LintReport",
    "SyncCrosscheck",
    "SyncLintWarning",
    "lint_assembly",
    "lint_compile_result",
    "lint_minic",
    "lint_program",
]


class SyncLintWarning(UserWarning):
    """Carrier for synclint findings surfaced through ``warnings.warn``."""


#: Every diagnostic synclint can emit, with its one-line meaning.  Each
#: code is documented with a violating example and its fix in
#: ``docs/sync_model.md``.
ERROR_CODES = {
    "SL001": "unclosed region: a SINC is not matched by an SDEC "
             "on every path to a return or HALT",
    "SL002": "orphan check-out: an SDEC executes with no matching "
             "check-in open on some path",
    "SL003": "inconsistent checkpoint state: an instruction is reachable "
             "with different open-region stacks on different paths",
    "SL004": "divergent region not covered: a data-dependent conditional "
             "executes outside every checkpoint region",
    "SL005": "checkpoint re-entered: SINC on an index that is already "
             "live on the same path (the barrier could never release)",
    "SL006": "misnested check-out: SDEC closes a region that is not the "
             "innermost open one",
    "SL007": "call-chain alias: a call may re-open a checkpoint index "
             "the caller is still holding",
    "SL008": "indirect control flow (CALLR / computed JR): the verifier "
             "cannot follow it, guarantees are weakened around it",
    "SL009": "Rsync never initialized: the program executes SINC/SDEC "
             "but never writes the RSYNC base register",
    "SL010": "checkpoint index out of range: the index does not fit the "
             "checkpoint array",
}

_HINTS = {
    "SL001": "add the matching SDEC before every exit of the region "
             "(returns and HALT included)",
    "SL002": "remove the stray SDEC, or add the SINC that should precede "
             "it on this path",
    "SL003": "make every path into this instruction open and close the "
             "same regions, in the same order",
    "SL004": "bracket the divergent region with a checkpoint: ';@sync "
             "begin/end' pragmas in assembly, or let the compiler wrap it "
             "(sync_mode='auto' and no skipping knobs)",
    "SL005": "allocate a fresh index for the inner region — nested "
             "regions need distinct checkpoint words",
    "SL006": "close regions in LIFO order: the innermost open region "
             "must be checked out first",
    "SL007": "give the callee's region its own index (the runtime "
             "reserves 254/255 for __div16/__mod16 for this reason)",
    "SL008": "use direct CALL / JR LR where possible, or verify the "
             "target's sync discipline by hand",
    "SL009": "point RSYNC at the checkpoint array at startup: "
             "LI Rn, #base ; MTSR RSYNC, Rn",
    "SL010": f"checkpoint indices must lie in 0..{SYNC_INDEX_MAX}",
}

_SEVERITIES = {
    "SL001": "error", "SL002": "error", "SL003": "error",
    "SL004": "error", "SL005": "error", "SL006": "error",
    "SL007": "error", "SL008": "warning", "SL009": "warning",
    "SL010": "error",
}

#: registers the callee may clobber (R0-R2 arguments/results, R7 = LR)
_CALLER_SAVED = 0b10000111


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One structured synclint finding.

    :param code: stable machine code (``SL001`` ... ``SL010``).
    :param severity: ``'error'`` or ``'warning'``.
    :param message: human-readable statement of the violation.
    :param pc: instruction address, when the finding anchors to one.
    :param line: source line number, when recoverable (pragma assembly
        keeps its original line numbers; minic findings carry minic lines).
    :param location: human-readable origin (source-map entry or label).
    :param hint: fix-it suggestion.
    """

    code: str
    severity: str
    message: str
    pc: int | None = None
    line: int | None = None
    location: str | None = None
    hint: str | None = None

    def render(self) -> str:
        where = []
        if self.pc is not None:
            where.append(f"pc {self.pc}")
        if self.line is not None:
            where.append(f"line {self.line}")
        at = f" at {', '.join(where)}" if where else ""
        origin = f" [{self.location}]" if self.location else ""
        text = f"{self.code} {self.severity}{at}: {self.message}{origin}"
        if self.hint:
            text += f"\n        fix: {self.hint}"
        return text

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "pc": self.pc,
            "line": self.line,
            "location": self.location,
            "hint": self.hint,
        }


@dataclass(slots=True)
class RegionInfo:
    """One static checkpoint region recovered from the instruction stream."""

    index: int
    name: str = ""
    #: indices of statically-possible enclosing regions (``None`` = top
    #: level) — the region *forest* the runtime cross-check replays
    parents: set[int | None] = field(default_factory=set)
    sinc_pcs: set[int] = field(default_factory=set)
    sdec_pcs: set[int] = field(default_factory=set)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "parents": sorted(self.parents,
                              key=lambda p: -1 if p is None else p),
            "sinc_pcs": sorted(self.sinc_pcs),
            "sdec_pcs": sorted(self.sdec_pcs),
        }


@dataclass(slots=True)
class LintReport:
    """Everything one synclint run produced."""

    program_name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: checkpoint index -> static region facts
    regions: dict[int, RegionInfo] = field(default_factory=dict)
    instructions: int = 0
    functions: int = 0

    @property
    def errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "warning")

    @property
    def ok(self) -> bool:
        """True when no *error*-severity diagnostic was emitted."""
        return self.errors == 0

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    def region_labels(self, program=None) -> dict[int, str]:
        """Checkpoint index -> human-readable span label.

        Combines the statically recovered region name with the source
        line of its first check-in (via
        :meth:`~repro.isa.program.Program.line_of`) — the naming the
        telemetry layer uses for barrier spans in exported traces.
        """
        labels: dict[int, str] = {}
        for index, region in self.regions.items():
            name = region.name or f"region{index}"
            line = None
            if program is not None and region.sinc_pcs:
                line = program.line_of(min(region.sinc_pcs))
            labels[index] = (f"{name} (line {line})"
                             if line is not None else name)
        return labels

    def render(self) -> str:
        head = (f"synclint {self.program_name}: "
                f"{self.instructions} instructions, "
                f"{self.functions} functions, "
                f"{len(self.regions)} checkpoint regions — "
                f"{self.errors} error(s), {self.warnings} warning(s)")
        body = [d.render() for d in self.diagnostics]
        return "\n".join([head] + [f"  {line}" for entry in body
                                   for line in entry.splitlines()])

    def to_json(self) -> dict:
        return {
            "program": self.program_name,
            "ok": self.ok,
            "errors": self.errors,
            "warnings": self.warnings,
            "instructions": self.instructions,
            "functions": self.functions,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "regions": [self.regions[i].to_json()
                        for i in sorted(self.regions)],
        }

    def json_text(self) -> str:
        return json.dumps(self.to_json(), indent=2)


# ---------------------------------------------------------------------------
# The static analysis
# ---------------------------------------------------------------------------


class _Linter:
    """One verification run over one assembled program."""

    def __init__(self, program: Program, *, name: str,
                 names: dict[int, str] | None,
                 check_divergence: bool, loads_divergent: bool,
                 require_rsync: bool):
        self.program = program
        self.names = dict(names or {})
        for rt_name, rt_index in RUNTIME_SYNC_INDICES.items():
            self.names.setdefault(rt_index, rt_name)
        self.check_divergence = check_divergence
        self.loads_divergent = loads_divergent
        self.require_rsync = require_rsync
        self.report = LintReport(name, instructions=len(program.instructions))
        self.flow = program_flow(program)
        self.functions = partition(program, self.flow)
        self.report.functions = len(self.functions)
        #: transitive may-open index sets, per function entry
        self.opens: dict[int, frozenset[int]] = {}
        #: pc -> minimum open-region depth observed on any visited path
        self.depth: dict[int, int] = {}
        self._seen: set[tuple] = set()

    # -- diagnostics -------------------------------------------------------

    def diag(self, code: str, message: str, *, pc: int | None = None,
             severity: str | None = None, hint: str | None = None) -> None:
        line, location = self._origin(pc)
        item = Diagnostic(code, severity or _SEVERITIES[code], message,
                          pc=pc, line=line, location=location,
                          hint=hint if hint is not None else _HINTS.get(code))
        key = (code, pc, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.report.diagnostics.append(item)

    def _origin(self, pc: int | None) -> tuple[int | None, str | None]:
        if pc is None:
            return None, None
        return self.program.line_of(pc), self.program.source_map.get(pc)

    def _region_name(self, index: int) -> str:
        name = self.names.get(index, "")
        return f"#{index} ({name})" if name else f"#{index}"

    # -- driver ------------------------------------------------------------

    def run(self) -> LintReport:
        self._scan_global()
        self._compute_opens()
        for entry in sorted(self.functions):
            self._balance(self.functions[entry])
        if self.check_divergence:
            self._divergence()
        self.report.diagnostics.sort(
            key=lambda d: (d.pc if d.pc is not None else -1, d.code))
        return self.report

    # -- global scans ------------------------------------------------------

    def _scan_global(self) -> None:
        reachable: set[int] = set()
        for fn in self.functions.values():
            reachable |= fn.body
        uses_sync = False
        sets_rsync = False
        for pc in sorted(reachable):
            ins = self.program.instructions[pc]
            if ins.op is Opcode.SINC or ins.op is Opcode.SDEC:
                uses_sync = True
            elif (ins.op is Opcode.MTSR
                    and ins.imm == int(SpecialReg.RSYNC)):
                sets_rsync = True
            info = self.flow[pc]
            if info.is_indirect:
                kind = ("CALLR" if ins.op is Opcode.CALLR
                        else f"JR R{ins.rs}")
                self.diag(
                    "SL008",
                    f"indirect control flow ({kind}) cannot be followed "
                    "statically; sync discipline past it is unverified",
                    pc=pc)
        if uses_sync and self.require_rsync and not sets_rsync:
            self.diag(
                "SL009",
                "program executes SINC/SDEC but never initializes the "
                "RSYNC checkpoint base register; checkpoints would land "
                "at whatever address Rsync resets to",
                pc=None)

    def _compute_opens(self) -> None:
        """Transitive may-open checkpoint sets, per function."""
        direct: dict[int, set[int]] = {}
        for entry, fn in self.functions.items():
            direct[entry] = {
                self.program.instructions[pc].imm
                for pc in fn.body
                if self.program.instructions[pc].op is Opcode.SINC
            }
        changed = True
        while changed:
            changed = False
            for entry, fn in self.functions.items():
                mine = direct[entry]
                for callee in fn.calls.values():
                    extra = direct.get(callee, set()) - mine
                    if extra:
                        mine |= extra
                        changed = True
        self.opens = {entry: frozenset(indices)
                      for entry, indices in direct.items()}

    # -- balance / nesting / alias analysis --------------------------------

    def _balance(self, fn: FunctionCfg) -> None:
        program, flow = self.program, self.flow
        label = entry_label(program, fn.entry)
        state: dict[int, tuple[int, ...]] = {fn.entry: ()}
        work = [fn.entry]
        conflicted: set[int] = set()
        while work:
            pc = work.pop()
            stack = state[pc]
            depth = len(stack)
            if pc not in self.depth or depth < self.depth[pc]:
                self.depth[pc] = depth
            ins = program.instructions[pc]
            info = flow[pc]
            new_stack = stack

            if ins.op is Opcode.SINC:
                index = ins.imm
                region = self.regions_entry(index)
                region.sinc_pcs.add(pc)
                region.parents.add(stack[-1] if stack else None)
                if not 0 <= index <= SYNC_INDEX_MAX:
                    self.diag(
                        "SL010",
                        f"SINC #{index}: checkpoint index outside the "
                        f"array (0..{SYNC_INDEX_MAX})",
                        pc=pc)
                elif index in stack:
                    self.diag(
                        "SL005",
                        f"SINC {self._region_name(index)}: index is "
                        "already live on this path; a second check-in "
                        "corrupts the counter and the barrier deadlocks",
                        pc=pc)
                else:
                    new_stack = stack + (index,)
            elif ins.op is Opcode.SDEC:
                index = ins.imm
                if index in self.report.regions:
                    self.report.regions[index].sdec_pcs.add(pc)
                if not stack:
                    self.diag(
                        "SL002",
                        f"SDEC {self._region_name(index)} in {label}: "
                        "no region is open on this path",
                        pc=pc)
                elif stack[-1] == index:
                    new_stack = stack[:-1]
                elif index in stack:
                    inner = self._region_name(stack[-1])
                    self.diag(
                        "SL006",
                        f"SDEC {self._region_name(index)} closes an "
                        f"outer region while {inner} is still open "
                        "(regions must close innermost-first)",
                        pc=pc)
                    keep = list(stack)
                    keep.reverse()
                    keep.remove(index)
                    keep.reverse()
                    new_stack = tuple(keep)
                else:
                    self.diag(
                        "SL002",
                        f"SDEC {self._region_name(index)} in {label}: "
                        f"this index was never checked in on this path "
                        f"(open: {self._stack_names(stack)})",
                        pc=pc)
            elif info.call_target is not None and stack:
                callee_opens = self.opens.get(info.call_target, frozenset())
                overlap = sorted(set(stack) & callee_opens)
                if overlap:
                    callee = entry_label(program, info.call_target)
                    shared = ", ".join(self._region_name(i)
                                       for i in overlap)
                    self.diag(
                        "SL007",
                        f"call to {callee} while holding {shared}; the "
                        "callee may check in on the same index and "
                        "deadlock the barrier",
                        pc=pc)

            if (info.is_return or info.is_exit) and not info.is_indirect \
                    and new_stack:
                what = "return" if info.is_return else "HALT/exit"
                self.diag(
                    "SL001",
                    f"{self._stack_names(new_stack)} still open at "
                    f"{what} of {label}",
                    pc=pc)

            for succ in info.succs:
                if succ in state:
                    if state[succ] != new_stack and succ not in conflicted:
                        conflicted.add(succ)
                        self.diag(
                            "SL003",
                            "instruction reachable with open regions "
                            f"{self._stack_names(state[succ])} on one "
                            f"path and {self._stack_names(new_stack)} "
                            "on another",
                            pc=succ)
                else:
                    state[succ] = new_stack
                    work.append(succ)

    def regions_entry(self, index: int) -> RegionInfo:
        region = self.report.regions.get(index)
        if region is None:
            region = RegionInfo(index, self.names.get(index, ""))
            self.report.regions[index] = region
        return region

    def _stack_names(self, stack) -> str:
        if not stack:
            return "no region"
        return "region(s) " + ", ".join(self._region_name(i) for i in stack)

    # -- divergence (core-ID taint) analysis -------------------------------

    def _divergence(self) -> None:
        """Flag divergent conditional branches outside every region (SL004).

        A register is *tainted* when its value provably derives from the
        per-core ``COREID`` special register; flags become tainted when a
        flag-setting operation consumes a tainted input.  Memory loads
        *clear* taint by default (a per-core address may well hold a
        uniform value — e.g. a loop bound computed from a shared
        parameter); pass ``loads_divergent=True`` to treat every load as
        divergent, the fully conservative discipline of the paper's
        manual workflow.
        """
        entry_in: dict[int, tuple[int, bool]] = {
            e: (0, False) for e in self.functions}
        exit_out: dict[int, tuple[int, bool]] = {
            e: (0, False) for e in self.functions}
        for _ in range(len(self.functions) + 2):
            changed = False
            for entry in sorted(self.functions):
                fn = self.functions[entry]
                out, calls = self._taint_function(fn, entry_in[entry],
                                                  exit_out)
                if out != exit_out[entry]:
                    exit_out[entry] = out
                    changed = True
                for callee, (mask, flag) in calls.items():
                    old = entry_in.get(callee)
                    if old is None:
                        continue
                    merged = (old[0] | mask, old[1] or flag)
                    if merged != old:
                        entry_in[callee] = merged
                        changed = True
            if not changed:
                break
        for entry in sorted(self.functions):
            fn = self.functions[entry]
            self._taint_function(fn, entry_in[entry], exit_out,
                                 report=True)

    def _taint_function(self, fn: FunctionCfg,
                        entry_taint: tuple[int, bool],
                        exit_out: dict[int, tuple[int, bool]],
                        *, report: bool = False):
        """Propagate COREID taint through one function body.

        :returns: ``(exit_state, call_site_states)`` where the latter maps
            callee entry -> joined taint state at its call sites.
        """
        program, flow = self.program, self.flow
        state: dict[int, tuple[int, bool]] = {fn.entry: entry_taint}
        work = [fn.entry]
        fn_exit = (0, False)
        call_states: dict[int, tuple[int, bool]] = {}
        while work:
            pc = work.pop()
            mask, flag = state[pc]
            ins = program.instructions[pc]
            info = flow[pc]

            if report and ins.op is Opcode.BCC and flag \
                    and self.depth.get(pc, 0) == 0:
                self.diag(
                    "SL004",
                    "conditional branch depends on per-core data "
                    "(COREID-derived) but executes outside every "
                    "checkpoint region — cores taking different paths "
                    "here silently leave lockstep",
                    pc=pc)

            if info.call_target is not None:
                callee = info.call_target
                prev = call_states.get(callee, (0, False))
                call_states[callee] = (prev[0] | mask, prev[1] or flag)
                out_mask, out_flag = exit_out.get(callee, (0, False))
                mask = (mask & ~_CALLER_SAVED) | (out_mask & _CALLER_SAVED)
                flag = out_flag
            else:
                mask, flag = self._taint_transfer(ins, mask, flag)

            if info.is_return:
                fn_exit = (fn_exit[0] | mask, fn_exit[1] or flag)

            new = (mask, flag)
            for succ in info.succs:
                old = state.get(succ)
                merged = new if old is None else (old[0] | new[0],
                                                  old[1] or new[1])
                if merged != old:
                    state[succ] = merged
                    work.append(succ)
        return fn_exit, call_states

    def _taint_transfer(self, ins, mask: int,
                        flag: bool) -> tuple[int, bool]:
        """One instruction's effect on (register-taint mask, flag taint).

        Mirrors :func:`repro.cpu.executor.execute_plain`: three-register
        ALU ops, ``ADDI`` and shifts write flags; ``MOV``/``MFSR``/load
        immediates do not; ``ADC``/``SBC`` additionally consume the carry.
        """
        op = ins.op
        bit = lambda r: bool(mask & (1 << r))

        def put(r: int, tainted: bool) -> int:
            return (mask | (1 << r)) if tainted else (mask & ~(1 << r))

        if op in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                  Opcode.XOR, Opcode.MUL, Opcode.MULH, Opcode.SLL,
                  Opcode.SRL, Opcode.SRA):
            t = bit(ins.rs) or bit(ins.rt)
            return put(ins.rd, t), t
        if op in (Opcode.ADC, Opcode.SBC):
            t = bit(ins.rs) or bit(ins.rt) or flag
            return put(ins.rd, t), t
        if op is Opcode.ADDI:
            t = bit(ins.rs)
            return put(ins.rd, t), t
        if op is Opcode.SHI:
            t = bit(ins.rd)
            return mask, t
        if op is Opcode.CMP:
            return mask, bit(ins.rd) or bit(ins.rs)
        if op is Opcode.CMPI:
            return mask, bit(ins.rd)
        if op is Opcode.MOV:
            return put(ins.rd, bit(ins.rs)), flag
        if op is Opcode.MFSR:
            return put(ins.rd, ins.imm == int(SpecialReg.COREID)), flag
        if op in (Opcode.LDI, Opcode.LUI):
            return put(ins.rd, False), flag
        if op is Opcode.ORI:
            return mask, flag
        if op is Opcode.LD:
            return put(ins.rd, self.loads_divergent), flag
        return mask, flag


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lint_program(program: Program, *, name: str = "program",
                 names: dict[int, str] | None = None,
                 check_divergence: bool = True,
                 loads_divergent: bool = False,
                 require_rsync: bool = True) -> LintReport:
    """Statically verify the sync discipline of an assembled program.

    :param names: checkpoint index -> human label (e.g. from a
        :class:`~repro.sync.points.SyncPointAllocator`).
    :param check_divergence: run the core-ID taint pass (``SL004``).
    :param loads_divergent: strict mode — treat every memory load as
        per-core data.
    :param require_rsync: demand an ``MTSR RSYNC`` before any use of the
        sync ISE (``SL009``).
    """
    return _Linter(program, name=name, names=names,
                   check_divergence=check_divergence,
                   loads_divergent=loads_divergent,
                   require_rsync=require_rsync).run()


def lint_assembly(source: str, *, name: str = "assembly",
                  filename: str | None = None,
                  sync_enabled: bool = True,
                  check_divergence: bool = True,
                  loads_divergent: bool = False,
                  require_rsync: bool = True) -> LintReport:
    """Verify assembly text, expanding ``;@sync`` pragmas first.

    Pragma lines expand 1:1 into ``SINC``/``SDEC`` lines, so diagnostics
    carry the *original* file's line numbers.  Pragma structural errors
    (unbalanced, misnamed ends) surface as
    :class:`~repro.sync.instrument.InstrumentationError` before any
    assembly happens.
    """
    from ..isa.assembler import assemble
    from .instrument import instrument_assembly

    instrumented = instrument_assembly(source, enabled=sync_enabled,
                                       filename=filename)
    program = assemble(instrumented.source)
    index_names = {region.index: region.name
                   for region in instrumented.region_list}
    return lint_program(program, name=name, names=index_names,
                        check_divergence=check_divergence,
                        loads_divergent=loads_divergent,
                        require_rsync=require_rsync)


def lint_minic(source: str, *, name: str = "minic",
               sync_mode: str = "auto",
               sync_min_statements: int = 0) -> LintReport:
    """Compile minic source and verify the result (program + AST levels)."""
    from ..compiler.driver import compile_source

    result = compile_source(source, sync_mode=sync_mode,
                            sync_min_statements=sync_min_statements,
                            synclint="off")
    return lint_compile_result(result, name=name)


def lint_compile_result(result, *, name: str | None = None) -> LintReport:
    """Verify one :class:`~repro.compiler.driver.CompileResult`.

    Runs the program-level balance/nesting/alias checks, then the
    source-level divergence-coverage check driven by the compiler's own
    uniformity facts.  The instruction-level taint pass is skipped: for
    compiled code the AST facts are strictly more precise, and the
    baseline (``sync_mode='none'``) build is *intentionally* uncovered.
    """
    report = lint_program(
        result.program,
        name=name or f"minic[{result.sync_mode}]",
        names=dict(result.allocator._names),
        check_divergence=False,
        require_rsync=True)
    if result.sync_mode in ("auto", "all"):
        _ast_coverage(result.ast, report)
        report.diagnostics.sort(
            key=lambda d: (d.pc if d.pc is not None else -1, d.code))
    return report


def _ast_coverage(ast, report: LintReport) -> None:
    """Source-level SL004: divergent conditionals outside every region.

    Reuses the divergence annotations left by
    :func:`repro.compiler.uniformity.analyze_uniformity` and the
    ``sync_index`` annotations of the insertion pass.  A divergent
    conditional with no checkpoint of its own *and* no enclosing
    checkpointed ancestor keeps its divergence until (at best) the next
    barrier — normally only reachable through the density knob
    (``sync_min_statements``), so this surfaces as a warning.
    """
    from ..compiler.ast_nodes import (
        Block, ForStmt, FuncDecl, IfStmt, WhileStmt,
    )

    def walk(node, func: FuncDecl, covered: bool) -> None:
        if isinstance(node, Block):
            for child in node.statements:
                walk(child, func, covered)
            return
        if isinstance(node, (IfStmt, WhileStmt, ForStmt)):
            index = getattr(node, "sync_index", None)
            divergent = getattr(node, "divergent", False)
            if divergent and index is None and not covered:
                kind = {IfStmt: "if", WhileStmt: "while",
                        ForStmt: "for"}[type(node)]
                report.diagnostics.append(Diagnostic(
                    "SL004", "warning",
                    f"divergent '{kind}' is not covered by any "
                    "checkpoint — cores leave lockstep here and nothing "
                    "resynchronizes them",
                    line=node.line,
                    location=f"{func.name}:{kind}@line{node.line}",
                    hint="lower sync_min_statements, qualify the "
                         "condition's inputs 'uniform', or wrap the "
                         "region with __sync_enter/__sync_exit"))
            inner = covered or index is not None
            for attr in ("then_body", "else_body", "body"):
                child = getattr(node, attr, None)
                if child is not None:
                    walk(child, func, inner)
            return
        for attr in ("then_body", "else_body", "body"):
            child = getattr(node, attr, None)
            if child is not None:
                walk(child, func, covered)

    for func in ast.functions:
        walk(func.body, func, False)


# ---------------------------------------------------------------------------
# Runtime cross-check
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CrosscheckResult:
    """Outcome of replaying observed barrier traffic against the static
    region forest."""

    events: int = 0
    checkins: int = 0
    checkouts: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        head = (f"crosscheck: {self.events} barrier events "
                f"({self.checkins} check-ins, {self.checkouts} "
                f"check-outs) — "
                f"{'consistent with the static region tree' if self.ok else f'{len(self.violations)} violation(s)'}")
        return "\n".join([head] + [f"  {v}" for v in self.violations])


class SyncCrosscheck:
    """Asserts the simulator's barrier traces match the static region tree.

    Registers a completion listener on a machine's hardware synchronizer
    and replays every observed check-in/check-out, per core, against the
    region forest a clean :class:`LintReport` recovered statically:

    - every observed checkpoint index must exist in the static tree (a
      miss usually means ``Rsync`` points at the wrong base);
    - per core, check-ins must nest exactly as some static parent/child
      relationship allows, and check-outs must close the innermost open
      region (LIFO);
    - at the end of the run every core's region stack must be empty.

    Use :meth:`result` after the run.  Every read-modify-write, run by
    the reference synchronizer or replayed by a fast engine, reaches the
    synchronizer's listeners, so no probe (and no slowdown of lockstep
    bursts) is needed.
    """

    def __init__(self, machine, report: LintReport,
                 base: int = DEFAULT_SYNC_BASE):
        if machine.synchronizer is None:
            raise ValueError("crosscheck needs a platform with the "
                             "hardware synchronizer")
        self.machine = machine
        self.report = report
        self.base = base
        self.stacks: list[list[int]] = [
            [] for _ in range(machine.config.num_cores)]
        self._result = CrosscheckResult()
        machine.synchronizer.listeners.append(self._on_completion)

    # -- listener ----------------------------------------------------------

    def _on_completion(self, cycle: int, completion) -> None:
        res = self._result
        res.events += 1
        index = completion.address - self.base
        region = self.report.regions.get(index)
        if region is None:
            res.violations.append(
                f"cycle {cycle}: checkpoint @{completion.address} "
                f"(index {index}) is not in the static region tree — "
                "is RSYNC pointing at the right base?")
            return
        for core in completion.checkin_cores:
            res.checkins += 1
            stack = self.stacks[core]
            parent = stack[-1] if stack else None
            if parent not in region.parents:
                allowed = ", ".join(
                    "top-level" if p is None else f"#{p}"
                    for p in sorted(region.parents,
                                    key=lambda p: -1 if p is None else p))
                res.violations.append(
                    f"cycle {cycle}: core {core} entered region "
                    f"#{index} under "
                    f"{'#%d' % parent if parent is not None else 'no region'}"
                    f", but statically it nests under: {allowed}")
            stack.append(index)
        for core in completion.checkout_cores:
            res.checkouts += 1
            stack = self.stacks[core]
            if not stack:
                res.violations.append(
                    f"cycle {cycle}: core {core} checked out of region "
                    f"#{index} with no region open")
            elif stack[-1] != index:
                res.violations.append(
                    f"cycle {cycle}: core {core} checked out of region "
                    f"#{index} while #{stack[-1]} is innermost")
                if index in stack:
                    stack.remove(index)
            else:
                stack.pop()

    # -- results -----------------------------------------------------------

    def result(self) -> CrosscheckResult:
        """Finalize: every core must have closed all its regions."""
        res = self._result
        for core, stack in enumerate(self.stacks):
            if stack:
                open_regions = ", ".join(f"#{i}" for i in stack)
                res.violations.append(
                    f"end of run: core {core} still holds "
                    f"region(s) {open_regions}")
                stack.clear()
        return res
