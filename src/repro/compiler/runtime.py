"""Runtime support emitted with every compiled minic program.

- ``crt0``: per-core startup — stack pointer in the core's private DM bank,
  ``Rsync`` pointing at the checkpoint array, then ``main()`` and ``HALT``.
- ``__div16`` / ``__mod16``: software signed division (the ISA has ``MUL``
  but no divider, like the paper's 16-bit core), restoring shift-subtract
  over 16 bits with C-style truncation semantics.  Division by zero yields
  quotient ``-1`` and remainder = dividend.
"""

from __future__ import annotations

from ..sync.points import DEFAULT_SYNC_BASE, RUNTIME_SYNC_INDICES

#: Base DM address for minic globals (bank 8: shared, broadcast-friendly).
GLOBALS_BASE = 8 * 2048

#: Words per private DM bank (stacks live at the top of each core's bank).
STACK_BANK_WORDS = 2048


def crt0(sync_base: int = DEFAULT_SYNC_BASE,
         stack_bank_words: int = STACK_BANK_WORDS) -> str:
    """Startup code: runs on every core (SPMD)."""
    return f"""\
.entry __start
__start:
    MFSR R0, COREID
    ADDI R0, R0, #1
    LI R1, #{stack_bank_words}
    MUL R6, R0, R1
    LI R1, #{sync_base}
    MTSR RSYNC, R1
    CALL f_main
    HALT
"""


def _divmod_routine(name: str, result_reg: str, sync: bool) -> str:
    """Shared body of __div16/__mod16 (quotient in R2, remainder in R3).

    With ``sync`` enabled the whole routine forms one synchronization
    region: its shift-subtract loop branches on data, which would silently
    break lockstep in callers the uniformity analysis proved uniform.
    """
    p = name.strip("_")
    enter = f"    SINC #{RUNTIME_SYNC_INDICES[name]}\n" if sync else ""
    leave = f"    SDEC #{RUNTIME_SYNC_INDICES[name]}\n" if sync else ""
    return f"""\
{name}:
    ADDI SP, SP, #-1
    ST R7, [SP]
{enter}    LD R0, [SP + #1]
    LD R1, [SP + #2]
    CLR R4
    CMPI R1, #0
    BNE {p}_divisor_ok
    LDI R2, #-1
    MOV R3, R0
    BR {p}_fix
{p}_divisor_ok:
    CMPI R0, #0
    BGE {p}_apos
    LDI R2, #0
    SUB R0, R2, R0
    LDI R2, #3
    XOR R4, R4, R2
{p}_apos:
    CMPI R1, #0
    BGE {p}_bpos
    LDI R2, #0
    SUB R1, R2, R1
    LDI R2, #1
    XOR R4, R4, R2
{p}_bpos:
    CLR R2
    CLR R3
    LDI R7, #16
{p}_loop:
    SLLI R2, #1
    SLLI R3, #1
    SLLI R0, #1
    BLTU {p}_nobit
    ORI R3, #1
{p}_nobit:
    CMP R3, R1
    BLTU {p}_nosub
    SUB R3, R3, R1
    ORI R2, #1
{p}_nosub:
    ADDI R7, R7, #-1
    BNE {p}_loop
{p}_fix:
    LDI R0, #1
    AND R0, R4, R0
    CMPI R0, #0
    BEQ {p}_qpos
    LDI R0, #0
    SUB R2, R0, R2
{p}_qpos:
    LDI R0, #2
    AND R0, R4, R0
    CMPI R0, #0
    BEQ {p}_rpos
    LDI R0, #0
    SUB R3, R0, R3
{p}_rpos:
    MOV R0, {result_reg}
{leave}    LD R7, [SP]
    ADDI SP, SP, #1
    RET
"""


def runtime_library(sync: bool = False) -> str:
    """The full runtime: software division and modulo.

    :param sync: wrap each routine in a checkpoint region (sync-enabled
        builds only; see :data:`repro.sync.points.RUNTIME_SYNC_INDICES`).
    """
    return (_divmod_routine("__div16", "R2", sync)
            + _divmod_routine("__mod16", "R3", sync))
