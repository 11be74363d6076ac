"""SQRT32 platform kernel (paper benchmark 3) — hand-written assembly.

Per core/channel: an RMS envelope — for every non-overlapping window of 8
samples, accumulate the 32-bit sum of squares and take its mean's integer
square root (Rolfe's non-restoring method, one data-dependent trial
subtraction per bit).  Matches :func:`repro.dsp.sqrt32.rms_envelope`
bit for bit.

The kernel is written in assembly because it needs 32-bit arithmetic
(``ADC``/``SBC`` register pairs) that minic's 16-bit ``int`` cannot
express — mirroring how such hot kernels were hand-tuned on the real
platform.  Synchronization points are marked with ``;@sync`` pragmas
(the paper's Listing-1 workflow) and expanded or stripped by
:func:`repro.sync.instrument.instrument_assembly`.

Register plan: R6 points at the core's private scratch area (no calls, so
the stack pointer convention is free); the 32-bit working values use
R0:R1 (c), R2:R3 (d), R4:R5 (t/acc); R7 is scratch; the radicand x lives
in scratch memory words 0..1.
"""

from __future__ import annotations

from ..dsp.sqrt32 import rms_envelope
from ..sync.points import DEFAULT_SYNC_BASE
from .layout import SHARED_BASE

NAME = "SQRT32"

WINDOW = 8
WINDOW_SHIFT = 3

#: DM address of the shared sample-count parameter.
N_SAMPLES_ADDRESS = SHARED_BASE

SOURCE = f"""
.equ SHARED {SHARED_BASE}
.equ SYNCBASE {DEFAULT_SYNC_BASE}
.entry __start
__start:
    MFSR R0, COREID
    LI R1, #2048
    MUL R2, R0, R1          ; R2 = private bank base
    MOV R6, R2
    LI R1, #1024
    ADD R6, R6, R1          ; R6 = scratch base
    ST R2, [R6 + #2]        ; in_ptr = base
    LI R1, #512
    ADD R3, R2, R1
    ST R3, [R6 + #3]        ; out_ptr = base + 512
    LI R1, #SHARED
    LD R1, [R1]
    SRLI R1, #{WINDOW_SHIFT}
    ST R1, [R6 + #4]        ; windows = n_samples / 8
    LI R1, #SYNCBASE
    MTSR RSYNC, R1

window_loop:
    LD R1, [R6 + #4]
    CMPI R1, #0
    LBEQ done

    ; ---- acc = sum of squares over 8 samples (32-bit in R4:R5) ----
    CLR R4
    CLR R5
    LD R2, [R6 + #2]
    LDI R3, #{WINDOW}
acc_loop:
    LD R0, [R2]
    MUL R1, R0, R0
    MULH R0, R0, R0
    ADD R5, R5, R1
    ADC R4, R4, R0
    ADDI R2, R2, #1
    ADDI R3, R3, #-1
    BNE acc_loop
    ST R2, [R6 + #2]

    ; ---- mean: acc >>= 3 ----
    SRLI R5, #{WINDOW_SHIFT}
    MOV R7, R4
    SLLI R7, #{16 - WINDOW_SHIFT}
    OR R5, R5, R7
    SRLI R4, #{WINDOW_SHIFT}
    ST R4, [R6 + #0]        ; x_hi
    ST R5, [R6 + #1]        ; x_lo

    ; ---- c = isqrt32(x) (non-restoring, Rolfe) ----
;@sync begin isqrt
    CLR R0                  ; c_hi
    CLR R1                  ; c_lo
    LI R2, #0x4000          ; d = 1 << 30
    CLR R3
;@sync begin align
align_loop:
    LD R7, [R6 + #0]
    CMP R2, R7              ; d_hi vs x_hi
    BLTU aligned
    BNE do_shift
    LD R7, [R6 + #1]
    CMP R3, R7              ; d_lo vs x_lo
    BLTU aligned
    BEQ aligned
do_shift:
    SRLI R3, #2
    MOV R7, R2
    SLLI R7, #14
    OR R3, R3, R7
    SRLI R2, #2
    OR R7, R2, R3
    BEQ aligned             ; d reached 0 (x == 0)
    BR align_loop
aligned:
;@sync end

sqrt_loop:
    OR R7, R2, R3
    LBEQ sqrt_done
    ADD R5, R1, R3          ; t = c + d
    ADC R4, R0, R2
;@sync begin trial
    LD R7, [R6 + #0]
    CMP R7, R4              ; x_hi vs t_hi
    BLTU no_sub
    BNE do_sub
    LD R7, [R6 + #1]
    CMP R7, R5
    BLTU no_sub
do_sub:
    LD R7, [R6 + #1]        ; x -= t
    SUB R7, R7, R5
    ST R7, [R6 + #1]
    LD R7, [R6 + #0]
    SBC R7, R7, R4
    ST R7, [R6 + #0]
    SRLI R1, #1             ; c = (c >> 1) + d
    MOV R7, R0
    SLLI R7, #15
    OR R1, R1, R7
    SRLI R0, #1
    ADD R1, R1, R3
    ADC R0, R0, R2
    BR trial_join
no_sub:
    SRLI R1, #1             ; c >>= 1
    MOV R7, R0
    SLLI R7, #15
    OR R1, R1, R7
    SRLI R0, #1
trial_join:
;@sync end
    SRLI R3, #2             ; d >>= 2
    MOV R7, R2
    SLLI R7, #14
    OR R3, R3, R7
    SRLI R2, #2
    BR sqrt_loop
sqrt_done:
;@sync end

    LD R7, [R6 + #3]        ; *out_ptr++ = c
    ST R1, [R7]
    ADDI R7, R7, #1
    ST R7, [R6 + #3]
    LD R1, [R6 + #4]        ; windows--
    ADDI R1, R1, #-1
    ST R1, [R6 + #4]
    BR window_loop

done:
    HALT
"""


def golden(channel: list[int]) -> list[int]:
    """Reference RMS envelope for one channel (bit-exact)."""
    return rms_envelope(channel, window=WINDOW)
