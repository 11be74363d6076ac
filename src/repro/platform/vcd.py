"""VCD (Value Change Dump) waveform export for platform simulations.

Attach a :class:`VcdProbe` to a machine and every cycle's core states are
written as a standard IEEE-1364 VCD file, viewable in GTKWave or any
waveform viewer — the debugging workflow an RTL engineer would expect
from the original platform.

Signals per core:

- ``coreN_pc``    (16-bit wire) — program counter;
- ``coreN_state`` (2-bit wire)  — 0 active, 1 stalled, 2 sleeping, 3 halted;

and globally:

- ``im_accesses`` (8-bit)  — IM bank reads this cycle;
- ``dm_accesses`` (8-bit)  — DM bank operations this cycle;
- ``sync_wake``   (1-bit)  — a barrier released this cycle;
- ``retired``     (8-bit)  — instructions retired this cycle.

Time is in nanoseconds at the nominal 12 ns clock period.
"""

from __future__ import annotations

from ..cpu.state import CoreMode

#: VCD identifier characters (printable ASCII, excluding whitespace).
_ID_ALPHABET = [chr(c) for c in range(33, 127)]

STATE_ACTIVE = 0
STATE_STALLED = 1
STATE_SLEEPING = 2
STATE_HALTED = 3

#: nominal clock period in ns (sec. V-A of the paper)
CLOCK_PERIOD_NS = 12


def _identifier(index: int) -> str:
    """Short unique VCD identifier for signal ``index``."""
    base = len(_ID_ALPHABET)
    out = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, base)
        out = _ID_ALPHABET[digit] + out
    return out


class VcdProbe:
    """Cycle probe that streams a VCD waveform.

    :param sink: a path (str) or a writable text file object.
    :param module: name of the VCD scope.
    """

    def __init__(self, sink, module: str = "platform"):
        if isinstance(sink, str):
            self._file = open(sink, "w", encoding="ascii")
            self._owns_file = True
        else:
            self._file = sink
            self._owns_file = False
        self._module = module
        self._signals: list[tuple[str, int, str]] = []  # (name, bits, id)
        self._previous: dict[str, int] = {}
        self._header_written = False
        self._last_counts = {"im": 0, "dm": 0, "ops": 0}
        # event-driven synchronizer view (fed by completion listeners,
        # not re-derived from counters every cycle)
        self._wake_pulse = False
        self._asleep: set[int] = set()

    # ------------------------------------------------------------------

    def _declare(self, name: str, bits: int) -> str:
        ident = _identifier(len(self._signals))
        self._signals.append((name, bits, ident))
        return ident

    def _write_header(self, machine) -> None:
        n = machine.config.num_cores
        self._core_pc = [self._declare(f"core{c}_pc", 16) for c in range(n)]
        self._core_state = [self._declare(f"core{c}_state", 2)
                            for c in range(n)]
        self._im = self._declare("im_accesses", 8)
        self._dm = self._declare("dm_accesses", 8)
        self._wake = self._declare("sync_wake", 1)
        self._retired = self._declare("retired", 8)

        out = self._file
        out.write("$comment repro ulp16 multi-core platform $end\n")
        out.write("$timescale 1 ns $end\n")
        out.write(f"$scope module {self._module} $end\n")
        for name, bits, ident in self._signals:
            out.write(f"$var wire {bits} {ident} {name} $end\n")
        out.write("$upscope $end\n$enddefinitions $end\n")
        self._header_written = True
        if machine.synchronizer is not None:
            machine.synchronizer.listeners.append(self._on_sync)

    def _on_sync(self, cycle: int, completion) -> None:
        """Synchronizer completion listener: tracks barrier sleepers and
        latches the wake pulse, replacing per-cycle counter diffing.

        Fires on the reference path even under the fast engine, so the
        VCD is bit-identical either way (the probe forces per-cycle
        stepping regardless; this keeps the *source* of the signals the
        event stream, same as the telemetry tracer)."""
        if completion.barrier_released:
            self._wake_pulse = True
            self._asleep -= set(completion.woken_cores)
        else:
            self._asleep |= set(completion.checkout_cores)

    def _state_code(self, machine, core_id: int, active: set[int]) -> int:
        if core_id in active:
            return STATE_ACTIVE
        mode = machine.cores[core_id].mode
        if mode is CoreMode.HALTED:
            return STATE_HALTED
        # barrier sleepers come from the completion events; the mode
        # check keeps explicit SLEEP instructions (no event) covered
        if core_id in self._asleep or mode is CoreMode.SLEEPING:
            return STATE_SLEEPING
        return STATE_STALLED

    def _emit(self, ident: str, value: int, bits: int,
              changes: list[str]) -> None:
        if self._previous.get(ident) == value:
            return
        self._previous[ident] = value
        if bits == 1:
            changes.append(f"{value}{ident}")
        else:
            changes.append(f"b{value:b} {ident}")

    # ------------------------------------------------------------------
    # Probe interface
    # ------------------------------------------------------------------

    def sample(self, machine, active: set[int]) -> None:
        if not self._header_written:
            self._write_header(machine)

        trace = machine.trace
        changes: list[str] = []
        for core_id, core in enumerate(machine.cores):
            self._emit(self._core_pc[core_id], core.pc & 0xFFFF, 16,
                       changes)
            self._emit(self._core_state[core_id],
                       self._state_code(machine, core_id, active), 2,
                       changes)

        counts = {"im": trace.im_bank_accesses, "dm": trace.dm_accesses,
                  "ops": trace.retired_ops}
        deltas = {k: counts[k] - self._last_counts[k] for k in counts}
        self._last_counts = counts
        self._emit(self._im, min(deltas["im"], 255), 8, changes)
        self._emit(self._dm, min(deltas["dm"], 255), 8, changes)
        self._emit(self._wake, 1 if self._wake_pulse else 0, 1, changes)
        self._wake_pulse = False
        self._emit(self._retired, min(deltas["ops"], 255), 8, changes)

        if changes:
            self._file.write(f"#{trace.cycles * CLOCK_PERIOD_NS}\n")
            self._file.write("\n".join(changes) + "\n")

    def finish(self, machine) -> None:
        self._file.write(
            f"#{(machine.trace.cycles + 1) * CLOCK_PERIOD_NS}\n")
        if self._owns_file:
            self._file.close()


def dump_vcd(machine, sink) -> None:
    """Convenience: attach a VCD probe and run the machine to completion."""
    probe = VcdProbe(sink)
    machine.attach_probe(probe)
    machine.run()


def parse_vcd_signals(text: str) -> dict[str, list[tuple[int, int]]]:
    """Minimal VCD reader (used by tests and notebooks): returns
    ``signal name -> [(time, value), ...]``."""
    names: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("$var"):
            parts = line.split()
            names[parts[3]] = parts[4]
    series: dict[str, list[tuple[int, int]]] = {
        name: [] for name in names.values()}
    time = 0
    body = text.split("$enddefinitions $end", 1)[1]
    for line in body.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            time = int(line[1:])
        elif line.startswith("b"):
            value_str, ident = line[1:].split()
            series[names[ident]].append((time, int(value_str, 2)))
        elif line[0] in "01" and line[1:] in names:
            series[names[line[1:]]].append((time, int(line[0])))
    return series
