"""Peephole cleanup of generated assembly.

Codegen emits structurally (branch to a label that often follows
immediately); these rewrites remove the obvious fat without changing
behaviour.  Working on assembly text keeps the pass trivially auditable.
"""

from __future__ import annotations


def _label_of(line: str) -> str | None:
    stripped = line.strip()
    if stripped.endswith(":") and not stripped.startswith((";", "//")):
        return stripped[:-1]
    return None


def _is_jump_to(line: str) -> str | None:
    parts = line.split()
    if len(parts) == 2 and parts[0] in ("BR", "JMP"):
        return parts[1]
    return None


def peephole(lines: list[str]) -> list[str]:
    """Apply peephole rewrites until a fixed point."""
    changed = True
    while changed:
        lines, jumps = _remove_jump_to_next(lines)
        lines, forwards = _forward_store_to_load(lines)
        changed = jumps or forwards
    return lines


def _parse_mem(line: str) -> tuple[str, str, str] | None:
    """Parse ``LD/ST reg, [base + #off]`` into (mnemonic, reg, operand).

    Comment suffixes are stripped first so commented operands still
    compare equal.
    """
    stripped = line.split(";", 1)[0].split("//", 1)[0].strip()
    if not stripped.startswith(("LD ", "ST ")):
        return None
    mnemonic, rest = stripped.split(None, 1)
    reg, _, operand = rest.partition(",")
    return mnemonic, reg.strip(), operand.strip()


def _forward_store_to_load(lines: list[str]) -> tuple[list[str], bool]:
    """Forward a just-stored value to an immediately following load.

    ``ST Rx, [addr]`` followed by ``LD Ry, [addr]`` (no label in between,
    so no other entry point) loads the value just written: the load is
    dropped (same register) or becomes a ``MOV`` (different register),
    saving a data-memory access.  Neither LD nor MOV touches the flags,
    so the rewrite is flag-transparent.

    Intervening ``SINC``/``SDEC`` instructions are looked through: they
    only access checkpoint words (which codegen never addresses through
    LD/ST) and touch no general-purpose register, so the forwarded value
    survives them — this keeps the optimization symmetric between the
    baseline and the sync-instrumented build.
    """
    out: list[str] = []
    changed = False
    for line in lines:
        load = _parse_mem(line)
        if load is not None and load[0] == "LD" and out:
            index = len(out) - 1
            while index >= 0 and out[index].strip().startswith(
                    ("SINC", "SDEC")):
                index -= 1
            store = _parse_mem(out[index]) if index >= 0 else None
            if (store is not None and store[0] == "ST"
                    and store[2] == load[2]):
                if store[1] == load[1]:
                    changed = True
                    continue                      # value already there
                out.append(f"    MOV {load[1]}, {store[1]}")
                changed = True
                continue
        out.append(line)
    return out, changed


def _remove_jump_to_next(lines: list[str]) -> tuple[list[str], bool]:
    """Drop ``BR L`` when control falls through to ``L:`` anyway."""
    out: list[str] = []
    changed = False
    for index, line in enumerate(lines):
        target = _is_jump_to(line.strip())
        if target is not None and _follows_via_labels(lines, index, target):
            changed = True
            continue
        out.append(line)
    return out, changed


def _follows_via_labels(lines: list[str], index: int, target: str) -> bool:
    for follower in lines[index + 1:]:
        stripped = follower.strip()
        if not stripped:
            continue
        label = _label_of(stripped)
        if label == target:
            return True
        if label is not None:
            continue
        return False
    return False
