#!/usr/bin/env python3
"""Checks that the AVX2 GEMM kernels keep their accumulators in registers.

    python3 tools/check_gemm_registers.py build/src/tensor/CMakeFiles/sarn_tensor.dir/simd/matmul_avx2.cc.o

Disassembles the object with objdump and looks at every innermost loop (a
conditional jump back to an earlier address with no other such loop inside
it) that does ymm multiplies or adds: the k loops of the tiled kernels and
of the narrow paths. An accumulator that lives in memory shows up there as a
vector load or store against the stack, a vector store of any kind, or an
add with a memory operand; any of these fails the check (exit 1). Integer
reloads from the stack (address offsets the register allocator could not
keep) are listed but do not fail it. DESIGN.md §15 has the rule.
"""

import re
import subprocess
import sys

VECTOR_STORE = re.compile(r"v(mov[au]ps|maskmovps|movss|extractf128)\s+%[xy]mm\d+,.*\(")
MEMORY_ADD = re.compile(r"vaddps\s+-?(0x)?[0-9a-f]*\(")
VECTOR_ARITH = re.compile(r"v(add|mul)ps\s.*%ymm")


def functions(obj):
    out = subprocess.run(["objdump", "-d", "--no-show-raw-insn", "-C", obj],
                         capture_output=True, text=True, check=True).stdout
    funcs, name = {}, None
    for line in out.splitlines():
        head = re.match(r"^[0-9a-f]+ <(.*)>:$", line)
        if head:
            name = head.group(1).split("(")[0]
            funcs[name] = []
            continue
        ins = re.match(r"^\s+([0-9a-f]+):\s+(.*)$", line)
        if ins and name:
            funcs[name].append((int(ins.group(1), 16), ins.group(2).strip()))
    return funcs


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: check_gemm_registers.py OBJECT_FILE")
    failed = 0
    for name, body in functions(sys.argv[1]).items():
        loops = []
        for addr, text in body:
            jump = re.match(r"^j(?!mp)\w+\s+([0-9a-f]+)\b", text)
            if jump and int(jump.group(1), 16) < addr:
                loops.append((int(jump.group(1), 16), addr))
        inner = [l for l in loops
                 if not any(o != l and l[0] <= o[0] and o[1] <= l[1] for o in loops)]
        for lo, hi in inner:
            text = [t for a, t in body if lo <= a <= hi]
            arith = sum(1 for t in text if VECTOR_ARITH.match(t))
            if not arith:
                continue
            stack = [t for t in text if "%rsp" in t or "%rbp" in t]
            spills = [t for t in stack if "mm" in t]
            spills += [t for t in text if VECTOR_STORE.match(t) or MEMORY_ADD.match(t)]
            reloads = [t for t in stack if "mm" not in t]
            failed += bool(spills)
            print(f"{'SPILL' if spills else 'ok'}  {name} loop {lo:#x}-{hi:#x}: "
                  f"{len(text)} instructions, {arith} ymm mul/add, "
                  f"{len(spills)} accumulator spills, {len(reloads)} integer stack reloads")
            for t in spills + reloads:
                print(f"      {t}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
