#!/usr/bin/env python3
"""Resolves pcsample.c output into shares of samples.

    python3 tools/pcsample/resolve.py pcsample.12345 [--top 25]

Prints three tables, each the share of all samples:
  function     the symbol each sampled instruction belongs to (self
               time; an inlined callee counts toward its caller)
  inlined      the innermost inlined frame and its source line
  instruction  each sampled address, with its innermost source line and
               its disassembly

Addresses are resolved with binutils addr2line and objdump, so build
with debug info (-g, e.g. RelWithDebInfo or Release plus -g) to get
inlined frames and source lines.
"""

import argparse
import collections
import os
import subprocess
import sys


def resolve(obj, offsets):
    """Maps each offset to its inline chain [(function, file:line)],
    innermost first, via one addr2line call."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
        input="".join(f"{o}\n" for o in offsets), capture_output=True,
        text=True, check=True).stdout.splitlines()
    chains, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = chains.setdefault(int(out[i], 16), [])
            i += 1
            continue
        where = out[i + 1] if i + 1 < len(out) else "??:0"
        path, _, line = where.partition(":")
        cur.append((out[i], f"{os.path.basename(path)}:{line.split()[0]}"))
        i += 2
    return chains


def disasm(obj, off):
    out = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn",
         f"--start-address={off:#x}", f"--stop-address={off + 16:#x}",
         obj], capture_output=True, text=True).stdout.splitlines()
    for line in out:
        addr, sep, insn = line.partition(":\t")
        if sep and addr.strip() == f"{off:x}":
            return " ".join(insn.split())
    return "?"


def table(title, counts, total, top):
    print(f"\n{title} (top {top} of {len(counts)}, {total} samples)")
    for key, c in counts.most_common(top):
        print(f"  {100.0 * c / total:6.2f}%  {key}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples", nargs="+", help="pcsample output files")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    samples = collections.Counter()
    for path in args.samples:
        with open(path) as f:
            for line in f:
                obj, off = line.split()
                samples[(obj, int(off, 16))] += 1
    total = sum(samples.values())
    if total == 0:
        sys.exit("no samples")

    chains = {}
    by_obj = collections.defaultdict(list)
    for obj, off in samples:
        by_obj[obj].append(off)
    for obj, offs in by_obj.items():
        if obj == "?" or not os.path.exists(obj):
            continue
        for off, chain in resolve(obj, [hex(o) for o in offs]).items():
            chains[(obj, off)] = chain

    func, inl, insn = (collections.Counter() for _ in range(3))
    for key, c in samples.items():
        chain = chains.get(key) or [("??", "??:0")]
        obj = os.path.basename(key[0])
        func[f"{chain[-1][0]}  [{obj}]"] += c
        inl[f"{chain[0][0]}  {chain[0][1]}"] += c
    table("function", func, total, args.top)
    table("inlined", inl, total, args.top)

    print(f"\ninstruction (top {args.top} of {len(samples)}, "
          f"{total} samples)")
    for (obj, off), c in samples.most_common(args.top):
        chain = chains.get((obj, off)) or [("??", "??:0")]
        text = disasm(obj, off) if os.path.exists(obj) else "?"
        print(f"  {100.0 * c / total:6.2f}%  {os.path.basename(obj)}"
              f"+{off:#x}  {chain[0][1]}  {chain[-1][0][:60]}  |  {text}")


if __name__ == "__main__":
    main()
