#!/usr/bin/env python3
"""Sample where a child process spends its CPU: leaf functions and callers.

  scripts/sample_stacks.py [--start S] [--seconds S] [--hz N] [--threads RE]
                           [--top N] [--match RE] -- COMMAND [ARGS...]

Starts COMMAND as a child, waits --start seconds (setup), then samples it
for --seconds at about --hz rounds per second. A round visits every thread
whose name matches --threads and that is running (state R): it seizes the
thread with ptrace, interrupts it, reads its registers, walks its frame
pointers through /proc/<pid>/mem and detaches. At the end it prints the
--top functions by leaf share (the sampled instruction pointer) and by
inclusive share (anywhere in the walked stack; only names matching
--match). Addresses are symbolized with `addr2line -i`, so a function
inlined into another still counts as itself (the innermost one takes the
leaf share); where the binary has no line tables, with `nm`.

A development aid, for hosts without `perf`: the process must be this
script's own child, and callers are only found through frames that keep a
frame pointer, so build the binary with them, into a target directory of
its own so the normal build is not rebuilt:

  RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=target-fp \\
      cargo build --release --offline --manifest-path benchmark/Cargo.toml
  scripts/sample_stacks.py --start 4 --seconds 10 --threads phoebe-worker \\
      --match 'node|pax|latch' -- target-fp/release/phoebe-benchmark \\
      --workload kv_read --seed 1 --seconds 16 --trace 0 --out /tmp/phoebe-sample

(with the root manifest's [profile.release] keys exported as
CARGO_PROFILE_RELEASE_* to build what benchmark/run.py builds).

Linux on x86-64 only.
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import signal
import struct
import subprocess
import sys
import time

PTRACE_GETREGS, PTRACE_DETACH = 12, 17
PTRACE_SEIZE, PTRACE_INTERRUPT = 0x4206, 0x4207
WALL = 0x40000000
MAX_FRAMES = 64
USER_TOP = 1 << 47  # code without frame pointers uses rbp for anything

REGS = ("r15 r14 r13 r12 rbp rbx r11 r10 r9 r8 rax rcx rdx rsi rdi orig_rax rip cs "
        "eflags rsp ss fs_base gs_base ds es fs gs").split()


class UserRegs(ctypes.Structure):
    _fields_ = [(r, ctypes.c_ulonglong) for r in REGS]


libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(req, tid, addr=None, data=None):
    return libc.ptrace(req, tid, addr, data) != -1


class Symbols:
    """Function names at addresses of one ELF file: the inlined chain from
    `addr2line`, innermost first, else the enclosing symbol from `nm`."""

    def __init__(self, path):
        self.path = path
        out = subprocess.run(["nm", "-C", "--defined-only", "-n", path],
                             capture_output=True, text=True).stdout
        self.addrs, self.names = [], []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwW":
                self.addrs.append(int(parts[0], 16))
                self.names.append(short(parts[2]))

    def chains(self, addrs):
        """{address: [function, ...]} for every address in `addrs`."""
        addrs = sorted(addrs)
        query = "".join(f"{a:x}\n" for a in addrs)
        # -a prints each address before its frames, so chains split on it.
        out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", self.path],
                             input=query, capture_output=True, text=True).stdout
        # Each address, then a function line and a location line per frame.
        # A name without its path (inlined frames) gets its file instead.
        chains, current, name = {}, [], None
        for line in out.splitlines():
            if re.fullmatch(r"0x[0-9a-f]+", line):
                current, name = chains.setdefault(int(line, 16), []), None
            elif name is None:
                name = short(line)
            else:
                where = os.path.basename(line.split(":")[0])
                current.append(name if "::" in name or name == "??" else f"{name} [{where}]")
                name = None
        for a in addrs:
            chain = [f for f in chains.get(a, []) if f != "??"]
            chains[a] = chain or [self.nm_name(a)]
        return chains

    def nm_name(self, addr):
        i = bisect.bisect_right(self.addrs, addr) - 1
        return self.names[i] if i >= 0 else f"?@{os.path.basename(self.path)}"


def short(name):
    """`name` without its hash and its generic arguments."""
    name = re.sub(r"::h[0-9a-f]{16}$", "", name.strip())
    out, depth = [], 0
    for i, c in enumerate(name):
        if c == "<" and (depth or (i and (name[i - 1].isalnum() or name[i - 1] in "_}"))):
            depth += 1
        elif c == ">" and depth:
            depth -= 1
        elif not depth:
            out.append(c)
    return "".join(out)


class Process:
    """The child's executable mappings and its memory, for symbolizing."""

    def __init__(self, pid):
        self.pid = pid
        self.mem = os.open(f"/proc/{pid}/mem", os.O_RDONLY)
        self.maps = []  # (start, end, load base, path)
        bases = {}
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 6 or not fields[5].startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                path, offset = fields[5], int(fields[2], 16)
                bases.setdefault(path, lo - offset)
                if "x" in fields[1]:
                    self.maps.append((lo, hi, bases[path], path))

    def symbolize(self, pcs):
        """{pc: [function, ...]}: each sampled address's inlined chain."""
        by_file = collections.defaultdict(set)
        where = {}
        for pc in pcs:
            for lo, hi, base, path in self.maps:
                if lo <= pc < hi:
                    by_file[path].add(pc - base)
                    where[pc] = (path, pc - base)
                    break
        chains = {path: Symbols(path).chains(addrs) for path, addrs in by_file.items()}
        return {pc: chains[where[pc][0]][where[pc][1]] if pc in where else ["?"] for pc in pcs}

    def stack(self, regs):
        """Instruction pointers: the leaf, then each caller's return address."""
        pcs, fp = [regs.rip], regs.rbp
        while 0 < fp < USER_TOP and len(pcs) < MAX_FRAMES:
            try:
                prev, ret = struct.unpack("<QQ", os.pread(self.mem, 16, fp))
            except OSError:
                break
            if not ret or prev <= fp:
                break
            pcs.append(ret - 1)  # inside the call instruction
            fp = prev
        return pcs


def running_threads(pid, pattern):
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        name = stat[stat.index("(") + 1:stat.rindex(")")]
        state = stat[stat.rindex(")") + 2]
        if state == "R" and pattern.search(name):
            yield int(tid)


def sample_thread(tid):
    """Registers of thread `tid`, stopped for the read; None if it left."""
    if not ptrace(PTRACE_SEIZE, tid):
        return None
    regs, sig = None, 0
    if ptrace(PTRACE_INTERRUPT, tid):
        try:
            _, status = os.waitpid(tid, WALL)
        except ChildProcessError:
            return None
        if not os.WIFSTOPPED(status):
            return None
        if status >> 16 == 0:  # a signal arrived first: hand it back
            sig = os.WSTOPSIG(status)
        regs = UserRegs()
        if not ptrace(PTRACE_GETREGS, tid, None, ctypes.byref(regs)):
            regs = None
    ptrace(PTRACE_DETACH, tid, None, ctypes.c_void_p(sig))
    return regs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--start", type=float, default=2.0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--hz", type=float, default=200.0)
    ap.add_argument("--threads", default="")
    ap.add_argument("--top", type=int, default=10)
    ap.add_argument("--match", default="", help="list only these in the inclusive shares")
    ap.add_argument("command", nargs="+")
    args = ap.parse_args()

    child = subprocess.Popen(args.command, stdout=subprocess.DEVNULL)
    time.sleep(args.start)
    proc = Process(child.pid)
    pattern, match = re.compile(args.threads), re.compile(args.match)
    stacks = []
    end = time.monotonic() + args.seconds
    while time.monotonic() < end and child.poll() is None:
        for tid in list(running_threads(child.pid, pattern)):
            regs = sample_thread(tid)
            if regs is not None:
                stacks.append(proc.stack(regs))
        time.sleep(1.0 / args.hz)
    child.send_signal(signal.SIGTERM)
    child.wait()

    names = proc.symbolize({pc for stack in stacks for pc in stack})
    leaf, inclusive = collections.Counter(), collections.Counter()
    for stack in stacks:
        leaf[names[stack[0]][0]] += 1
        inclusive.update({f for pc in stack for f in names[pc] if match.search(f)})
    samples = len(stacks)
    print(f"{samples} samples of running threads")
    for title, counts in (("leaf", leaf), ("inclusive", inclusive)):
        print(f"\ntop {args.top} by {title} share")
        for name, n in counts.most_common(args.top):
            print(f"{100.0 * n / max(samples, 1):6.1f} %  {name}")


if __name__ == "__main__":
    main()
