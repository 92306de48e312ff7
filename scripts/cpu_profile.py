#!/usr/bin/env python3
"""CPU profile of any command, without `perf`.

    scripts/cpu_profile.py [options] -- <command> [args...]
    scripts/cpu_profile.py [options] --raw <file.raw>...

Runs the command with the ITIMER_PROF sampler (src/tools/cpu_sampler.cc,
built as libray_cpu_sampler.so) preloaded, then symbolizes the samples every
process of the command wrote and prints self time by function. Executables are
symbolized with `addr2line` (inlined frames included); shared libraries with
dladdr() on the same library loaded into this process. libc's string
functions are IFUNC-selected implementations with no exported name; dlsym()
returns the implementation this CPU selected, so those get labelled memcpy,
memmove, memset and memcmp.

Matching: a sample's stack is one string, leaf first, with every frame (each
inlined function too) joined by ';'. `--focus REGEX` (repeatable) prints the
share of samples whose stack matches, so `--focus 'FlusherLoop'` is that
function's inclusive share, and `--focus '^memcmp;.*KvStore::'` is memcmp
called under KvStore. `--exclude REGEX` (repeatable) drops matching samples
first (for example teardown). `--require REGEX` exits nonzero unless some
kept sample has a frame that matches.

After running a command it also prints one `# rusage:` line for it (user and
system CPU seconds, the system share, minor page faults): ITIMER_PROF charges
the kernel's time in a page fault to the user instruction that faulted, so the
samples alone cannot show the system share or the fault count.

Limits: the kernel checks CPU timers once per tick, so there is at most one
sample per tick of process CPU time (4 ms at HZ=250) whatever the interval;
and backtrace() in a signal handler is best effort (a frame without unwind
info ends the stack).
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SAMPLER = os.path.join(ROOT, "build", "src", "tools", "libray_cpu_sampler.so")
IFUNC_NAMES = ("memcpy", "memmove", "memset", "memcmp")
RTLD_DI_LINKMAP = 2


class DlInfo(ctypes.Structure):
    _fields_ = [("dli_fname", ctypes.c_char_p), ("dli_fbase", ctypes.c_void_p),
                ("dli_sname", ctypes.c_char_p), ("dli_saddr", ctypes.c_void_p)]


LIBC = ctypes.CDLL(None)
LIBC.dladdr.argtypes = [ctypes.c_void_p, ctypes.POINTER(DlInfo)]
LIBC.dlinfo.argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p]


def parse_raw(path):
    """Returns (module paths by id, [(count, [(module id or None, offset)])], dropped)."""
    modules, stacks, dropped = {}, [], 0
    with open(path) as f:
        for line in f:
            parts = line.split()
            if parts[:1] == ["dropped"]:
                dropped = int(parts[1])
            elif parts[:1] == ["module"]:
                modules[parts[1]] = parts[2]
            elif parts[:1] == ["stack"]:
                frames = []
                for token in parts[2:]:
                    mod, off = token.split(":")
                    frames.append((None if mod == "?" else mod, int(off, 16)))
                stacks.append((int(parts[1]), frames))
    return modules, stacks, dropped


def function_starts(path):
    """Sorted function start addresses from the .eh_frame_hdr search table."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return []
    if data[:4] != b"\x7fELF" or data[4] != 2:
        return []
    phoff = struct.unpack_from("<Q", data, 0x20)[0]
    phentsize, phnum = struct.unpack_from("<HH", data, 0x36)
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr = struct.unpack_from("<IIQQ", data, phoff + i * phentsize)
        if p_type != 0x6474E550:  # PT_GNU_EH_FRAME
            continue
        # The encodings GNU ld writes: pcrel|sdata4 pointer, udata4 count and
        # a datarel|sdata4 table of (function start, FDE) pairs.
        if tuple(data[p_offset + 1:p_offset + 4]) != (0x1B, 0x03, 0x3B):
            return []
        count = struct.unpack_from("<I", data, p_offset + 8)[0]
        table = struct.unpack_from(f"<{2 * count}i", data, p_offset + 12)
        return sorted(p_vaddr + table[2 * k] for k in range(count))
    return []


def load_bias(path):
    """Load bias of `path` loaded into this process; None if it cannot load (the vdso)."""
    try:
        handle = ctypes.CDLL(path)._handle
    except OSError:
        return None
    link_map = ctypes.c_void_p()
    if LIBC.dlinfo(handle, RTLD_DI_LINKMAP, ctypes.byref(link_map)) != 0:
        return None
    return ctypes.c_size_t.from_address(link_map.value).value


class SharedLibrary:
    """A shared library loaded into this process, to name its addresses."""

    def __init__(self, path, ifunc_starts):
        self.name = os.path.basename(path)
        self.starts = function_starts(path)
        self.ifunc = ifunc_starts.get(os.path.realpath(path), {})
        # Loading the sampler here would start sampling this process.
        self.bias = None if self.name.startswith("libray_cpu_sampler") else load_bias(path)

    def names(self, vaddr):
        i = bisect.bisect_right(self.starts, vaddr) - 1
        start = self.starts[i] if i >= 0 else None
        if start in self.ifunc:
            return [self.ifunc[start]]
        if self.bias is not None:
            info = DlInfo()
            if LIBC.dladdr(self.bias + vaddr, ctypes.byref(info)) and info.dli_sname:
                return [info.dli_sname.decode()]
        return [f"{self.name}+{start if start is not None else vaddr:#x}"]


def ifunc_starts():
    """{library realpath: {function start: label}} for the IFUNC string functions."""
    labels = collections.defaultdict(lambda: collections.defaultdict(list))
    for name in IFUNC_NAMES:
        addr = ctypes.cast(getattr(LIBC, name), ctypes.c_void_p).value
        info = DlInfo()
        if not LIBC.dladdr(addr, ctypes.byref(info)) or not info.dli_fname:
            continue
        bias = load_bias(info.dli_fname.decode())
        if bias is not None:
            labels[os.path.realpath(info.dli_fname.decode())][addr - bias].append(name)
    return {lib: {start: "/".join(names) for start, names in starts.items()}
            for lib, starts in labels.items()}


def addr2line(path, vaddrs):
    """{vaddr: [function, ...]} innermost inlined function first."""
    out = subprocess.run(["addr2line", "-f", "-i", "-C", "-a", "-e", path],
                         input="".join(f"{a:#x}\n" for a in vaddrs),
                         capture_output=True, text=True, check=False).stdout.splitlines()
    result, current, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x") and (i + 1 == len(out) or not out[i + 1].startswith("0x")):
            current = int(out[i], 16)
            result[current] = []
            i += 1
            continue
        if current is not None and out[i] != "??":
            result[current].append(out[i])
        i += 2  # function line, then its file:line
    base = os.path.basename(path)
    return {a: result.get(a) or [f"{base}+{a:#x}"] for a in vaddrs}


def demangle(names):
    mangled = sorted({n for n in names if n.startswith("_Z")})
    if not mangled:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(mangled) + "\n", capture_output=True,
                         text=True, check=False).stdout.splitlines()
    return dict(zip(mangled, out)) if len(out) == len(mangled) else {}


def symbolize(raws):
    """[(count, [frame name, ...] leaf first)] across every raw profile."""
    samples, wanted = [], collections.defaultdict(set)
    for modules, stacks, _ in raws:
        for count, frames in stacks:
            resolved = []
            for depth, (mod, off) in enumerate(frames):
                if mod is None:
                    resolved.append(None)
                    continue
                # Callers are return addresses: step back into the call.
                vaddr = off if depth == 0 else off - 1
                exe = mod == "0"
                resolved.append((modules[mod], exe, vaddr))
                wanted[(modules[mod], exe)].add(vaddr)
            samples.append((count, resolved))
    ifuncs = ifunc_starts()
    names = {}
    for (path, exe), vaddrs in wanted.items():
        if exe:
            table = addr2line(path, sorted(vaddrs))
        else:
            lib = SharedLibrary(path, ifuncs)
            table = {v: lib.names(v) for v in vaddrs}
        for v, n in table.items():
            names[(path, exe, v)] = n
    plain = demangle(n for chain in names.values() for n in chain)
    out = []
    for count, resolved in samples:
        stack = []
        for frame in resolved:
            chain = names[frame] if frame is not None else ["??"]
            stack.extend(plain.get(n, n) for n in chain)
        out.append((count, stack))
    return out


def report(samples, args, raws):
    total = sum(c for c, _ in samples)
    excludes = [re.compile(r) for r in args.exclude]
    kept = [(c, s) for c, s in samples if not any(r.search(";".join(s)) for r in excludes)]
    n = sum(c for c, _ in kept)
    dropped = sum(r[2] for r in raws)
    print(f"# cpu_profile: {total} samples from {len(raws)} process(es), {dropped} dropped"
          f" (sample array full); {n} kept after --exclude")
    if n == 0:
        return kept
    self_time = collections.Counter()
    for c, s in kept:
        self_time[s[0] if s else "??"] += c
    print(f"{'self%':>7} {'samples':>8}  function")
    for name, c in self_time.most_common(args.top):
        print(f"{100.0 * c / n:6.2f}% {c:8d}  {name}")
    for regex in args.focus:
        r = re.compile(regex)
        hit = sum(c for c, s in kept if r.search(";".join(s)))
        print(f"focus {regex!r}: {100.0 * hit / n:.2f}% ({hit} of {n} samples)")
    return kept


def rusage_line():
    """CPU time and faults of the children waited for so far: the profiled command."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = ru.ru_utime + ru.ru_stime
    share = 100.0 * ru.ru_stime / cpu if cpu > 0 else 0.0
    return (f"# rusage: user {ru.ru_utime:.2f} s, sys {ru.ru_stime:.2f} s ({share:.1f}%),"
            f" minor faults {ru.ru_minflt}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sampler", default=DEFAULT_SAMPLER, help="libray_cpu_sampler.so")
    parser.add_argument("--raw", nargs="+", help="symbolize existing .raw files; run nothing")
    parser.add_argument("--keep", help="directory to keep the .raw files in")
    parser.add_argument("--focus", action="append", default=[])
    parser.add_argument("--exclude", action="append", default=[])
    parser.add_argument("--require", help="fail unless some kept frame matches this regex")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    code, out_dir, usage = 0, None, None
    if args.raw:
        paths = args.raw
    else:
        if not command:
            parser.error("give a command after --, or --raw files")
        if not os.path.isfile(args.sampler):
            parser.error(f"no sampler at {args.sampler}; build the ray_cpu_sampler target")
        out_dir = args.keep or tempfile.mkdtemp(prefix="cpu_profile.")
        os.makedirs(out_dir, exist_ok=True)
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(p for p in (os.path.abspath(args.sampler),
                                                 env.get("LD_PRELOAD")) if p)
        env["RAY_CPU_PROFILE_OUT"] = os.path.join(out_dir, "prof.%p.raw")
        code = subprocess.run(command, env=env, check=False).returncode
        usage = rusage_line()  # before addr2line and c++filt run as children too
        paths = sorted(os.path.join(out_dir, p) for p in os.listdir(out_dir)
                       if p.startswith("prof.") and p.endswith(".raw"))
    raws = [parse_raw(p) for p in paths]
    if out_dir and not args.keep:
        for p in paths:
            os.unlink(p)
        os.rmdir(out_dir)
    kept = report(symbolize(raws), args, raws)
    if usage:
        print(usage)
    if args.require:
        r = re.compile(args.require)
        if not any(r.search(f) for _, s in kept for f in s):
            print(f"cpu_profile: no sampled frame matches {args.require!r}", file=sys.stderr)
            return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
