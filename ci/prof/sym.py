#!/usr/bin/env python3
"""Symbolise a prof.so dump: self, inclusive and libc-caller tables.

    python3 ci/prof/sym.py run.prof [--top N] [--lines]

Needs binutils `nm` (and `addr2line` for --lines, which adds the self
table by source line — the only view that shows inlined code such as an
`Arc` clone at sync.rs inside a caller's symbol)."""
import bisect, collections, subprocess, sys


def load(path):
    maps, samples = [], []
    for line in open(path):
        tag, rest = line[0], line[2:].split()
        if tag == "M" and len(rest) >= 6 and rest[5].startswith("/"):
            lo, hi = (int(x, 16) for x in rest[0].split("-"))
            maps.append((lo, hi, "x" in rest[1], rest[5]))
        elif tag == "S":
            samples.append([int(x, 16) for x in rest])
    return maps, samples


class Symbols:
    """Address -> (object, symbol) through each mapped file's `nm` table."""

    def __init__(self, maps):
        self.maps, self.tables = maps, {}
        # A PIE or shared object loads at the start of its first mapping.
        self.base = {}
        for lo, _, _, path in maps:
            self.base.setdefault(path, lo)

    def table(self, path):
        if path not in self.tables:
            syms = []
            for flags in (["-CS", "--defined-only"], ["-CSD", "--defined-only"]):
                out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
                for line in out.splitlines():
                    parts = line.split(None, 3)
                    if len(parts) == 4 and parts[2] in "tTwWiV":
                        syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
            syms.sort()
            self.tables[path] = ([a for a, _, _ in syms], syms)
        return self.tables[path]

    def locate(self, addr):
        """(path, address within the file) of an executable address, or None."""
        for lo, hi, executable, path in self.maps:
            if lo <= addr < hi:
                return (path, addr - self.base[path]) if executable else None
        return None

    def name(self, addr):
        where = self.locate(addr)
        if where is None:
            return None
        addrs, syms = self.table(where[0])
        i = bisect.bisect_right(addrs, where[1]) - 1
        obj = where[0].rsplit("/", 1)[-1]
        if i >= 0 and where[1] < syms[i][0] + syms[i][1]:
            return obj, syms[i][2]
        # Past the end of the nearest symbol: code with no name left, such
        # as a stripped libc's memmove variants. Name it by its 4 KiB page.
        return obj, f"{obj}+{where[1] & ~0xfff:#x}"


def lines(sym, pcs):
    """Source line of each pc (innermost inlined location), batched per file."""
    by_file = collections.defaultdict(list)
    for pc in set(pcs):
        where = sym.locate(pc)
        if where:
            by_file[where[0]].append((pc, where[1]))
    found = {}
    for path, addrs in by_file.items():
        cmd = ["addr2line", "-e", path] + [hex(a) for _, a in addrs]
        out = subprocess.run(cmd, capture_output=True, text=True).stdout.splitlines()
        for (pc, _), loc in zip(addrs, out):
            found[pc] = "/".join(loc.split(" ")[0].split("/")[-3:])
    return found


def table(title, counts, total, top):
    print(f"\n{title} ({total} samples)")
    for key, n in counts.most_common(top):
        print(f"{100 * n / total:6.2f}% {n:7d}  {key}")


def main(argv):
    top = int(argv[argv.index("--top") + 1]) if "--top" in argv else 25
    maps, samples = load(argv[1])
    sym, total = Symbols(maps), len(samples)
    self_, incl, libc, objs = (collections.Counter() for _ in range(4))
    for s in samples:
        # pc, then callers: the raw [rsp] word counts only for a frameless
        # leaf, i.e. when it is a code address and the chain does not repeat it.
        names = [sym.name(a) for a in s]
        pc, raw, chain = names[0], names[1], [n for n in names[2:] if n]
        leaf = pc and "libc" in pc[0]
        callers = ([raw] if raw and leaf and raw not in chain[:1] else []) + chain
        label = pc[1] if pc else "?"
        self_[label] += 1
        objs[pc[0] if pc else "?"] += 1
        for name in {label, *(c[1] for c in callers)}:
            incl[name] += 1
        if leaf:
            outside = [c[1] for c in callers if "libc" not in c[0]]
            libc[f"{label}  <-  {' <- '.join(outside[:2]) or '?'}"] += 1
    table("by object", objs, total, top)
    table("self", self_, total, top)
    if "--lines" in argv:
        at = lines(sym, [s[0] for s in samples])
        table("self by line", collections.Counter(at.get(s[0], "?") for s in samples), total, top)
    table("inclusive", incl, total, top)
    table("libc leaf <- callers", libc, total, top)


if __name__ == "__main__":
    main(sys.argv)
