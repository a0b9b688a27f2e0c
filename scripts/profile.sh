#!/usr/bin/env bash
# Sampled CPU profile of one cqbench workload, every process of the run.
#
#   scripts/profile.sh WORKLOAD [SEED]      e.g. scripts/profile.sh match_daiq 1
#
# 1. builds cqbench with frame pointers into target/profile (its own cargo
#    target directory; cqbench's sources and its usual build are untouched),
# 2. compiles scripts/profile/sampler.c and runs the workload with it
#    LD_PRELOADed — the parent and every child round write one
#    cqprof.<pid>.txt (SIGPROF samples every millisecond, each with its
#    frame-pointer stack and the CPU time it stands for, and the process's
#    /proc/self/maps) into target/profile/WORKLOAD-SEED/,
# 3. symbolizes the addresses that fall in the cqbench binary with `nm`
#    against the PIE base read from the maps (anything else is reported by
#    the name of the object it falls in), and
# 4. prints, over the CPU time of all cqbench processes, the top functions
#    by self share (leaf frame) and by inclusive share (anywhere on the
#    stack, counted once per sample), and the time spent in libc leaves
#    (memcmp, memmove, ...) by their immediate caller, with the share of
#    that time whose caller was found in the cqbench binary.
#
# The benchmark report itself goes to target/profile/WORKLOAD-SEED/report.txt.
# Frames of code built without frame pointers (libc, the precompiled
# standard library) shorten the walk: their callers' callers still show,
# the immediate caller of a libc leaf may not. The third table recovers it
# from the first of the words the sampler read from the interrupted stack
# pointer up that points into the binary's code: the return address, which
# sits at the stack pointer in a frameless leaf and above the registers a
# leaf pushed otherwise. A sample with no such word shows as the object its
# first word points into, or [unmapped]. Generic std code (HashMap,
# Vec, iterators) is monomorphized into the binary and is walked like any
# other. Needs cc, nm (binutils) and python3.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 WORKLOAD [SEED]" >&2
  exit 2
fi
workload=$1
seed=${2:-1}
root=$PWD/target/profile
out=$root/$workload-$seed
bin=$root/release/cqbench

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=$root \
  cargo build --release --quiet --manifest-path cqbench/Cargo.toml
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$root/sampler.so" scripts/profile/sampler.c
rm -f "$out"/cqprof.*.txt
(cd "$out" && LD_PRELOAD="$root/sampler.so" "$bin" \
  --workload "$workload" --seed "$seed" --seconds 16 --trace 0 > report.txt)
echo "benchmark report: $out/report.txt" >&2

python3 - "$bin" "$out" <<'EOF'
import bisect, collections, functools, glob, os, re, subprocess, sys

binary, out = os.path.realpath(sys.argv[1]), sys.argv[2]
syms = []
nm = subprocess.run(["nm", "-C", "--defined-only", "-n", binary],
                    capture_output=True, text=True, check=True).stdout
for line in nm.splitlines():
    parts = line.split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        name = re.sub(r"::h[0-9a-f]{16}$", "", parts[2])
        syms.append((int(parts[0], 16), name))
addrs = [a for a, _ in syms]

def load(path):
    maps, samples, in_maps = [], [], True
    with open(path) as f:
        next(f)
        for line in f:
            if in_maps:
                if line.startswith("samples"):
                    in_maps = False
                    sp_words = int(line.split("sp_words=")[1])
                    continue
                field = line.split()
                lo, hi = (int(x, 16) for x in field[0].split("-"))
                obj = field[5] if len(field) > 5 else "[anon]"
                maps.append((lo, hi, int(field[2], 16), obj, "x" in field[1]))
            elif line.strip():
                weight, *words = line.split()
                words = [int(x, 16) for x in words]
                samples.append((int(weight), words[:sp_words], words[sp_words:]))
    return maps, samples

self_ns, incl_ns, libc_ns = collections.Counter(), collections.Counter(), collections.Counter()
total, count, processes, attributed = 0, 0, 0, 0
for path in sorted(glob.glob(os.path.join(out, "cqprof.*.txt"))):
    maps, samples = load(path)
    mine = [m for m in maps if os.path.realpath(m[3]) == binary]
    if not mine:
        continue  # another program the benchmark ran (git)
    processes += 1
    # PIE: the mapping at file offset 0 is where virtual address 0 loads.
    base = min(lo for lo, _, off, _, _ in mine if off == 0)
    text = [(lo, hi) for lo, hi, _, _, x in mine if x]

    @functools.cache
    def name(addr, leaf):
        for lo, hi, _, obj, _ in maps:
            if lo <= addr < hi:
                if os.path.realpath(obj) != binary:
                    # pseudo-paths such as [stack] come bracketed already
                    return obj if obj.startswith("[") else "[" + os.path.basename(obj) + "]"
                # a return address points past its call
                vaddr = addr - base - (0 if leaf else 1)
                i = bisect.bisect_right(addrs, vaddr) - 1
                return syms[i][1] if i >= 0 else "[cqbench]"
        return "[unmapped]"

    for weight, above_sp, stack in samples:
        total += weight
        count += 1
        names = [name(a, i == 0) for i, a in enumerate(stack)]
        self_ns[names[0]] += weight
        for n in set(names):
            incl_ns[n] += weight
        if names[0].startswith("[libc"):
            ret = next((w for w in above_sp if any(lo <= w < hi for lo, hi in text)), None)
            if ret is not None:
                attributed += weight
                libc_ns[name(ret, False)] += weight
            else:
                libc_ns[name(above_sp[0], False) if above_sp[0] else "[not read]"] += weight

if total == 0:
    sys.exit("no samples recorded")
print(f"{count} samples, {total / 1e9:.2f} s of CPU, {processes} cqbench processes")
for title, counter in (("self", self_ns), ("inclusive", incl_ns)):
    print(f"\n{title:>9}  function")
    for n, c in counter.most_common(30):
        print(f"{100 * c / total:8.1f}%  {n[:150]}")
libc = sum(libc_ns.values())
print(f"\n{'libc leaf':>9}  immediate caller ({100 * libc / total:.1f}% of CPU in libc leaves, "
      f"{100 * attributed / total:.1f}% with a caller in the binary)")
for n, c in libc_ns.most_common(30):
    print(f"{100 * c / total:8.1f}%  {n[:150]}")
EOF
