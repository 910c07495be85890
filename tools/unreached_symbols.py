#!/usr/bin/env python3
"""List the library functions that no shipping executable links.

Configures an unoptimised (-O0) build of archline with every function
and data object in its own section (-ffunction-sections
-fdata-sections) and links every executable with --gc-sections: the
tools, the bench drivers, the examples, and perfbench's runner (built
against the same tree the way perfbench/run.py does). Tests are not
built. At -O0 no call is inlined, so every function that runs keeps an
out-of-line copy in the executable that runs it; the linker drops each
section that no executable reaches, so a strong (`T`) symbol of a
`src/` static library that appears in none of the executables is code
that nothing shipped can run.

Usage (from anywhere; needs cmake, a C++ toolchain, nm and c++filt):

    python3 tools/unreached_symbols.py [--build-dir DIR]

The build tree defaults to build-unreached/ under the repository root;
a second run rebuilds only what changed. The report groups the
unreached symbols by library. A symbol is either listed as a candidate
for deletion, or, when it matches an entry of KNOWN below, under its
reason for staying: test oracles that tests compare production code
against, and a test seam. The last line is a summary with the counts.
The exit status is 0 whenever the build and the scan succeed, whatever
they find.
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_FLAGS = "-O0 -ffunction-sections -fdata-sections"
GC_FLAGS = "-Wl,--gc-sections"

# Unreached symbols that stay, matched against the demangled name
# (a regex matched at its start). Each entry says why.
ORACLE = "test oracle"
KNOWN = [
    (r"archline::fit::time_energy_residuals\(",
     ORACLE + ": test_objective's Residuals.* read residuals through it"),
    (r"archline::fit::sum_squared_residuals\(archline::core::MachineParams",
     ORACLE + ": test_objective checks it against its reference sum"),
    (r"archline::core::elasticity\(",
     ORACLE + ": test_kernels checks sensitivity_profile against it"),
    (r"archline::microbench::is_single_cycle\(",
     ORACLE + ": test_pointer_chase checks sattolo_cycle with it"),
    (r"archline::serve::handle_line\([^)]*OnlineStore\*\)$",
     ORACLE + ": the sequential reference of the serve tests"),
    (r"archline::sim::SimMachine::ideal_(time|energy)\(",
     ORACLE + ": test_factory and test_droop_model compare the model "
     "with the simulator's noise-free answer"),
    (r"archline::serve::Json::operator==\(",
     ORACLE + ": test_serve_protocol checks parse(dump(v)) == v"),
    (r"archline::powermon::PowerTrace::total_energy\(",
     ORACLE + ": test_integrator's exact energy, and test_trace's "
     "full-span integral"),
    (r"archline::stats::(stddev|variance)\(",
     ORACLE + ": test_rng checks its distributions' spread with them"),
    (r"archline::fit::online::BackgroundResolver::poke\(",
     "test seam: wakes the resolver so tests need not wait out its "
     "interval"),
    (r"archline::sim::Campaign::replay\(",
     ORACLE + ": ServeShardCore.* compares a loopback TcpListener's "
     "reply bytes with the campaign driver's"),
]


def run(cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def build(build_dir, log):
    # Both projects default to an optimised build type; Debug with its
    # -g dropped adds nothing to SCAN_FLAGS.
    flags = [
        "-DCMAKE_BUILD_TYPE=Debug",
        "-DCMAKE_CXX_FLAGS_DEBUG=",
        "-DBUILD_TESTING=OFF",
        f"-DCMAKE_CXX_FLAGS={SCAN_FLAGS}",
        f"-DCMAKE_EXE_LINKER_FLAGS={GC_FLAGS}",
    ]
    out = dict(stdout=log, stderr=subprocess.STDOUT)
    run(["cmake", "-S", ROOT, "-B", build_dir] + flags, **out)
    run(["cmake", "--build", build_dir, "-j4"], **out)
    pb = os.path.join(build_dir, "perfbench-runner")
    run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", pb,
         f"-DARCHLINE_SOURCE_DIR={ROOT}",
         f"-DARCHLINE_BUILD_DIR={build_dir}"] + flags, **out)
    run(["cmake", "--build", pb, "-j4"], **out)


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or not os.path.isfile(path):
        return False
    with open(path, "rb") as f:
        head = f.read(18)
    # ELF magic, e_type ET_EXEC (2) or ET_DYN (3, a PIE).
    return head[:4] == b"\x7fELF" and head[16] in (2, 3) and \
        not path.endswith(".so")


def executables(build_dir):
    found = []
    for d, subdirs, files in os.walk(build_dir):
        subdirs[:] = [s for s in subdirs if s != "CMakeFiles"]
        found += [os.path.join(d, f) for f in files
                  if is_elf_executable(os.path.join(d, f))]
    return sorted(found)


def libraries(build_dir):
    src = os.path.join(build_dir, "src")
    return sorted(os.path.join(d, f) for d, _, files in os.walk(src)
                  for f in files if f.endswith(".a"))


def nm(path):
    """(type, name) of every defined symbol of an object or archive."""
    out = run(["nm", "--defined-only", path], capture_output=True,
              text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3:
            syms.append((parts[1], parts[2]))
    return syms


def demangle(names):
    out = run(["c++filt"], input="\n".join(names) + "\n",
              capture_output=True, text=True).stdout
    return out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-unreached"))
    args = ap.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "unreached-build.log")
    with open(log_path, "w") as log:
        try:
            build(build_dir, log)
        except subprocess.CalledProcessError:
            sys.exit(f"build failed; see {log_path}")

    exes = executables(build_dir)
    libs = libraries(build_dir)
    if not exes or not libs:
        sys.exit(f"no executables or libraries under {build_dir}")

    linked = set()
    for exe in exes:
        linked.update(name for _, name in nm(exe))

    # A function counts once under its demangled name: the complete and
    # base-object variants of a constructor (C1/C2) are one function.
    owner, reached = {}, {}
    for lib in libs:
        strong = [name for kind, name in nm(lib) if kind == "T"]
        for name, text in zip(strong, demangle(strong)):
            owner.setdefault(text, os.path.basename(lib))
            reached[text] = reached.get(text, False) or name in linked
    unreached = sorted(text for text in owner if not reached[text])

    known = [(re.compile(p), why) for p, why in KNOWN]
    candidates, kept = {}, {}
    for text in unreached:
        why = next((w for p, w in known if p.match(text)), None)
        if why is None:
            candidates.setdefault(owner[text], []).append(text)
        else:
            kept.setdefault(why, []).append(text)

    for lib in sorted(candidates):
        print(f"{lib}:")
        for text in sorted(candidates[lib]):
            print(f"  {text}")
    for why in sorted(kept):
        print(f"kept, {why}:")
        for text in sorted(kept[why]):
            print(f"  {text}")
    n_kept = sum(len(v) for v in kept.values())
    print(f"{len(unreached)} of {len(owner)} strong symbols in {len(libs)} "
          f"libraries reach none of {len(exes)} executables "
          f"({len(unreached) - n_kept} candidates, {n_kept} kept)")


if __name__ == "__main__":
    main()
