#!/usr/bin/env python3
"""DT-SNN project-invariant linter.

Enforces repo-specific rules that no generic static analyzer knows about,
with file:line diagnostics and a nonzero exit code on any finding:

  wall-clock          The determinism contract: bitwise-identity gates
                      (batched vs batch-1 oracle, sharded vs in-memory reads,
                      cross-backend GEMM equality) require every random
                      stream and every workload trace to be seeded and
                      reproducible. rand()/srand(), std::random_device,
                      time(nullptr)-style seeding, system_clock /
                      high_resolution_clock and gettimeofday are banned;
                      timing uses steady_clock, randomness uses util::Rng
                      with an explicit seed.

  naked-mutex         All locking goes through the annotated util::Mutex /
                      util::MutexLock / util::CondVar wrappers (util/sync.h)
                      so clang -Wthread-safety can check the locking
                      discipline. Naming std::mutex & friends (or including
                      <mutex>/<condition_variable>) anywhere else bypasses
                      the analysis.

  omp-simd-reduction  `#pragma omp simd reduction` reassociates the reduced
                      accumulator across lanes. On float accumulation that
                      changes results bit-for-bit and broke the GEMM
                      cross-backend identity contract once already (PR 3's
                      gemm_bt lesson); banned everywhere, waivable only with
                      a justification for provably associative (integer)
                      reductions.

  raw-thread-mmap     Threads are spawned only through util::Thread
                      (util/thread.h, join-on-destruction — a forgotten raw
                      std::thread std::terminate's the process), and memory
                      mapping goes only through util::MappedFile
                      (util/mapped_file.h, RAII munmap + portable buffered
                      fallback). Naming std::thread or calling mmap/munmap
                      (or including <sys/mman.h>) outside src/util/ bypasses
                      both. <thread> itself stays legal: std::this_thread
                      sleep/yield are fine anywhere.

  bench-report        Every benchmark must emit a machine-readable
                      BENCH_*.json via bench::BenchReport; a bench/*.cpp
                      that never names BenchReport silently drops out of the
                      measurement record.

  avx512-isolation    AVX-512 intrinsics live only in src/util/gemm_avx512.cpp,
                      the one TU compiled with -mavx512f (and -ffp-contract=off:
                      AVX-512F implies FMA on GCC, and contraction breaks the
                      bitwise identity contract). An _mm512_* / __m512 / __mmask
                      token anywhere else either fails to compile or — worse —
                      silently turns a portable TU into one that needs the flag,
                      crashing on non-AVX-512 hosts that never dispatch it.

  decision-clock      Timing is observed, never decided on: the exit decisions
                      of the live pool (src/core/live_pool.*) and everything
                      under it in src/core/ and src/snn/ must be a function
                      of logits, budgets and caller predicates only, so runs
                      replay bit for bit. steady_clock and serve::ServeClock
                      reads are banned under src/core/ and src/snn/; the
                      serving layer owns the clock and passes deadlines in
                      as a force-exit predicate.

  exit-rule-sites     The exit rule (Eq. 8) is applied in exactly three
                      places, so the stepped and recorded decisions cannot
                      drift apart: core::LivePool (src/core/live_pool.cpp),
                      and in src/core/engine.cpp the batch-1 SequentialEngine
                      oracle and replay_exits, the one loop over recorded
                      outputs. A `.should_exit(` / `->should_exit(` call
                      anywhere else under src/ is a new decision loop;
                      defining a should_exit (Foo::should_exit) is fine.

  scatter-kernel-isolation  The dispatched kernel headers
                      (src/util/conv_scatter_kernel.h for the conv_scatter
                      op, src/util/spike_epilogue_kernel.h for the
                      spike_epilogue op) are compiled once per bitwise GEMM
                      backend TU at that TU's ISA flags, so each may be
                      included only by src/util/gemm.cpp, gemm_avx2.cpp and
                      gemm_avx512.cpp. Their code must sit in an anonymous
                      namespace: a plain inline or template kernel is one ODR
                      entity across TUs, and the linker may keep the
                      -mavx512f copy for every backend, crashing hosts
                      without AVX-512 (or the scalar copy, silently losing
                      the ISA). Includes are matched on code lines, and each
                      header is checked for any namespace-scope code outside
                      `namespace {`.

  quant-bitwise-oracle  A quantized network runs its dequantized weights
                      through the float path (snn/quantize.h), so it is
                      bitwise identical to its dequantized-float twin — a
                      float network carrying those weights — and tests
                      compare the two exactly. Versus the float oracle it
                      was quantized from it is tolerance-gated: comparing
                      its floats bitwise against that oracle with EXPECT_EQ
                      / EXPECT_FLOAT_EQ encodes an identity the contract
                      deliberately does not promise, and such a test rots
                      into flakiness with any legal quantizer change.
                      Quantized-tier tests (tests/*quant*) route decision
                      comparisons with the oracle (any identifier containing
                      `oracle`, or `scalar_ref`) through
                      core::compare_decisions or an explicit EXPECT_NEAR
                      bound.

Comment and string-literal text is scrubbed before matching, so prose about
a banned construct never trips a rule. A genuine exception is waived inline
with a justification comment on the flagged line or one of the three lines
above it:

    // lint:allow(omp-simd-reduction): integer count, no float accumulation.

Usage:
  check_invariants.py [--root DIR] [--list-rules] [paths...]

With no paths, scans src/, bench/, tests/, examples/ under --root (default:
the repository root containing this script). Exit codes: 0 clean, 1 findings,
2 usage/IO error. Dependency-free (Python 3 stdlib only).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".h", ".hpp", ".cpp", ".cc", ".cxx"}
DEFAULT_SCAN_DIRS = ("src", "bench", "tests", "examples")
WAIVER_LOOKBACK = 3  # lines above a finding searched for lint:allow(...)

# ---------------------------------------------------------------- rules


class Pattern:
    def __init__(self, regex: str, message: str):
        self.regex = re.compile(regex)
        self.message = message


# rule id -> description (for --list-rules) and patterns matched against
# scrubbed (comment/string-free) source lines.
RULE_DESCRIPTIONS = {
    "wall-clock": "no wall-clock or unseeded randomness (determinism contract)",
    "naked-mutex": "std synchronization primitives only inside src/util/sync.h",
    "raw-thread-mmap": "std::thread and mmap/munmap only inside src/util/",
    "omp-simd-reduction": "no '#pragma omp simd reduction' (float reassociation)",
    "bench-report": "every bench/*.cpp must emit through bench::BenchReport",
    "avx512-isolation": "AVX-512 intrinsics only inside src/util/gemm_avx512.cpp "
                        "(the one TU built with -mavx512f -ffp-contract=off)",
    "decision-clock": "no steady_clock / ServeClock reads under src/core/ or "
                      "src/snn/ (decisions stay clock-free and replayable)",
    "exit-rule-sites": "ExitPolicy::should_exit is called only from "
                       "src/core/live_pool.cpp and src/core/engine.cpp "
                       "(one pool loop, one oracle, one recorded replay)",
    "scatter-kernel-isolation": "the dispatched kernel headers "
                                "(util/conv_scatter_kernel.h, "
                                "util/spike_epilogue_kernel.h) are included "
                                "only by the bitwise GEMM backend TUs, and "
                                "their code sits in an anonymous namespace",
    "quant-bitwise-oracle": "quantized-tier tests compare bitwise only with "
                            "the dequantized-float twin, never with the "
                            "float oracle (tolerance gate via "
                            "core::compare_decisions / EXPECT_NEAR)",
}

WALL_CLOCK_PATTERNS = [
    Pattern(r"(?<!s)\brand\s*\(",
            "rand() is unseeded wall-entropy randomness; use util::Rng with an "
            "explicit seed"),
    Pattern(r"\bsrand\s*\(",
            "srand() seeds global state non-reproducibly; use util::Rng with an "
            "explicit seed"),
    Pattern(r"\brandom_device\b",
            "std::random_device draws hardware entropy; every stream must be "
            "seeded deterministically"),
    Pattern(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)",
            "time(nullptr) is wall-clock seeding; results must not depend on "
            "when they run"),
    Pattern(r"\bsystem_clock\b",
            "system_clock is wall time (jumps with NTP/timezone); use "
            "steady_clock for timing, never clocks for seeds"),
    Pattern(r"\bhigh_resolution_clock\b",
            "high_resolution_clock may alias system_clock; use steady_clock"),
    Pattern(r"\bgettimeofday\s*\(",
            "gettimeofday is wall time; use steady_clock for timing, never "
            "clocks for seeds"),
]

NAKED_MUTEX_PATTERNS = [
    Pattern(r"std\s*::\s*(recursive_|timed_|shared_)?mutex\b",
            "raw std mutex bypasses the annotated util::Mutex (util/sync.h) and "
            "with it clang -Wthread-safety"),
    Pattern(r"std\s*::\s*(lock_guard|unique_lock|scoped_lock|shared_lock)\b",
            "raw std lock bypasses util::MutexLock (util/sync.h) and with it "
            "clang -Wthread-safety"),
    Pattern(r"std\s*::\s*condition_variable(_any)?\b",
            "raw std::condition_variable bypasses util::CondVar (util/sync.h); "
            "predicate loops over guarded state cannot be analyzed"),
    Pattern(r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>",
            "include the annotated wrappers (util/sync.h) instead of the raw "
            "primitive headers"),
]
NAKED_MUTEX_ALLOWED = {Path("src/util/sync.h")}

RAW_THREAD_MMAP_PATTERNS = [
    Pattern(r"std\s*::\s*thread\b",
            "raw std::thread bypasses util::Thread (util/thread.h); a handle "
            "that leaves scope joinable std::terminate's the process"),
    Pattern(r"\bmmap\s*\(",
            "raw mmap() bypasses util::MappedFile (util/mapped_file.h) and "
            "its RAII munmap + portable buffered fallback"),
    Pattern(r"\bmunmap\s*\(",
            "raw munmap() bypasses util::MappedFile (util/mapped_file.h); "
            "mapping lifetime is owned by that handle"),
    Pattern(r"#\s*include\s*<sys/mman\.h>",
            "include util/mapped_file.h instead of the raw mapping syscalls"),
]
# The wrappers themselves live under src/util/ (thread.h, mapped_file.cpp).
RAW_THREAD_MMAP_ALLOWED_PREFIX = ("src", "util")

OMP_SIMD_REDUCTION = Pattern(
    r"#\s*pragma\s+omp\b.*\bsimd\b.*\breduction\s*\(",
    "simd reduction reassociates the accumulator across lanes; on float math "
    "this breaks the bitwise cross-backend identity contract (PR 3 gemm_bt "
    "lesson). Waive only for provably associative integer reductions.")

AVX512_ISOLATION_PATTERNS = [
    Pattern(r"\b_mm512_\w+",
            "_mm512_* intrinsic outside the dedicated AVX-512 TU: only "
            "src/util/gemm_avx512.cpp is compiled with -mavx512f "
            "-ffp-contract=off; anywhere else this either breaks the build or "
            "poisons a portable TU with illegal instructions"),
    Pattern(r"\b__m512[id]?\b",
            "__m512 vector type outside src/util/gemm_avx512.cpp; AVX-512 "
            "lane layout (and the FMA-off contract) is confined to that TU"),
    Pattern(r"\b__mmask(8|16|32|64)\b",
            "AVX-512 mask type outside src/util/gemm_avx512.cpp; keep "
            "opmask-register code in the dedicated TU"),
]
AVX512_ISOLATION_ALLOWED = {Path("src/util/gemm_avx512.cpp")}

DECISION_CLOCK_PATTERNS = [
    Pattern(r"\bsteady_clock\b",
            "steady_clock in decision code: src/core/ and src/snn/ decide from "
            "logits, budgets and caller predicates only, so runs replay bit "
            "for bit; time in the caller (serving layer, benches)"),
    Pattern(r"\bServeClock\b",
            "serve::ServeClock in decision code: pass deadlines into the live "
            "pool as a force-exit predicate instead of reading the clock here"),
]
# The clock-free directories (relative to --root).
DECISION_CLOCK_DIRS = {("src", "core"), ("src", "snn")}

EXIT_RULE_SITES = Pattern(
    r"(\.|->)\s*should_exit\s*\(",
    "exit-policy call outside the three Eq. 8 sites (LivePool, the batch-1 "
    "oracle, replay_exits): step through core::LivePool or replay a "
    "recording with core::evaluate_recorded instead of adding a decision "
    "loop")
# Scope (relative to --root) and the files that own the exit-rule loops.
EXIT_RULE_SITES_DIR = "src"
EXIT_RULE_SITES_ALLOWED = {Path("src/core/live_pool.cpp"), Path("src/core/engine.cpp")}

# Each dispatched kernel header and the GemmContext op that reaches it.
KERNEL_HEADERS = {
    Path("src/util/conv_scatter_kernel.h"): "conv_scatter",
    Path("src/util/spike_epilogue_kernel.h"): "spike_epilogue",
}
KERNEL_INCLUDERS = {Path("src/util/gemm.cpp"), Path("src/util/gemm_avx2.cpp"),
                    Path("src/util/gemm_avx512.cpp")}
# Matched against the raw line; the scrubbed line must also be an #include,
# so a commented-out include stays silent.
KERNEL_INCLUDE_RE = re.compile(
    r'#\s*include\s*"util/(conv_scatter_kernel|spike_epilogue_kernel)\.h"')
SCRUBBED_INCLUDE_RE = re.compile(r"^\s*#\s*include\b")
KERNEL_INCLUDE_MESSAGE = (
    "{op} kernel header included outside the bitwise GEMM backend TUs "
    "(gemm.cpp, gemm_avx2.cpp, gemm_avx512.cpp): dispatch through "
    "GemmContext::{op} so the kernel runs at the selected backend's ISA")
KERNEL_SCOPE_MESSAGE = (
    "code outside an anonymous namespace in the {op} kernel header: "
    "each backend TU must keep its own copy, compiled at its own -m flags; an "
    "externally linked kernel is merged across TUs by the linker")
NAMESPACE_OPEN_RE = re.compile(r"^namespace(\s+[\w:]+)?\s*\{")

QUANT_BITWISE_ORACLE = Pattern(
    r"(EXPECT|ASSERT)_(EQ|FLOAT_EQ|DOUBLE_EQ)\s*\(.*\b\w*(oracle|scalar_ref)",
    "bitwise comparison against the float oracle in a quantized-tier test: "
    "a quantized network is bitwise identical only to its dequantized-float "
    "twin, and tolerance-gated versus the float oracle (core/quantize.h). "
    "Gate decisions through core::compare_decisions or bound values with "
    "EXPECT_NEAR.")
# Applies to test files whose name marks them as quantized-tier coverage.
QUANT_TEST_DIR = "tests"
QUANT_NAME_MARKER = "quant"

WAIVER_RE = re.compile(r"lint:allow\(([a-z0-9-]+)\)")


# ------------------------------------------------------ comment scrubbing


def scrub_lines(text: str) -> list[str]:
    """Blank comment text and string/char-literal contents, preserving line
    structure and the tokens outside them, so regexes match only real code.
    Handles //, /* */, "..." and '...' with escapes (raw strings are not used
    in this codebase and are treated as plain strings)."""
    out: list[str] = []
    state = "code"  # code | line_comment | block_comment | dquote | squote
    line: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            out.append("".join(line))
            line = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                line.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                line.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "dquote"
                line.append('"')
                i += 1
                continue
            if ch == "'":
                state = "squote"
                line.append("'")
                i += 1
                continue
            line.append(ch)
            i += 1
            continue
        if state in ("line_comment", "block_comment"):
            if state == "block_comment" and ch == "*" and nxt == "/":
                state = "code"
                line.append("  ")
                i += 2
                continue
            line.append(" ")
            i += 1
            continue
        # Inside a string or char literal: blank contents, honor escapes.
        if ch == "\\":
            line.append("  ")
            i += 2
            continue
        if (state == "dquote" and ch == '"') or (state == "squote" and ch == "'"):
            line.append(ch)
            state = "code"
            i += 1
            continue
        line.append(" ")
        i += 1
    if line:
        out.append("".join(line))
    return out


# ------------------------------------------------------------- scanning


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"


def waived(rule: str, raw_lines: list[str], index: int) -> bool:
    lo = max(0, index - WAIVER_LOOKBACK)
    for raw in raw_lines[lo:index + 1]:
        for match in WAIVER_RE.finditer(raw):
            if match.group(1) == rule:
                return True
    return False


def kernel_header_scope(rel: Path, scrubbed: list[str]) -> list[Finding]:
    """The first namespace-scope code line of a kernel header that sits
    outside every anonymous namespace, if any (one finding per file)."""
    stack: list[str] = []  # "anon" | "named" | "other" per open brace
    for idx, code in enumerate(scrubbed):
        stripped = code.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rest = stripped
        opened = NAMESPACE_OPEN_RE.match(stripped)
        if opened:
            stack.append("named" if opened.group(1) else "anon")
            rest = stripped[opened.end():]
        elif ("anon" not in stack and "other" not in stack
              and not stripped.startswith("}")):
            return [Finding(rel, idx + 1, "scatter-kernel-isolation",
                            KERNEL_SCOPE_MESSAGE.format(op=KERNEL_HEADERS[rel]))]
        for ch in rest:
            if ch == "{":
                stack.append("other")
            elif ch == "}" and stack:
                stack.pop()
    return []


def scan_file(path: Path, rel: Path) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        print(f"{path}: cannot read: {err}", file=sys.stderr)
        sys.exit(2)
    raw_lines = text.splitlines()
    scrubbed = scrub_lines(text)
    findings: list[Finding] = []

    line_rules: list[tuple[str, list[Pattern]]] = [
        ("wall-clock", WALL_CLOCK_PATTERNS),
        ("omp-simd-reduction", [OMP_SIMD_REDUCTION]),
    ]
    if rel not in NAKED_MUTEX_ALLOWED:
        line_rules.append(("naked-mutex", NAKED_MUTEX_PATTERNS))
    if rel not in AVX512_ISOLATION_ALLOWED:
        line_rules.append(("avx512-isolation", AVX512_ISOLATION_PATTERNS))
    if rel.parts[:2] != RAW_THREAD_MMAP_ALLOWED_PREFIX:
        line_rules.append(("raw-thread-mmap", RAW_THREAD_MMAP_PATTERNS))
    if tuple(rel.parts[:2]) in DECISION_CLOCK_DIRS:
        line_rules.append(("decision-clock", DECISION_CLOCK_PATTERNS))
    if (rel.parts and rel.parts[0] == EXIT_RULE_SITES_DIR
            and rel not in EXIT_RULE_SITES_ALLOWED):
        line_rules.append(("exit-rule-sites", [EXIT_RULE_SITES]))
    if (rel.parts and rel.parts[0] == QUANT_TEST_DIR
            and QUANT_NAME_MARKER in rel.name.lower()):
        line_rules.append(("quant-bitwise-oracle", [QUANT_BITWISE_ORACLE]))

    for idx, code in enumerate(scrubbed):
        for rule, patterns in line_rules:
            for pattern in patterns:
                if pattern.regex.search(code) and not waived(rule, raw_lines, idx):
                    findings.append(Finding(rel, idx + 1, rule, pattern.message))

    if rel not in KERNEL_INCLUDERS:
        for idx, code in enumerate(scrubbed):
            included = KERNEL_INCLUDE_RE.search(raw_lines[idx])
            if (SCRUBBED_INCLUDE_RE.match(code) and included
                    and not waived("scatter-kernel-isolation", raw_lines, idx)):
                header = Path("src/util") / f"{included.group(1)}.h"
                findings.append(Finding(
                    rel, idx + 1, "scatter-kernel-isolation",
                    KERNEL_INCLUDE_MESSAGE.format(op=KERNEL_HEADERS[header])))
    if rel in KERNEL_HEADERS:
        findings.extend(kernel_header_scope(rel, scrubbed))

    # bench-report is a whole-file property, so its waiver may sit anywhere
    # in the file (conventionally next to the includes). bench_common.cpp
    # passes naturally: it implements BenchReport.
    if (rel.parts and rel.parts[0] == "bench" and rel.suffix == ".cpp"
            and not any("BenchReport" in code for code in scrubbed)
            and not any(m.group(1) == "bench-report"
                        for raw in raw_lines for m in WAIVER_RE.finditer(raw))):
        findings.append(Finding(
            rel, 1, "bench-report",
            "bench never names bench::BenchReport: its measurements would not "
            "land in a machine-readable BENCH_*.json"))
    return findings


def collect_files(root: Path, paths: list[str]) -> list[tuple[Path, Path]]:
    files: list[tuple[Path, Path]] = []
    if paths:
        bases = [Path(p) for p in paths]
    else:
        bases = [root / d for d in DEFAULT_SCAN_DIRS]
    for base in bases:
        if base.is_file():
            candidates = [base]
        elif base.is_dir():
            candidates = sorted(p for p in base.rglob("*") if p.is_file())
        else:
            continue
        for p in candidates:
            if p.suffix in CXX_SUFFIXES:
                try:
                    rel = p.resolve().relative_to(root.resolve())
                except ValueError:
                    rel = p
                files.append((p, rel))
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="repository root (rule path scoping is relative to it)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and descriptions, then exit")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan (default: "
                             f"{', '.join(DEFAULT_SCAN_DIRS)} under --root)")
    args = parser.parse_args()

    if args.list_rules:
        for rule, description in RULE_DESCRIPTIONS.items():
            print(f"{rule}: {description}")
        return 0

    root = Path(args.root)
    if not root.is_dir():
        print(f"--root {root} is not a directory", file=sys.stderr)
        return 2

    files = collect_files(root, args.paths)
    if not files:
        print("no C++ sources found to scan", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path, rel in files:
        findings.extend(scan_file(path, rel))
    for finding in findings:
        print(finding)
    if findings:
        print(f"check_invariants: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s) "
              f"(scanned {len(files)})", file=sys.stderr)
        return 1
    print(f"check_invariants: OK ({len(files)} files clean)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
