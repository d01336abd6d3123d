#!/usr/bin/env python3
"""Determinism regression test for check_invariants.py.

Runs the linter over the fixture trees in scripts/testdata/lint/ and asserts:
  * the `bad/` tree produces EXACTLY one diagnostic per banned pattern,
    anchored to the expected file:line (no duplicates, no drift);
  * the `clean/` tree — allowlisted sync.h, banned tokens inside comments
    and string literals, a waived integer simd reduction, a BenchReport'd
    bench, steady_clock in the serving layer, exit-policy calls in the
    allowlisted Eq. 8 sites, a should_exit definition, the scatter and
    epilogue kernel headers in anonymous namespaces included by a backend TU,
    and prose naming those headers — produces zero diagnostics;
  * two runs emit byte-identical output (the linter is deterministic);
  * exit codes are 1 (findings), 0 (clean), 0 (--list-rules).

Dependency-free; exercised by CTest (invariant_lint_selftest) and the
static-analysis CI job.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
LINTER = SCRIPTS / "check_invariants.py"
FIXTURES = SCRIPTS / "testdata" / "lint"

# Every banned pattern once: (file, line, rule). The fixtures pin these
# line numbers in comments; a second finding for any (file, rule-pattern)
# or a moved anchor is a regression.
EXPECTED_BAD = [
    ("src/determinism.cpp", 10, "wall-clock"),   # rand()
    ("src/determinism.cpp", 11, "wall-clock"),   # srand()
    ("src/determinism.cpp", 12, "wall-clock"),   # std::random_device
    ("src/determinism.cpp", 13, "wall-clock"),   # time(nullptr)
    ("src/determinism.cpp", 14, "wall-clock"),   # system_clock
    ("src/determinism.cpp", 15, "wall-clock"),   # high_resolution_clock
    ("src/determinism.cpp", 16, "wall-clock"),   # gettimeofday
    ("src/locking.cpp", 4, "naked-mutex"),       # #include <mutex>
    ("src/locking.cpp", 6, "naked-mutex"),       # std::mutex
    ("src/locking.cpp", 7, "naked-mutex"),       # std::condition_variable
    ("src/locking.cpp", 10, "naked-mutex"),      # std::lock_guard
    ("src/dataplane.cpp", 4, "raw-thread-mmap"),   # #include <sys/mman.h>
    ("src/dataplane.cpp", 7, "raw-thread-mmap"),   # std::thread
    ("src/dataplane.cpp", 12, "raw-thread-mmap"),  # mmap(
    ("src/dataplane.cpp", 13, "raw-thread-mmap"),  # munmap(
    ("src/kernels.cpp", 7, "omp-simd-reduction"),
    ("src/isa_leak.cpp", 6, "avx512-isolation"),   # __m512
    ("src/isa_leak.cpp", 7, "avx512-isolation"),   # _mm512_*
    ("src/isa_leak.cpp", 8, "avx512-isolation"),   # __mmask16
    # src/serve/ subtree: the fleet subsystem must not escape the
    # determinism / annotated-locking / managed-thread rules.
    ("src/serve/fleet_scheduler.cpp", 8, "naked-mutex"),
    ("src/serve/fleet_scheduler.cpp", 11, "raw-thread-mmap"),
    ("src/serve/fleet_scheduler.cpp", 16, "wall-clock"),
    # Decision code stays clock-free: src/core/ and src/snn/ only.
    ("src/core/live_pool_clock.cpp", 7, "decision-clock"),   # steady_clock
    ("src/core/live_pool_clock.cpp", 11, "decision-clock"),  # ServeClock
    ("src/snn/layer_clock.cpp", 5, "decision-clock"),        # steady_clock
    # Eq. 8 runs in LivePool, the batch-1 oracle and replay_exits only.
    ("src/core/third_replay.cpp", 9, "exit-rule-sites"),     # policy.should_exit(
    ("src/core/third_replay.cpp", 13, "exit-rule-sites"),    # policy->should_exit(
    # The dispatched kernel headers: backend TUs only, anonymous namespace.
    ("src/snn/scatter_leak.cpp", 5, "scatter-kernel-isolation"),        # #include
    ("src/util/conv_scatter_kernel.h", 6, "scatter-kernel-isolation"),  # inline kernel
    ("src/snn/epilogue_leak.cpp", 5, "scatter-kernel-isolation"),       # #include
    ("src/util/spike_epilogue_kernel.h", 9, "scatter-kernel-isolation"),  # template
    ("bench/silent_bench.cpp", 1, "bench-report"),
    ("tests/test_quant_gate.cpp", 10, "quant-bitwise-oracle"),  # oracle_logits
    ("tests/test_quant_gate.cpp", 11, "quant-bitwise-oracle"),  # float_oracle_logits
]

DIAG_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): error: \[(?P<rule>[a-z0-9-]+)\] ")

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def run_linter(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LINTER), *argv],
                          capture_output=True, text=True, check=False)


def parse(stdout: str) -> list[tuple[str, int, str]]:
    diags = []
    for line in stdout.splitlines():
        match = DIAG_RE.match(line)
        check(match is not None, f"unparseable diagnostic line: {line!r}")
        if match:
            diags.append((match.group("path"), int(match.group("line")),
                          match.group("rule")))
    return diags


def main() -> int:
    # --- bad tree: exactly one diagnostic per banned pattern -------------
    bad = run_linter("--root", str(FIXTURES / "bad"))
    check(bad.returncode == 1,
          f"bad tree: expected exit 1, got {bad.returncode}\n{bad.stderr}")
    got = parse(bad.stdout)
    for expected in EXPECTED_BAD:
        count = got.count(expected)
        check(count == 1,
              f"bad tree: expected exactly one diagnostic {expected}, got {count}")
    for diag in got:
        check(diag in EXPECTED_BAD, f"bad tree: unexpected diagnostic {diag}")
    check(len(got) == len(EXPECTED_BAD),
          f"bad tree: {len(got)} diagnostics, expected {len(EXPECTED_BAD)}")

    # --- determinism: two runs, byte-identical stdout --------------------
    again = run_linter("--root", str(FIXTURES / "bad"))
    check(again.stdout == bad.stdout, "bad tree: output differs between runs")

    # --- clean tree: comments/strings/waivers/allowlist are silent -------
    clean = run_linter("--root", str(FIXTURES / "clean"))
    check(clean.returncode == 0,
          f"clean tree: expected exit 0, got {clean.returncode}\n"
          f"{clean.stdout}{clean.stderr}")
    check(clean.stdout == "", f"clean tree: unexpected output: {clean.stdout!r}")

    # --- scoped invocation: explicit paths behave like the full scan -----
    scoped = run_linter("--root", str(FIXTURES / "bad"),
                        str(FIXTURES / "bad" / "src" / "locking.cpp"))
    check(scoped.returncode == 1, "scoped run: expected exit 1")
    check(len(parse(scoped.stdout)) == 4,
          f"scoped run: expected the 4 locking diagnostics, got:\n{scoped.stdout}")

    # --- --list-rules covers every rule seen above -----------------------
    rules = run_linter("--list-rules")
    check(rules.returncode == 0, "--list-rules: nonzero exit")
    listed = {line.split(":", 1)[0] for line in rules.stdout.splitlines() if line}
    for rule in {rule for (_, _, rule) in EXPECTED_BAD}:
        check(rule in listed, f"--list-rules missing rule {rule}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"check_invariants_test: OK "
          f"({len(EXPECTED_BAD)} pinned diagnostics, clean tree silent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
