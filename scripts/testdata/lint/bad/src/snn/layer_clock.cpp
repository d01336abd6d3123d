// Fixture for check_invariants_test.py: src/snn/ is decision code too.
// Line numbers are asserted by the test — append, never insert.
#include <chrono>

auto step_started() { return std::chrono::steady_clock::now(); }      // line 5: steady_clock
