// Fixture for check_invariants_test.py: clock reads in decision code.
// Line numbers are asserted by the test — append, never insert.
#include <chrono>

#include "serve/fleet.h"

bool past(std::chrono::steady_clock::time_point deadline) {           // line 7: steady_clock
  return false;
}

bool past_serve(dtsnn::serve::ServeClock::time_point deadline) {      // line 11: ServeClock
  return false;
}
