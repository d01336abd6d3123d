// Fixture: the serving layer owns the clock. steady_clock reads outside
// src/core/ and src/snn/ are legal; the deadline reaches the live pool as a
// force-exit predicate.
#include <chrono>

using ServeClock = std::chrono::steady_clock;

bool past(ServeClock::time_point deadline) { return ServeClock::now() >= deadline; }
