// Fixture for check_invariants_test.py: a third Eq. 8 loop outside the
// allowlisted sites. Line numbers are asserted by the test — append, never
// insert.
#include <span>

#include "core/exit_policy.h"

bool replay(const dtsnn::core::ExitPolicy& policy, std::span<const float> row) {
  return policy.should_exit(row);                                    // line 9
}

bool replay(const dtsnn::core::ExitPolicy* policy, std::span<const float> row) {
  return policy->should_exit(row);                                   // line 13
}
