// Fixture: src/core/engine.cpp is an allowlisted Eq. 8 site (the batch-1
// oracle and the recorded replay), so its exit-policy calls are silent.
#include <span>

#include "core/exit_policy.h"

bool oracle_step(const dtsnn::core::ExitPolicy& policy, std::span<const float> cum) {
  return policy.should_exit(cum);
}
