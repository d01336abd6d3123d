// Fixture: defining a should_exit is not a call site, and prose or strings
// that mention policy.should_exit(row) or policy->should_exit(row) are fine.
#include <span>
#include <string>

namespace dtsnn::imc {

class ExitModule {
 public:
  bool should_exit(std::span<const float> logits, double theta);
};

bool ExitModule::should_exit(std::span<const float> logits, double theta) {
  return !logits.empty() && theta > 1.0;
}

std::string why() { return "the pool calls policy->should_exit(cum) each step"; }

}  // namespace dtsnn::imc
