// Early-exit decision policies.
//
// The paper's DT-SNN uses entropy thresholding (Eq. 8). Confidence- and
// margin-based criteria are provided for the exit-criterion ablation bench
// (they are the standard alternatives in the early-exit ANN literature).

#pragma once

#include <memory>
#include <span>
#include <string>

namespace dtsnn::core {

class ExitPolicy {
 public:
  virtual ~ExitPolicy() = default;
  /// True if inference may stop given the current cumulative-mean logits.
  /// Called concurrently by the recorded replay (evaluate_recorded), so an
  /// implementation must be safe to call from several threads at once.
  [[nodiscard]] virtual bool should_exit(std::span<const float> cum_logits) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Eq. (8): exit when normalized entropy < theta. theta <= 0 never exits
/// early; theta >= 1 exits at the first timestep (entropy < 1 except for the
/// exactly-uniform distribution).
class EntropyExitPolicy final : public ExitPolicy {
 public:
  explicit EntropyExitPolicy(double theta) : theta_(theta) {}
  [[nodiscard]] bool should_exit(std::span<const float> cum_logits) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double theta() const { return theta_; }

 private:
  double theta_;
};

/// Never exits before the timestep budget — runs the network for the full T,
/// turning any InferenceEngine into a static-SNN evaluator (Table III's
/// fixed-timestep rows and the throughput baselines use this).
class NeverExitPolicy final : public ExitPolicy {
 public:
  [[nodiscard]] bool should_exit(std::span<const float> cum_logits) const override;
  [[nodiscard]] std::string name() const override;
};

/// Exit when max softmax probability > p_min.
class MaxProbExitPolicy final : public ExitPolicy {
 public:
  explicit MaxProbExitPolicy(double p_min) : p_min_(p_min) {}
  [[nodiscard]] bool should_exit(std::span<const float> cum_logits) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double p_min_;
};

/// Exit when (top1 - top2) softmax probability margin > margin.
class MarginExitPolicy final : public ExitPolicy {
 public:
  explicit MarginExitPolicy(double margin) : margin_(margin) {}
  [[nodiscard]] bool should_exit(std::span<const float> cum_logits) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double margin_;
};

}  // namespace dtsnn::core
