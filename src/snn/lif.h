// Leaky integrate-and-fire neuron layer (Eq. 2-3 of the paper) with
// surrogate-gradient backpropagation-through-time.
//
// Dynamics per timestep t (element-wise over the feature map):
//     u_pre[t]  = tau * u_post[t-1] + I[t]         (charge + leak)
//     s[t]      = H(u_pre[t] - Vth)                (fire)
//     u_post[t] = u_pre[t] * (1 - s[t])            (hard reset, paper default)
//                 or u_pre[t] - Vth * s[t]         (soft/subtractive reset)
//
// Multi-step mode consumes [T*B, ...] inputs and caches the membrane
// trajectory for the reverse-time backward pass. Single-step mode keeps the
// membrane as persistent state across steps for the stepping early-exit
// engines: one row per sample, sized by reserve_steps(), each window
// stepping and compacting only its own rows.

#pragma once

#include "snn/layer.h"
#include "snn/surrogate.h"

namespace dtsnn::snn {

struct LifConfig {
  float vth = 1.0f;          ///< firing threshold V_th
  float tau = 0.5f;          ///< leak factor in (0, 1]
  bool hard_reset = true;    ///< reset-to-zero (paper) vs subtractive reset
  bool detach_reset = true;  ///< stop gradient through the reset path
  SurrogateSpec surrogate{};
};

class Lif final : public Layer {
 public:
  explicit Lif(LifConfig config = {}) : config_(config) {}

  void set_time(std::size_t timesteps, std::size_t batch) override;
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;

  void begin_steps() override;
  Shape reserve_steps(std::size_t rows, const Shape& sample_shape) override;
  const float* step_window(const StepWindow& w, const float* x, float* y) override;
  void compact_window(const StepWindow& w, std::span<const std::size_t> keep) override;

  [[nodiscard]] std::string name() const override { return "Lif"; }
  [[nodiscard]] Shape infer_shape(const Shape& sample_shape) const override {
    return sample_shape;
  }

  [[nodiscard]] const LifConfig& config() const { return config_; }

  /// Window w's rows of the single-step membrane: zero for a row's first
  /// step, then its post-reset membrane of the previous step. step_window()
  /// and the fused spiking epilogue (snn/network.h), which updates it in
  /// place, both take it from here.
  [[nodiscard]] float* window_membrane(const StepWindow& w) {
    return membrane_.data() + w.offset * row_numel_;
  }
  /// A copy of the single-step membrane [rows, ...] of every row the open
  /// sequence reserved (empty before its first reserve_steps()).
  [[nodiscard]] Tensor membrane() const;
  /// Mean firing rate of the most recent multi-step forward (spikes per
  /// neuron per timestep); feeds the IMC activity model.
  [[nodiscard]] double last_spike_rate() const { return last_spike_rate_; }

 private:
  LifConfig config_;

  // Multi-step training caches.
  Tensor u_pre_cache_;  // [T*B, ...] membrane before reset at each t
  Tensor spike_cache_;  // [T*B, ...] emitted spikes
  bool have_cache_ = false;

  // Single-step persistent state: the post-reset membrane, one row of
  // row_numel_ floats per reserved row (row_shape_ empty until the first
  // reserve_steps() of a sequence). Grow-only, across sequences too.
  std::vector<float> membrane_;
  std::size_t rows_ = 0;  // rows the open sequence reserved (and zeroed)
  Shape row_shape_;
  std::size_t row_numel_ = 0;
  bool stepping_ = false;

  double last_spike_rate_ = 0.0;
};

}  // namespace dtsnn::snn
