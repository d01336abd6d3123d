// Spatial pooling layers. Spiking VGG uses average pooling (spike rates are
// preserved in expectation); max pooling is provided for completeness.

#pragma once

#include "snn/layer.h"

namespace dtsnn::snn {

class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(std::size_t kernel) : kernel_(kernel) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape reserve_steps(std::size_t rows, const Shape& sample_shape) override;
  const float* step_window(const StepWindow& w, const float* x, float* y) override;
  [[nodiscard]] std::string name() const override { return "AvgPool2d"; }
  [[nodiscard]] Shape infer_shape(const Shape& sample_shape) const override;
  [[nodiscard]] std::size_t kernel() const { return kernel_; }

 private:
  std::size_t kernel_;
  Shape in_shape_;
  Shape step_in_;  // the step input's sample shape (reserve_steps)
};

class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(std::size_t kernel) : kernel_(kernel) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape reserve_steps(std::size_t rows, const Shape& sample_shape) override;
  const float* step_window(const StepWindow& w, const float* x, float* y) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }
  [[nodiscard]] Shape infer_shape(const Shape& sample_shape) const override;
  [[nodiscard]] std::size_t kernel() const { return kernel_; }

 private:
  std::size_t kernel_;
  Shape in_shape_;
  Shape step_in_;  // the step input's sample shape (reserve_steps)
  std::vector<std::size_t> argmax_;  // flat input index of each pooled max
};

}  // namespace dtsnn::snn
