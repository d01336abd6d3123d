// Network-level post-training weight quantization.
//
// Weight-bearing layers (Conv2d, Linear) additionally implement
// QuantizedWeightHolder: alongside their float weights they can carry a
// calibrated util::QuantizedMatrix. Installing one dequantizes it once into
// the weights the layer's eval forwards run, through the same float ops and
// the same GEMM backends as an unquantized layer. A network runs quantized
// exactly when its holders carry quantized weights; no backend name selects
// it. The float weights stay authoritative: training forwards and backward,
// and the float checkpoint params, never read the dequantized copy.
//
// quantize_network_weights() installs quantized weights on every holder;
// core::calibrate_quantized() wraps it with a streaming measurement pass
// that reports decision-flip-rate and accuracy delta versus the float
// network (the tolerance gate, see core/quantize.h).

#pragma once

#include <cstddef>

#include "snn/tensor.h"
#include "util/quant.h"

namespace dtsnn::snn {

class SpikingNetwork;

/// Implemented by layers whose weights can be quantized.
class QuantizedWeightHolder {
 public:
  virtual ~QuantizedWeightHolder() = default;

  /// The float weight matrix the quantized copy mirrors, [out, in] row-major.
  [[nodiscard]] virtual const Tensor& quantizable_weight() const = 0;

  /// Calibrated quantized weights; empty() when not calibrated.
  [[nodiscard]] const util::QuantizedMatrix& quantized_weights() const { return qweight_; }
  /// Install `q` and dequantize it once into the weights eval forwards run.
  /// Throws QuantizationError(kShapeMismatch) unless its dims match
  /// quantizable_weight().
  void set_quantized_weights(util::QuantizedMatrix q);
  /// Drop the quantized weights: eval forwards run the float weights again.
  void clear_quantized_weights();

 protected:
  /// The [out, in] weights eval forwards run: the dequantized copy while
  /// quantized weights are installed, else quantizable_weight().
  [[nodiscard]] const Tensor& eval_weight() const {
    return qweight_.empty() ? quantizable_weight() : dequantized_;
  }
  /// Called after set/clear_quantized_weights changed eval_weight(); the
  /// layer drops what it derived from it.
  virtual void eval_weight_changed() = 0;

 private:
  util::QuantizedMatrix qweight_;
  Tensor dequantized_;
};

/// W^T [cols, rows] of a layer's [rows, cols] weight matrix, for the
/// zero-skipping A-stationary product forms. Kept across the steps of one
/// inference sequence: weights only change between sequences and forward
/// passes, which the layer marks with invalidate() (set_time, begin_steps,
/// eval_weight_changed). Layer::reserve_steps() rebuilds it if marked, so
/// steps read it through cached(). get() also rebuilds when asked for a
/// different source than the one it holds, since one layer can ask for its
/// float weights (training forward) and its dequantized weights (eval
/// forward).
class WeightTranspose {
 public:
  const float* get(const Tensor& w);
  /// The W^T the latest get() built, for the steps that follow
  /// Layer::reserve_steps(); concurrent readers never rebuild it.
  [[nodiscard]] const float* cached() const { return wt_.data(); }
  void invalidate() { dirty_ = true; }

 private:
  Tensor wt_;
  const Tensor* source_ = nullptr;
  bool dirty_ = true;
};

/// Quantize every holder's float weights under `spec`. Returns the number of
/// layers quantized (0 for a network without weight-bearing layers).
std::size_t quantize_network_weights(SpikingNetwork& net, const util::QuantSpec& spec);

/// Drop all calibrated quantized weights: the network runs its float weights
/// again.
void clear_network_quantized_weights(SpikingNetwork& net);

/// Uniform quantized bit-width of the network's holders: 0 when none are
/// calibrated, 8 or 4 when all are calibrated at that width, -1 when the
/// state is partial or mixed.
int network_quantized_bits(SpikingNetwork& net);

/// Weight storage accounting across all holders.
struct QuantFootprint {
  std::size_t float_bytes = 0;   ///< all holders' float weights
  std::size_t packed_bytes = 0;  ///< quantized integer codes
  std::size_t scale_bytes = 0;   ///< group scales
  std::size_t layers = 0;            ///< weight-bearing layers
  std::size_t quantized_layers = 0;  ///< of which calibrated
};
QuantFootprint network_quant_footprint(SpikingNetwork& net);

}  // namespace dtsnn::snn
