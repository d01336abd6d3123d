// Network-level post-training weight quantization.
//
// Weight-bearing layers (Conv2d, Linear) additionally implement
// QuantizedWeightHolder: alongside their float weights they can carry a
// calibrated util::QuantizedMatrix, which the eval-time forward consumes
// when the layer's GemmContext selects a quantized backend (int8_lut /
// int4_lut). The float weights always remain authoritative — training,
// serialization of float params, and the bitwise-tier backends never look at
// the quantized copy.
//
// quantize_network_weights() installs quantized weights on every holder;
// core::calibrate_quantized() wraps it with a streaming measurement pass
// that reports decision-flip-rate and accuracy delta versus the scalar_ref
// oracle (the tolerance-gated identity contract, see util/gemm.h).

#pragma once

#include <cstddef>

#include "snn/tensor.h"
#include "util/gemm.h"
#include "util/quant.h"

namespace dtsnn::snn {

class SpikingNetwork;

/// Implemented by layers whose weights can be quantized. The quantized copy
/// is shape-checked against the float weight on installation
/// (QuantizationError(kShapeMismatch)).
class QuantizedWeightHolder {
 public:
  virtual ~QuantizedWeightHolder() = default;

  /// The float weight matrix the quantized copy mirrors, [out, in] row-major.
  [[nodiscard]] virtual const Tensor& quantizable_weight() const = 0;

  /// Calibrated quantized weights; empty() when not calibrated.
  [[nodiscard]] virtual const util::QuantizedMatrix& quantized_weights() const = 0;
  virtual void set_quantized_weights(util::QuantizedMatrix q) = 0;
  virtual void clear_quantized_weights() = 0;
};

/// Quantize every holder's float weights under `spec`. Returns the number of
/// layers quantized (0 for a network without weight-bearing layers).
std::size_t quantize_network_weights(SpikingNetwork& net, const util::QuantSpec& spec);

/// Drop all calibrated quantized weights (quantized backends then refuse to
/// run this network again until re-calibrated).
void clear_network_quantized_weights(SpikingNetwork& net);

/// Uniform quantized bit-width of the network's holders: 0 when none are
/// calibrated, 8 or 4 when all are calibrated at that width, -1 when the
/// state is partial or mixed (invalid for inference).
int network_quantized_bits(SpikingNetwork& net);

/// Resident weight-footprint accounting across all holders.
struct QuantFootprint {
  std::size_t float_bytes = 0;   ///< all holders' float weights
  std::size_t packed_bytes = 0;  ///< quantized integer codes
  std::size_t scale_bytes = 0;   ///< group scales
  std::size_t layers = 0;            ///< weight-bearing layers
  std::size_t quantized_layers = 0;  ///< of which calibrated
};
QuantFootprint network_quant_footprint(SpikingNetwork& net);

/// Dispatch-time guard used by the layers: throws
/// QuantizationError(kUncalibrated) when `q` is empty and (kBitsMismatch)
/// when its width disagrees with the backend's — the loud typed failure for
/// DTSNN_GEMM_BACKEND naming a quantized backend on an uncalibrated network.
void require_quantized_weights(const util::QuantizedGemmBackend& backend,
                               const util::QuantizedMatrix& q, const char* layer_name);

}  // namespace dtsnn::snn
