#include "snn/quantize.h"

#include <utility>

#include "snn/network.h"
#include "util/logging.h"

namespace dtsnn::snn {

namespace {

template <typename Fn>
void visit_holders(SpikingNetwork& net, Fn&& fn) {
  net.visit([&](Layer& layer) {
    if (auto* holder = dynamic_cast<QuantizedWeightHolder*>(&layer)) fn(*holder);
  });
}

}  // namespace

void QuantizedWeightHolder::set_quantized_weights(util::QuantizedMatrix q) {
  const Tensor& w = quantizable_weight();
  if (q.out() != w.dim(0) || q.in() != w.dim(1)) {
    throw util::QuantizationError(
        util::QuantizationError::Kind::kShapeMismatch,
        util::format("quantized weights [%zu x %zu] do not match the layer's float "
                     "weights [%zu x %zu]",
                     q.out(), q.in(), w.dim(0), w.dim(1)));
  }
  if (dequantized_.shape() != w.shape()) dequantized_ = Tensor(w.shape());
  q.dequantize(dequantized_.data());
  qweight_ = std::move(q);
  eval_weight_changed();
}

void QuantizedWeightHolder::clear_quantized_weights() {
  qweight_ = util::QuantizedMatrix();
  dequantized_ = Tensor();
  eval_weight_changed();
}

const float* WeightTranspose::get(const Tensor& w) {
  const std::size_t rows = w.dim(0), cols = w.dim(1);
  if (dirty_ || source_ != &w || wt_.numel() != rows * cols) {
    if (wt_.numel() != rows * cols) wt_ = Tensor({cols, rows});
    for (std::size_t r = 0; r < rows; ++r) {
      const float* src = w.data() + r * cols;
      for (std::size_t c = 0; c < cols; ++c) wt_[c * rows + r] = src[c];
    }
    source_ = &w;
    dirty_ = false;
  }
  return wt_.data();
}

std::size_t quantize_network_weights(SpikingNetwork& net, const util::QuantSpec& spec) {
  spec.validate();
  std::size_t count = 0;
  visit_holders(net, [&](QuantizedWeightHolder& holder) {
    const Tensor& w = holder.quantizable_weight();
    holder.set_quantized_weights(
        util::QuantizedMatrix::quantize(w.data(), w.dim(0), w.dim(1), spec));
    ++count;
  });
  return count;
}

void clear_network_quantized_weights(SpikingNetwork& net) {
  visit_holders(net, [](QuantizedWeightHolder& holder) {
    holder.clear_quantized_weights();
  });
}

int network_quantized_bits(SpikingNetwork& net) {
  int bits = 0;
  bool mixed = false;
  bool first = true;
  visit_holders(net, [&](QuantizedWeightHolder& holder) {
    const util::QuantizedMatrix& q = holder.quantized_weights();
    const int layer_bits = q.empty() ? 0 : q.bits();
    if (first) {
      bits = layer_bits;
      first = false;
    } else if (layer_bits != bits) {
      mixed = true;
    }
  });
  if (first) return 0;  // no weight-bearing layers
  return mixed ? -1 : bits;
}

QuantFootprint network_quant_footprint(SpikingNetwork& net) {
  QuantFootprint fp;
  visit_holders(net, [&](QuantizedWeightHolder& holder) {
    ++fp.layers;
    const Tensor& w = holder.quantizable_weight();
    fp.float_bytes += w.numel() * sizeof(float);
    const util::QuantizedMatrix& q = holder.quantized_weights();
    if (!q.empty()) {
      ++fp.quantized_layers;
      fp.packed_bytes += q.packed_bytes();
      fp.scale_bytes += q.scale_bytes();
    }
  });
  return fp;
}

}  // namespace dtsnn::snn
