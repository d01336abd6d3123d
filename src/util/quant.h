// Post-training weight quantization: packed INT8/INT4 storage with
// group-wise symmetric scales.
//
// A QuantizedMatrix holds one layer's weight matrix W[out, in] quantized to
// b-bit signed integers. Scales are group-wise over the reduction (k)
// dimension: each output channel j owns one float scale per group of
// `group_size` consecutive k positions, so
//
//   W[j, kk] ~= q(j, kk) * scale(j, kk / group_size)
//
// with q in [-127, 127] (INT8) or [-7, 7] (INT4) and
// scale = maxabs(group) / qmax (symmetric and zero-point-free, so code 0
// dequantizes to exactly 0).
//
// Packed storage is k-major, one contiguous quantized "row" per k position
// (the checkpoint v2 layout, snn/serialize.h):
//   INT8: data[kk * out + j] holds q(j, kk) as one signed byte.
//   INT4: data[kk * ceil(out/2) + j/2] holds two nibbles — low nibble is
//         column j even, high nibble j odd — in offset-binary form
//         (stored = q + 8, q in [-7, 7]) so unpacking is shift/mask/subtract
//         with no implementation-defined signed shifts. The unused high
//         nibble of an odd-out row's last byte is 0.
//
// Quantization is deterministic: std::lround (half away from zero), clamped
// to [-qmax, qmax]; an all-zero group gets scale 0 and all-zero codes.
//
// A QuantizedMatrix is a storage format: the layers dequantize it once, when
// it is installed (snn/quantize.h), and run the float eval path on the result.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace dtsnn::util {

// -------------------------------------------------------------------- errors

/// Typed failure for quantized weights: weights whose dims disagree with the
/// layer, malformed specs, and corrupt checkpoints all throw this with a
/// machine-checkable Kind.
class QuantizationError : public std::runtime_error {
 public:
  enum class Kind {
    kShapeMismatch,  ///< quantized dims disagree with the float weights
    kBadSpec,        ///< unsupported bits / group size
    kBadCheckpoint,  ///< quantized checkpoint section fails validation
  };

  QuantizationError(Kind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

// ---------------------------------------------------------------------- spec

/// Quantizer configuration. bits must be 8 or 4. group_size 0 means
/// automatic: 64 for INT8, 32 for INT4 (tighter groups bound INT4's larger
/// per-code error).
struct QuantSpec {
  int bits = 8;
  std::size_t group_size = 0;

  /// The effective group size after the per-width default. Throws
  /// QuantizationError(kBadSpec) for unsupported bits.
  [[nodiscard]] std::size_t resolved_group_size() const;

  /// Throws QuantizationError(kBadSpec) unless bits is 8 or 4.
  void validate() const;
};

// -------------------------------------------------------------- packed matrix

class QuantizedMatrix {
 public:
  /// Default-constructed state means "not calibrated".
  QuantizedMatrix() = default;

  /// Quantize row-major W[out, in]. Resolves spec.group_size as documented
  /// on QuantSpec.
  static QuantizedMatrix quantize(const float* w, std::size_t out, std::size_t in,
                                  const QuantSpec& spec);

  /// Rebuild from serialized pieces. Throws QuantizationError(kBadCheckpoint)
  /// unless the sizes match the declared dims (layout) and every value
  /// is one quantize() can produce: finite non-negative scales, INT8 codes in
  /// [-127, 127], INT4 nibbles in [1, 15] for real columns and a zero padding
  /// nibble.
  static QuantizedMatrix from_raw(std::size_t out, std::size_t in, int bits,
                                  std::size_t group_size,
                                  std::vector<std::uint8_t> packed,
                                  std::vector<float> scales);

  /// Storage sizes of one matrix.
  struct Layout {
    std::size_t packed_bytes = 0;
    std::size_t scale_count = 0;
  };
  /// The sizes a [out x in] matrix at `bits` and `group_size` stores, so a
  /// reader can check a section's declared sizes before allocating them.
  /// Throws QuantizationError(kBadCheckpoint) unless bits is 8 or 4,
  /// group_size is nonzero (when in > 0) and the sizes fit a size_t.
  static Layout layout(std::size_t out, std::size_t in, int bits, std::size_t group_size);

  [[nodiscard]] bool empty() const { return out_ == 0 && in_ == 0; }
  [[nodiscard]] std::size_t out() const { return out_; }
  [[nodiscard]] std::size_t in() const { return in_; }
  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] std::size_t group_size() const { return group_size_; }
  [[nodiscard]] std::size_t num_groups() const { return groups_; }
  [[nodiscard]] int qmax() const { return bits_ == 4 ? 7 : 127; }

  /// Bytes per packed k-row (out for INT8, ceil(out/2) for INT4).
  [[nodiscard]] std::size_t row_stride() const { return row_stride_; }

  /// Decoded integer code for logical element W[j, kk].
  [[nodiscard]] int q(std::size_t j, std::size_t kk) const;
  /// Scale for output channel j, k-group g (g-major storage: scales()[g*out + j]).
  [[nodiscard]] float scale(std::size_t j, std::size_t g) const {
    return scales_[g * out_ + j];
  }
  /// q(j, kk) * scale(j, kk / group_size): the weight a quantized layer runs.
  [[nodiscard]] float dequantized(std::size_t j, std::size_t kk) const {
    return static_cast<float>(q(j, kk)) * scale(j, kk / group_size_);
  }
  /// w[j * in + kk] = dequantized(j, kk) for the whole matrix: row-major
  /// [out, in], the layout of the float weights it replaces.
  void dequantize(float* w) const;

  /// Raw packed codes (k-major; see file comment for the INT4 nibble order).
  [[nodiscard]] std::span<const std::uint8_t> packed() const { return data_; }
  /// Raw scales, g-major: scales()[g * out + j].
  [[nodiscard]] std::span<const float> scales() const { return scales_; }

  /// Size of the packed integer codes alone.
  [[nodiscard]] std::size_t packed_bytes() const { return data_.size(); }
  /// Size of the group scales.
  [[nodiscard]] std::size_t scale_bytes() const {
    return scales_.size() * sizeof(float);
  }
  /// Total storage size (codes + scales).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return packed_bytes() + scale_bytes();
  }
  /// Footprint of the float weights this matrix replaces.
  [[nodiscard]] std::size_t float_bytes() const {
    return out_ * in_ * sizeof(float);
  }

 private:
  std::size_t out_ = 0;
  std::size_t in_ = 0;
  int bits_ = 0;
  std::size_t group_size_ = 0;
  std::size_t groups_ = 0;
  std::size_t row_stride_ = 0;
  std::vector<std::uint8_t> data_;
  std::vector<float> scales_;
};

}  // namespace dtsnn::util
