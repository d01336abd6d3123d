#include "util/quant.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dtsnn::util {

namespace {

std::size_t default_group_size(int bits) { return bits == 4 ? 32 : 64; }

/// Scale groups per output channel; no overflow for any group_size > 0.
std::size_t group_count(std::size_t in, std::size_t group_size) {
  return in == 0 ? 0 : (in - 1) / group_size + 1;
}

/// Bytes per packed k-row: out for INT8, ceil(out / 2) for INT4.
std::size_t packed_row_stride(std::size_t out, int bits) {
  return bits == 4 ? out / 2 + out % 2 : out;
}

/// Stored (offset-binary) nibble of column j in an INT4 k-row.
int int4_nibble(const std::uint8_t* row, std::size_t j) {
  return j % 2 == 0 ? row[j / 2] & 0x0F : row[j / 2] >> 4;
}

}  // namespace

void QuantSpec::validate() const {
  if (bits != 8 && bits != 4) {
    throw QuantizationError(
        QuantizationError::Kind::kBadSpec,
        format("QuantSpec.bits must be 8 or 4, got %d", bits));
  }
}

std::size_t QuantSpec::resolved_group_size() const {
  validate();
  return group_size != 0 ? group_size : default_group_size(bits);
}

QuantizedMatrix QuantizedMatrix::quantize(const float* w, std::size_t out,
                                          std::size_t in, const QuantSpec& spec) {
  const std::size_t gs = spec.resolved_group_size();

  QuantizedMatrix q;
  q.out_ = out;
  q.in_ = in;
  q.bits_ = spec.bits;
  q.group_size_ = gs;
  q.groups_ = group_count(in, gs);
  q.row_stride_ = packed_row_stride(out, spec.bits);
  q.data_.assign(q.row_stride_ * in, 0);
  q.scales_.assign(q.groups_ * out, 0.0f);

  const int qmax = q.qmax();
  for (std::size_t j = 0; j < out; ++j) {
    const float* wrow = w + j * in;
    for (std::size_t g = 0; g < q.groups_; ++g) {
      const std::size_t k0 = g * gs;
      const std::size_t k1 = std::min(k0 + gs, in);
      float maxabs = 0.0f;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        maxabs = std::max(maxabs, std::fabs(wrow[kk]));
      }
      const float scale = maxabs > 0.0f ? maxabs / static_cast<float>(qmax) : 0.0f;
      q.scales_[g * out + j] = scale;
      const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const long code = std::lround(static_cast<double>(wrow[kk]) *
                                      static_cast<double>(inv));
        const int v = static_cast<int>(
            std::clamp(code, static_cast<long>(-qmax), static_cast<long>(qmax)));
        if (q.bits_ == 4) {
          // Offset-binary nibble (q + 8 in [1, 15]); low nibble = even j.
          std::uint8_t& byte = q.data_[kk * q.row_stride_ + j / 2];
          const auto nibble = static_cast<std::uint8_t>(v + 8);
          if (j % 2 == 0) {
            byte = static_cast<std::uint8_t>((byte & 0xF0u) | nibble);
          } else {
            byte = static_cast<std::uint8_t>((byte & 0x0Fu) |
                                             static_cast<std::uint8_t>(nibble << 4));
          }
        } else {
          q.data_[kk * q.row_stride_ + j] =
              static_cast<std::uint8_t>(static_cast<std::int8_t>(v));
        }
      }
    }
  }
  return q;
}

QuantizedMatrix::Layout QuantizedMatrix::layout(std::size_t out, std::size_t in,
                                                int bits, std::size_t group_size) {
  if (bits != 8 && bits != 4) {
    throw QuantizationError(
        QuantizationError::Kind::kBadCheckpoint,
        format("quantized checkpoint entry has unsupported bit-width %d", bits));
  }
  if (group_size == 0 && in != 0) {
    throw QuantizationError(QuantizationError::Kind::kBadCheckpoint,
                            "quantized checkpoint entry has group_size 0");
  }
  Layout l;
  if (__builtin_mul_overflow(packed_row_stride(out, bits), in, &l.packed_bytes) ||
      __builtin_mul_overflow(group_count(in, group_size), out, &l.scale_count)) {
    throw QuantizationError(
        QuantizationError::Kind::kBadCheckpoint,
        format("quantized checkpoint entry [%zu x %zu] is too large", out, in));
  }
  return l;
}

QuantizedMatrix QuantizedMatrix::from_raw(std::size_t out, std::size_t in, int bits,
                                          std::size_t group_size,
                                          std::vector<std::uint8_t> packed,
                                          std::vector<float> scales) {
  const Layout want = layout(out, in, bits, group_size);
  if (packed.size() != want.packed_bytes || scales.size() != want.scale_count) {
    throw QuantizationError(
        QuantizationError::Kind::kBadCheckpoint,
        format("quantized checkpoint entry [%zu x %zu, %d-bit] has %zu packed bytes / "
               "%zu scales, expected %zu / %zu",
               out, in, bits, packed.size(), scales.size(), want.packed_bytes,
               want.scale_count));
  }
  const auto reject = [&](const char* what, const char* where, std::size_t at) {
    throw QuantizationError(
        QuantizationError::Kind::kBadCheckpoint,
        format("quantized checkpoint entry [%zu x %zu, %d-bit] has %s at %s %zu", out,
               in, bits, what, where, at));
  };
  for (std::size_t i = 0; i < scales.size(); ++i) {
    if (!std::isfinite(scales[i]) || scales[i] < 0.0f) {
      reject("a NaN, infinite or negative scale", "scale", i);
    }
  }
  // Only codes quantize() writes: INT8 never -128, INT4 never the nibble 0
  // (code -8), and an odd-out INT4 row's unused high nibble is 0.
  const std::size_t row_stride = packed_row_stride(out, bits);
  for (std::size_t kk = 0; kk < in; ++kk) {
    const std::uint8_t* row = packed.data() + kk * row_stride;
    for (std::size_t j = 0; j < out; ++j) {
      if (bits == 4 ? int4_nibble(row, j) == 0 : row[j] == 0x80) {
        reject("a code outside [-qmax, qmax]", "k-row", kk);
      }
    }
    if (bits == 4 && out % 2 == 1 && int4_nibble(row, out) != 0) {
      reject("a nonzero padding nibble", "k-row", kk);
    }
  }

  QuantizedMatrix q;
  q.out_ = out;
  q.in_ = in;
  q.bits_ = bits;
  q.group_size_ = group_size;
  q.groups_ = group_count(in, group_size);
  q.row_stride_ = row_stride;
  q.data_ = std::move(packed);
  q.scales_ = std::move(scales);
  return q;
}

void QuantizedMatrix::dequantize(float* w) const {
  for (std::size_t j = 0; j < out_; ++j) {
    for (std::size_t kk = 0; kk < in_; ++kk) w[j * in_ + kk] = dequantized(j, kk);
  }
}

int QuantizedMatrix::q(std::size_t j, std::size_t kk) const {
  const std::uint8_t* row = data_.data() + kk * row_stride_;
  if (bits_ == 4) return int4_nibble(row, j) - 8;
  return static_cast<std::int8_t>(row[j]);
}

}  // namespace dtsnn::util
