// Fixture: the conv_scatter kernel header with every definition inside the
// anonymous namespace (one private copy per including backend TU).
#pragma once

#include <cstddef>

namespace dtsnn::util {
namespace {

template <std::size_t kStride>
std::size_t scatter_image(const float* x, std::size_t n) {
  std::size_t nonzeros = 0;
  for (std::size_t i = 0; i < n; i += kStride) nonzeros += x[i] != 0.0f;
  return nonzeros;
}

}  // namespace
}  // namespace dtsnn::util
