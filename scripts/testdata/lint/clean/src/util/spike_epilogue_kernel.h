// Fixture: the spike_epilogue kernel header with every definition inside the
// anonymous namespace (one private copy per including backend TU).
#pragma once

#include <cstddef>

namespace dtsnn::util {
namespace {

template <bool kHardReset>
void epilogue_image(float* u, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) u[i] = kHardReset ? 0.0f : u[i] - 1.0f;
}

}  // namespace
}  // namespace dtsnn::util
