// Fixture: a bitwise backend TU, one of the three allowed to include the
// conv_scatter kernel header.
#include "util/conv_scatter_kernel.h"

namespace dtsnn::util {

std::size_t count(const float* x, std::size_t n) { return scatter_image<1>(x, n); }

}  // namespace dtsnn::util
