// Fixture: a bitwise backend TU, one of the three allowed to include the
// conv_scatter and spike_epilogue kernel headers.
#include "util/conv_scatter_kernel.h"
#include "util/spike_epilogue_kernel.h"

namespace dtsnn::util {

std::size_t count(const float* x, std::size_t n) { return scatter_image<1>(x, n); }
void reset(float* u, std::size_t n) { epilogue_image<true>(u, n); }

}  // namespace dtsnn::util
