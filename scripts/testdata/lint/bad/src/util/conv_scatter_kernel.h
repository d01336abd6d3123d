// Fixture: the conv_scatter kernel header with a kernel outside the
// anonymous namespace, so every including TU shares one ODR copy.
#pragma once

namespace dtsnn::util {
inline int scatter_rows(int n) { return n; }  // line 6: externally linked
namespace {
int private_copy(int n) { return n; }
}  // namespace
}  // namespace dtsnn::util
