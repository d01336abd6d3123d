// Fixture: the spike_epilogue kernel header with a template kernel outside
// the anonymous namespace, so every including TU shares one ODR copy.
#pragma once

namespace dtsnn::util {
namespace {
int private_copy(int n) { return n; }
}  // namespace
template <bool kHard>  // line 9: externally linked
int epilogue_rows(int n) { return kHard ? n : -n; }
}  // namespace dtsnn::util
