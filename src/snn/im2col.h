// im2col / col2im transforms turning 2-D convolutions into GEMMs.
//
// Layout convention: the column matrix for a batch of N images is
// [N * OH * OW, C * KH * KW] row-major, i.e. one row per output pixel with
// the receptive field flattened channel-major. This pairs with weights
// stored as [Cout, C * KH * KW] so that the convolution output (before the
// NCHW transpose) is `col * W^T`.

#pragma once

#include <cstddef>

#include "snn/tensor.h"
#include "util/gemm.h"

namespace dtsnn::snn {

/// The convolution geometry is shared with the GEMM registry's conv_scatter
/// op, which lives below this module.
using util::ConvGeometry;

/// x: [N, C, H, W]  ->  col: [N * OH * OW, C * KH * KW]. Zero padding.
void im2col(const Tensor& x, const ConvGeometry& g, Tensor& col);

/// Adjoint of im2col: scatters dcol [N*OH*OW, C*K*K] back into dx [N, C, H, W].
/// dx is overwritten (not accumulated).
void col2im(const Tensor& dcol, const ConvGeometry& g, Tensor& dx);

}  // namespace dtsnn::snn
