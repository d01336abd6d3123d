#include "snn/lif.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dtsnn::snn {

void Lif::set_time(std::size_t timesteps, std::size_t batch) {
  Layer::set_time(timesteps, batch);
  stepping_ = false;
}

Tensor Lif::forward(const Tensor& x, bool train) {
  const std::size_t tb = x.dim(0);
  if (timesteps_ == 0 || tb % timesteps_ != 0) {
    throw std::invalid_argument("Lif: leading dim " + std::to_string(tb) +
                                " not divisible by T=" + std::to_string(timesteps_));
  }
  const std::size_t b = tb / timesteps_;
  const std::size_t stride = x.row_size() * b;  // elements per timestep slab

  Tensor spikes(x.shape());
  Tensor u_pre;
  if (train) u_pre = Tensor(x.shape());

  std::vector<float> u(stride, 0.0f);  // post-reset membrane, carried over t
  const float vth = config_.vth;
  const float tau = config_.tau;
  std::size_t spike_count = 0;

  for (std::size_t t = 0; t < timesteps_; ++t) {
    const float* in = x.data() + t * stride;
    float* out = spikes.data() + t * stride;
    float* upre_t = train ? u_pre.data() + t * stride : nullptr;
    std::size_t local_spikes = 0;
#pragma omp parallel for schedule(static) reduction(+ : local_spikes)
    for (std::size_t i = 0; i < stride; ++i) {
      const float pre = tau * u[i] + in[i];
      const float s = pre > vth ? 1.0f : 0.0f;
      if (upre_t) upre_t[i] = pre;
      out[i] = s;
      u[i] = config_.hard_reset ? pre * (1.0f - s) : pre - vth * s;
      local_spikes += (s != 0.0f);
    }
    spike_count += local_spikes;
  }

  last_spike_rate_ = static_cast<double>(spike_count) / static_cast<double>(x.numel());

  if (train) {
    u_pre_cache_ = std::move(u_pre);
    spike_cache_ = spikes;  // copy: spikes is also the output
    have_cache_ = true;
  } else {
    have_cache_ = false;
    u_pre_cache_ = Tensor();
    spike_cache_ = Tensor();
  }
  return spikes;
}

Tensor Lif::backward(const Tensor& grad_out) {
  assert(have_cache_ && "Lif::backward requires a prior training forward");
  const std::size_t tb = grad_out.dim(0);
  const std::size_t b = tb / timesteps_;
  const std::size_t stride = grad_out.row_size() * b;

  Tensor dx(grad_out.shape());
  std::vector<float> du_post(stride, 0.0f);  // gradient wrt post-reset membrane,
                                             // carried backwards in time
  const float vth = config_.vth;
  const float tau = config_.tau;

  for (std::size_t t = timesteps_; t-- > 0;) {
    const float* gs = grad_out.data() + t * stride;
    const float* upre = u_pre_cache_.data() + t * stride;
    const float* s = spike_cache_.data() + t * stride;
    float* d = dx.data() + t * stride;
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < stride; ++i) {
      const float fprime = surrogate_grad(config_.surrogate, upre[i], vth);
      float du_pre;
      if (config_.hard_reset) {
        // u_post = u_pre * (1 - s)
        du_pre = du_post[i] * (1.0f - s[i]) + gs[i] * fprime;
        if (!config_.detach_reset) du_pre -= du_post[i] * upre[i] * fprime;
      } else {
        // u_post = u_pre - vth * s
        du_pre = du_post[i] + gs[i] * fprime;
        if (!config_.detach_reset) du_pre -= du_post[i] * vth * fprime;
      }
      d[i] = du_pre;                 // dI[t] = du_pre
      du_post[i] = tau * du_pre;     // carry to t-1 through the leak
    }
  }
  return dx;
}

void Lif::begin_steps(std::size_t batch) {
  Layer::begin_steps(batch);
  membrane_ = Tensor();
  stepping_ = true;
}

void Lif::compact_state(std::span<const std::size_t> keep) {
  if (stepping_ && !membrane_.empty()) {
    const std::size_t rows = membrane_.dim(0);
    const std::size_t row_numel = membrane_.row_size();
    for (const std::size_t k : keep) {
      if (k != kFreshRow && k >= rows) {
        throw std::out_of_range("Lif::compact_state: keep index out of range");
      }
    }
    // Gather into the spare membrane and swap it in, so a pool that keeps
    // its batch size reuses both buffers instead of allocating one per
    // compaction. Only kFreshRow rows need zeroing; every other row is
    // overwritten.
    Shape shape = membrane_.shape();
    shape[0] = keep.size();
    if (spare_.shape() != shape) spare_ = Tensor(shape);
    const float* src = membrane_.data();
    float* dst = spare_.data();
#pragma omp parallel for schedule(static)
    for (std::size_t j = 0; j < keep.size(); ++j) {
      float* out = dst + j * row_numel;
      if (keep[j] == kFreshRow) {
        std::fill(out, out + row_numel, 0.0f);
      } else {
        std::copy(src + keep[j] * row_numel, src + (keep[j] + 1) * row_numel, out);
      }
    }
    std::swap(membrane_, spare_);
  }
  Layer::compact_state(keep);
}

float* Lif::step_membrane(const Shape& shape) {
  if (!stepping_) begin_steps(shape.at(0));
  if (membrane_.empty()) membrane_ = Tensor(shape);
  if (membrane_.shape() != shape) {
    throw std::invalid_argument("Lif::step: input shape changed mid-sequence");
  }
  return membrane_.data();
}

Tensor Lif::step(const Tensor& x) {
  float* u = step_membrane(x.shape());
  Tensor spikes(x.shape());
  const float vth = config_.vth;
  const float tau = config_.tau;
  const float* in = x.data();
  float* out = spikes.data();
  const std::size_t n = x.numel();
  // Element-wise, so the threads' chunking cannot change a bit.
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const float pre = tau * u[i] + in[i];
    const float s = pre > vth ? 1.0f : 0.0f;
    out[i] = s;
    u[i] = config_.hard_reset ? pre * (1.0f - s) : pre - vth * s;
  }
  return spikes;
}

}  // namespace dtsnn::snn
