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
  row_shape_.clear();
  row_numel_ = 0;
  stepping_ = true;
}

Shape Lif::reserve_steps(std::size_t rows, const Shape& sample_shape) {
  if (!stepping_) begin_steps(rows);
  if (row_shape_.empty()) {
    // The first reserve of a sequence: every row starts at zero. assign()
    // reuses the previous sequence's buffer.
    row_shape_ = sample_shape;
    row_numel_ = shape_numel(sample_shape);
    membrane_.assign(rows * row_numel_, 0.0f);
  } else if (row_shape_ != sample_shape) {
    throw std::invalid_argument("Lif::step: input shape changed mid-sequence");
  } else if (membrane_.size() < rows * row_numel_) {
    membrane_.resize(rows * row_numel_, 0.0f);
  }
  return sample_shape;
}

const float* Lif::step_window(const StepWindow& w, const float* x, float* y) {
  float* u = window_membrane(w);
  const float vth = config_.vth;
  const float tau = config_.tau;
  const bool hard = config_.hard_reset;
  // Element-wise (and in place when y == x), so the threads' chunking cannot
  // change a bit.
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < w.rows * row_numel_; ++i) {
    const float pre = tau * u[i] + x[i];
    const float s = pre > vth ? 1.0f : 0.0f;
    y[i] = s;
    u[i] = hard ? pre * (1.0f - s) : pre - vth * s;
  }
  return y;
}

namespace {

/// Throws std::out_of_range unless every non-fresh entry of `keep` is below
/// `rows`.
void check_keep(std::span<const std::size_t> keep, std::size_t rows) {
  for (const std::size_t k : keep) {
    if (k != Layer::kFreshRow && k >= rows) {
      throw std::out_of_range("Lif::compact_state: keep index out of range");
    }
  }
}

/// True when gathering rows `keep` can move rows in place, front to back:
/// every row it reads (keep[j] >= j) is read before a later write reaches it.
bool in_place(std::span<const std::size_t> keep) {
  for (std::size_t j = 0; j < keep.size(); ++j) {
    if (keep[j] != Layer::kFreshRow && keep[j] < j) return false;
  }
  return true;
}

/// Row j of `rows` becomes its row keep[j], or zero for kFreshRow; requires
/// in_place(keep).
void move_rows(float* rows, std::size_t row_numel, std::span<const std::size_t> keep) {
  for (std::size_t j = 0; j < keep.size(); ++j) {
    float* out = rows + j * row_numel;
    if (keep[j] == Layer::kFreshRow) {
      std::fill(out, out + row_numel, 0.0f);
    } else if (keep[j] != j) {
      std::copy(rows + keep[j] * row_numel, rows + (keep[j] + 1) * row_numel, out);
    }
  }
}

}  // namespace

void Lif::compact_state(std::span<const std::size_t> keep) {
  if (stepping_ && !row_shape_.empty()) {
    check_keep(keep, batch_);
    // Gather into the spare membrane and swap it in, so a pool that keeps
    // its batch size reuses both buffers instead of allocating one per
    // compaction. Only kFreshRow rows need zeroing; every other row is
    // overwritten.
    spare_.resize(std::max(spare_.size(), keep.size() * row_numel_));
    const float* src = membrane_.data();
    float* dst = spare_.data();
    const std::size_t numel = row_numel_;
#pragma omp parallel for schedule(static)
    for (std::size_t j = 0; j < keep.size(); ++j) {
      float* out = dst + j * numel;
      if (keep[j] == kFreshRow) {
        std::fill(out, out + numel, 0.0f);
      } else {
        std::copy(src + keep[j] * numel, src + (keep[j] + 1) * numel, out);
      }
    }
    std::swap(membrane_, spare_);
  }
  Layer::compact_state(keep);
}

void Lif::compact_window(const StepWindow& w, std::span<const std::size_t> keep) {
  if (row_shape_.empty()) return;
  check_keep(keep, w.rows);
  if (!in_place(keep) || (w.offset + keep.size()) * row_numel_ > membrane_.size()) {
    throw std::invalid_argument(
        "Lif::compact_window: keep must fit the window and move rows in place");
  }
  move_rows(window_membrane(w), row_numel_, keep);
}

Tensor Lif::membrane() const {
  if (row_shape_.empty()) return {};
  const std::size_t rows =
      row_numel_ == 0 ? batch_ : std::min(batch_, membrane_.size() / row_numel_);
  Shape shape = row_shape_;
  shape.insert(shape.begin(), rows);
  const std::size_t numel = rows * row_numel_;
  return Tensor(shape, std::vector<float>(membrane_.begin(),
                                          membrane_.begin() +
                                              static_cast<std::ptrdiff_t>(numel)));
}

}  // namespace dtsnn::snn
