#include "snn/network.h"

#include <algorithm>
#include <stdexcept>

#include "snn/conv.h"
#include "snn/norm.h"

namespace dtsnn::snn {

namespace {

/// One eval step of window w through a Conv2d -> BatchNorm2d -> Lif run:
/// the conv's pixels part into its step scratch, then the GEMM registry's
/// spike_epilogue, one pass that applies the BN affine and the LIF update
/// and writes NCHW spikes into y. Bitwise equal to stepping the three
/// leaves one at a time; the shapes were checked at reserve_steps().
const float* fused_spiking_step(Conv2d& conv, const BatchNorm2d& bn, Lif& lif,
                                const StepWindow& w, const float* x, float* y) {
  float* pix = conv.step_pixels(w, x);
  const LifConfig& lc = lif.config();
  conv.gemm_context().spike_epilogue(pix, lif.window_membrane(w), y, w.rows,
                                     conv.step_output_pixels(), conv.out_channels(),
                                     {bn.step_constants(), lc.tau, lc.vth, lc.hard_reset});
  return y;
}

/// m += s for a residual sum, rejecting mismatched branch shapes (Tensor::add_
/// only asserts, so a Release build would read out of bounds).
void add_residual(Tensor& m, const Tensor& s) {
  if (m.shape() != s.shape()) {
    throw std::invalid_argument("ResidualBlock: main/shortcut shape mismatch " +
                                shape_to_string(m.shape()) + " vs " +
                                shape_to_string(s.shape()));
  }
  m.add_(s);
}

}  // namespace

// ---------------------------------------------------------------- Sequential

void Sequential::set_time(std::size_t timesteps, std::size_t batch) {
  Layer::set_time(timesteps, batch);
  for (auto& l : layers_) l->set_time(timesteps, batch);
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor a = x;
  for (auto& l : layers_) a = l->forward(a, train);
  return a;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::begin_steps(std::size_t batch) {
  Layer::begin_steps(batch);
  for (auto& l : layers_) l->begin_steps(batch);
}

Shape Sequential::reserve_steps(std::size_t rows, const Shape& sample_shape) {
  if (stages_.empty()) {
    for (std::size_t i = 0; i < layers_.size();) {
      const bool fused = i + 2 < layers_.size() &&
                         dynamic_cast<Conv2d*>(layers_[i].get()) != nullptr &&
                         dynamic_cast<BatchNorm2d*>(layers_[i + 1].get()) != nullptr &&
                         dynamic_cast<Lif*>(layers_[i + 2].get()) != nullptr;
      stages_.push_back({i, fused});
      i += fused ? 3 : 1;
    }
  }
  Shape shape = sample_shape;
  std::size_t widest = 0;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const Stage& stage = stages_[s];
    for (std::size_t i = 0; i < (stage.fused ? 3u : 1u); ++i) {
      shape = layers_[stage.first + i]->reserve_steps(rows, shape);
    }
    if (s + 1 < stages_.size()) widest = std::max(widest, shape_numel(shape));
  }
  widest_ = widest;
  if (ping_.size() < rows * widest_) {
    ping_.resize(rows * widest_);
    pong_.resize(rows * widest_);
  }
  return shape;
}

const float* Sequential::step_window(const StepWindow& w, const float* x, float* y) {
  float* a = ping_.data() + w.offset * widest_;
  float* b = pong_.data() + w.offset * widest_;
  const float* in = x;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    float* out = s + 1 == stages_.size() ? y : (in == a ? b : a);
    const Stage& stage = stages_[s];
    if (stage.fused) {
      in = fused_spiking_step(static_cast<Conv2d&>(*layers_[stage.first]),
                              static_cast<const BatchNorm2d&>(*layers_[stage.first + 1]),
                              static_cast<Lif&>(*layers_[stage.first + 2]), w, in, out);
    } else {
      in = layers_[stage.first]->step_window(w, in, out);
    }
  }
  return in;
}

void Sequential::compact_state(std::span<const std::size_t> keep) {
  Layer::compact_state(keep);
  for (auto& l : layers_) l->compact_state(keep);
}

void Sequential::compact_window(const StepWindow& w, std::span<const std::size_t> keep) {
  for (auto& l : layers_) l->compact_window(w, keep);
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> ps;
  for (auto& l : layers_) {
    for (Param* p : l->params()) ps.push_back(p);
  }
  return ps;
}

Shape Sequential::infer_shape(const Shape& sample_shape) const {
  Shape s = sample_shape;
  for (const auto& l : layers_) s = l->infer_shape(s);
  return s;
}

void Sequential::visit(const std::function<void(Layer&)>& fn) {
  for (auto& l : layers_) {
    if (auto* seq = dynamic_cast<Sequential*>(l.get())) {
      seq->visit(fn);
    } else if (auto* res = dynamic_cast<ResidualBlock*>(l.get())) {
      res->visit(fn);
    } else {
      fn(*l);
    }
  }
}

// ------------------------------------------------------------ ResidualBlock

ResidualBlock::ResidualBlock(Sequential main_path, Sequential shortcut, LifConfig out_lif)
    : main_(std::move(main_path)), shortcut_(std::move(shortcut)), out_lif_(out_lif) {}

void ResidualBlock::set_time(std::size_t timesteps, std::size_t batch) {
  Layer::set_time(timesteps, batch);
  main_.set_time(timesteps, batch);
  shortcut_.set_time(timesteps, batch);
  out_lif_.set_time(timesteps, batch);
}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  Tensor m = main_.forward(x, train);
  if (has_projection()) {
    add_residual(m, shortcut_.forward(x, train));
  } else {
    add_residual(m, x);
  }
  return out_lif_.forward(m, train);
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor g = out_lif_.backward(grad_out);
  // g flows to both branches.
  Tensor gx = main_.backward(g);
  if (has_projection()) {
    gx.add_(shortcut_.backward(g));
  } else {
    gx.add_(g);
  }
  return gx;
}

void ResidualBlock::begin_steps(std::size_t batch) {
  Layer::begin_steps(batch);
  main_.begin_steps(batch);
  shortcut_.begin_steps(batch);
  out_lif_.begin_steps(batch);
}

Shape ResidualBlock::reserve_steps(std::size_t rows, const Shape& sample_shape) {
  const Shape m = main_.reserve_steps(rows, sample_shape);
  const Shape s =
      has_projection() ? shortcut_.reserve_steps(rows, sample_shape) : sample_shape;
  if (m != s) {
    throw std::invalid_argument("ResidualBlock: main/shortcut shape mismatch " +
                                shape_to_string(m) + " vs " + shape_to_string(s));
  }
  out_lif_.reserve_steps(rows, m);
  step_numel_ = shape_numel(m);
  if (has_projection() && shortcut_out_.size() < rows * step_numel_) {
    shortcut_out_.resize(rows * step_numel_);
  }
  return m;
}

const float* ResidualBlock::step_window(const StepWindow& w, const float* x, float* y) {
  const std::size_t numel = w.rows * step_numel_;
  const float* m = main_.step_window(w, x, y);
  if (m != y) std::copy(m, m + numel, y);
  const float* s =
      has_projection()
          ? shortcut_.step_window(w, x, shortcut_out_.data() + w.offset * step_numel_)
          : x;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < numel; ++i) y[i] += s[i];
  return out_lif_.step_window(w, y, y);
}

void ResidualBlock::compact_state(std::span<const std::size_t> keep) {
  Layer::compact_state(keep);
  main_.compact_state(keep);
  shortcut_.compact_state(keep);
  out_lif_.compact_state(keep);
}

void ResidualBlock::compact_window(const StepWindow& w, std::span<const std::size_t> keep) {
  main_.compact_window(w, keep);
  shortcut_.compact_window(w, keep);
  out_lif_.compact_window(w, keep);
}

std::vector<Param*> ResidualBlock::params() {
  std::vector<Param*> ps = main_.params();
  for (Param* p : shortcut_.params()) ps.push_back(p);
  return ps;
}

Shape ResidualBlock::infer_shape(const Shape& sample_shape) const {
  return main_.infer_shape(sample_shape);
}

void ResidualBlock::visit(const std::function<void(Layer&)>& fn) {
  main_.visit(fn);
  shortcut_.visit(fn);
  fn(out_lif_);
}

// ----------------------------------------------------------- SpikingNetwork

Tensor SpikingNetwork::forward(const Tensor& x, std::size_t timesteps, bool train) {
  if (x.dim(0) % timesteps != 0) {
    throw std::invalid_argument("SpikingNetwork::forward: leading dim not divisible by T");
  }
  body_.set_time(timesteps, x.dim(0) / timesteps);
  Tensor logits = body_.forward(x, train);
  if (logits.rank() != 2 || logits.dim(1) != num_classes_) {
    throw std::logic_error("SpikingNetwork: body output shape " +
                           shape_to_string(logits.shape()) + " is not [T*B, K]");
  }
  return logits;
}

void SpikingNetwork::backward(const Tensor& grad_logits) { body_.backward(grad_logits); }

void SpikingNetwork::begin_inference(std::size_t batch) {
  body_.begin_steps(batch);
  reserve_inference(batch);
}

void SpikingNetwork::reserve_inference(std::size_t rows) {
  step_out_numel_ = shape_numel(body_.reserve_steps(rows, sample_shape_));
  if (step_out_.size() < rows * step_out_numel_) step_out_.resize(rows * step_out_numel_);
}

Tensor SpikingNetwork::step(const Tensor& x_t) { return body_.step(x_t); }

void SpikingNetwork::compact_inference_state(std::span<const std::size_t> keep) {
  body_.compact_state(keep);
  reserve_inference(keep.size());
}

const float* SpikingNetwork::step_window(const StepWindow& w, const float* x) {
  return body_.step_window(w, x, step_out_.data() + w.offset * step_out_numel_);
}

std::vector<Param*> SpikingNetwork::params() { return body_.params(); }

void SpikingNetwork::set_gemm_context(util::GemmContext* context) {
  gemm_context_ = context;
  body_.visit([context](Layer& layer) { layer.set_gemm_context(context); });
}

std::vector<double> SpikingNetwork::lif_spike_rates() {
  std::vector<double> rates;
  body_.visit([&rates](Layer& l) {
    if (auto* lif = dynamic_cast<Lif*>(&l)) rates.push_back(lif->last_spike_rate());
  });
  return rates;
}

std::size_t SpikingNetwork::parameter_count() {
  std::size_t n = 0;
  for (const Param* p : params()) n += p->value.numel();
  return n;
}

}  // namespace dtsnn::snn
