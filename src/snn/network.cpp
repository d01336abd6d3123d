#include "snn/network.h"

#include <stdexcept>

#include "snn/conv.h"
#include "snn/norm.h"

namespace dtsnn::snn {

namespace {

/// One eval step of a Conv2d -> BatchNorm2d -> Lif run: the conv's pixels
/// part into its step scratch, then the GEMM registry's spike_epilogue, one
/// pass that applies the BN affine and the LIF update and writes NCHW
/// spikes. Bitwise equal to stepping the three leaves one at a time.
/// Everything that can throw is checked before the conv writes its scratch,
/// which only the epilogue drains back to zero.
Tensor fused_spiking_step(Conv2d& conv, BatchNorm2d& bn, Lif& lif, const Tensor& x) {
  if (x.rank() != 4) {
    throw std::invalid_argument("Conv2d: bad input shape " + shape_to_string(x.shape()));
  }
  Shape shape = conv.infer_shape({x.dim(1), x.dim(2), x.dim(3)});
  shape.insert(shape.begin(), x.dim(0));
  if (bn.channels() != shape[1]) {
    throw std::invalid_argument("BatchNorm2d: bad input shape " + shape_to_string(shape));
  }
  float* membrane = lif.step_membrane(shape);
  float* pix = conv.step_pixels(x);
  Tensor spikes(shape);
  const LifConfig& lc = lif.config();
  conv.gemm_context().spike_epilogue(pix, membrane, spikes.data(), shape[0],
                                     shape[2] * shape[3], shape[1],
                                     {bn.eval_constants(), lc.tau, lc.vth, lc.hard_reset});
  return spikes;
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

Tensor Sequential::step(const Tensor& x) {
  if (layers_.empty()) return x;
  Tensor a;
  const Tensor* in = &x;
  for (std::size_t i = 0; i < layers_.size(); in = &a) {
    if (i + 2 < layers_.size()) {
      auto* conv = dynamic_cast<Conv2d*>(layers_[i].get());
      auto* bn = dynamic_cast<BatchNorm2d*>(layers_[i + 1].get());
      auto* lif = dynamic_cast<Lif*>(layers_[i + 2].get());
      if (conv != nullptr && bn != nullptr && lif != nullptr) {
        a = fused_spiking_step(*conv, *bn, *lif, *in);
        i += 3;
        continue;
      }
    }
    a = layers_[i]->step(*in);
    ++i;
  }
  return a;
}

void Sequential::compact_state(std::span<const std::size_t> keep) {
  Layer::compact_state(keep);
  for (auto& l : layers_) l->compact_state(keep);
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

Tensor ResidualBlock::step(const Tensor& x) {
  Tensor m = main_.step(x);
  if (has_projection()) {
    add_residual(m, shortcut_.step(x));
  } else {
    add_residual(m, x);
  }
  return out_lif_.step(m);
}

void ResidualBlock::compact_state(std::span<const std::size_t> keep) {
  Layer::compact_state(keep);
  main_.compact_state(keep);
  shortcut_.compact_state(keep);
  out_lif_.compact_state(keep);
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

void SpikingNetwork::begin_inference(std::size_t batch) { body_.begin_steps(batch); }

Tensor SpikingNetwork::step(const Tensor& x_t) { return body_.step(x_t); }

void SpikingNetwork::compact_inference_state(std::span<const std::size_t> keep) {
  body_.compact_state(keep);
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
