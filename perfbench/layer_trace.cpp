#include "layer_trace.h"

#include <algorithm>

#include "data/prefetch.h"
#include "snn/conv.h"
#include "snn/layer.h"
#include "snn/linear.h"
#include "snn/loss.h"

namespace dtsnn::perfbench {

void TimedDataset::write_frame(std::size_t sample, std::size_t t,
                               std::span<float> dst) const {
  const auto start = Clock::now();
  inner_.write_frame(sample, t, dst);
  seconds_ += seconds_between(start, Clock::now());
  ++calls_;
}

namespace {

/// Dense multiply-accumulates one row (one sample at one timestep) costs in
/// a Conv2d or Linear leaf, given that leaf's step() output.
double dense_macs_per_row(snn::Layer& layer, const snn::Tensor& out) {
  if (auto* conv = dynamic_cast<snn::Conv2d*>(&layer)) {
    return static_cast<double>(conv->out_channels() * out.dim(2) * out.dim(3) *
                               conv->in_channels() * conv->kernel() * conv->kernel());
  }
  const auto& linear = dynamic_cast<const snn::Linear&>(layer);
  return static_cast<double>(linear.in_features() * linear.out_features());
}

std::size_t row_nonzeros(const snn::Tensor& x, std::size_t row) {
  const std::size_t n = x.row_size();
  const float* p = x.data() + row * n;
  std::size_t nz = 0;
  for (std::size_t i = 0; i < n; ++i) nz += p[i] != 0.0f ? 1 : 0;
  return nz;
}

struct Slot {
  std::size_t position = 0;  ///< index into the sample sequence
  std::size_t t = 0;         ///< this sample's current 0-based timestep
};

/// Per-row density counting of the Conv2d/Linear inputs kept from one step.
void count_inputs(LivePoolTrace& trace, const std::vector<snn::Tensor>& inputs,
                  const std::vector<Slot>& live) {
  for (std::size_t i = 0; i < trace.leaves.size(); ++i) {
    LeafTrace& leaf = trace.leaves[i];
    if (!leaf.weighted) continue;
    const snn::Tensor& in = inputs[i];
    const double row_numel = static_cast<double>(in.row_size());
    std::size_t nonzeros = 0;
    for (std::size_t j = 0; j < live.size(); ++j) {
      const std::size_t nz = row_nonzeros(in, j);
      const double density = static_cast<double>(nz) / row_numel;
      nonzeros += nz;
      leaf.density_sum[live[j].t] += density;
      leaf.density_rows[live[j].t] += 1.0;
      leaf.dense_macs += leaf.dense_macs_per_row;
      leaf.executed_macs += density * leaf.dense_macs_per_row;
    }
    const double whole = static_cast<double>(nonzeros) /
                         (row_numel * static_cast<double>(live.size()));
    if (whole < snn::kSparseDensityThreshold) ++leaf.sparse_calls;
  }
}

}  // namespace

void trace_live_pool(snn::SpikingNetwork& net, const data::Dataset& dataset,
                     const core::ExitPolicy& policy, std::size_t budget,
                     std::size_t batch, std::span<const std::size_t> samples,
                     bool detail, LivePoolTrace& trace) {
  snn::Sequential& body = net.body();
  if (trace.leaves.empty()) {
    for (std::size_t i = 0; i < body.size(); ++i) {
      snn::Layer& layer = body.layer(i);
      LeafTrace leaf;
      leaf.name = std::to_string(i) + "_" + layer.name();
      leaf.weighted = dynamic_cast<snn::Conv2d*>(&layer) != nullptr ||
                      dynamic_cast<snn::Linear*>(&layer) != nullptr;
      leaf.density_sum.assign(budget, 0.0);
      leaf.density_rows.assign(budget, 0.0);
      trace.leaves.push_back(std::move(leaf));
    }
    trace.exit_counts.assign(budget, 0);
  }
  if (samples.empty()) return;

  const auto loop_start = Clock::now();
  const snn::Shape fs = dataset.frame_shape();
  const std::size_t frame_numel = snn::shape_numel(fs);
  const std::size_t k = net.num_classes();
  trace.results.reserve(trace.results.size() + samples.size());

  std::vector<Slot> live;
  std::size_t next = std::min(batch, samples.size());
  for (std::size_t p = 0; p < next; ++p) live.push_back({p, 0});
  std::vector<double> acc(next * k, 0.0);
  net.begin_inference(next);

  // The engine hints the waiting tail to a shard prefetcher at every
  // admission point; do the same so a sharded dataset sees the same reads.
  data::ShardPrefetcher prefetcher(dataset);
  std::size_t hinted = 0;
  const auto hint_waiting = [&]() {
    if (!prefetcher.active()) return;
    const std::size_t horizon = std::min(samples.size(), next + batch * prefetcher.depth());
    hinted = std::max(hinted, next);
    if (hinted >= horizon) return;
    prefetcher.enqueue(samples.subspan(hinted, horizon - hinted));
    hinted = horizon;
  };
  hint_waiting();

  std::vector<float> cum(k);
  std::vector<float> no_history;
  std::vector<std::size_t> keep;
  std::vector<snn::Tensor> inputs(body.size());
  while (!live.empty()) {
    const auto encode_start = Clock::now();
    snn::Tensor x({live.size(), fs[0], fs[1], fs[2]});
    for (std::size_t j = 0; j < live.size(); ++j) {
      dataset.write_frame(samples[live[j].position], live[j].t,
                          {x.data() + j * frame_numel, frame_numel});
    }

    const auto step_start = Clock::now();
    snn::Tensor a = std::move(x);
    for (std::size_t i = 0; i < body.size(); ++i) {
      snn::Layer& layer = body.layer(i);
      LeafTrace& leaf = trace.leaves[i];
      const auto leaf_start = Clock::now();
      snn::Tensor out = layer.step(a);
      leaf.self_s += seconds_between(leaf_start, Clock::now());
      ++leaf.calls;
      if (detail && leaf.weighted) {
        if (leaf.dense_macs_per_row == 0.0) {
          leaf.dense_macs_per_row = dense_macs_per_row(layer, out);
        }
        inputs[i] = std::move(a);
      }
      a = std::move(out);
    }
    const auto step_end = Clock::now();
    trace.encode_s += seconds_between(encode_start, step_start);
    trace.step_s += seconds_between(step_start, step_end);

    auto decide_start = step_end;
    if (detail) {
      count_inputs(trace, inputs, live);
      decide_start = Clock::now();
      trace.instrument_s += seconds_between(step_end, decide_start);
    }
    ++trace.steps;
    trace.live_rows += static_cast<double>(live.size());

    keep.clear();
    for (std::size_t j = 0; j < live.size(); ++j) {
      const std::size_t t = live[j].t;
      snn::cumulative_mean_step(a.data() + j * k, acc.data() + j * k, cum.data(), k, t);
      if (t + 1 == budget || policy.should_exit(cum)) {
        core::InferenceResult r = core::make_exit_result(cum, t, false, no_history);
        r.request_index = live[j].position;
        r.sample = samples[live[j].position];
        trace.results.push_back(std::move(r));
        ++trace.exit_counts[t];
        ++trace.samples;
      } else {
        live[j].t = t + 1;
        keep.push_back(j);
      }
    }

    const auto compact_start = Clock::now();
    trace.decide_s += seconds_between(decide_start, compact_start);
    const std::size_t survivors = keep.size();
    if (survivors != live.size()) {
      for (std::size_t j = 0; j < survivors; ++j) {
        const std::size_t src = keep[j];
        live[j] = live[src];
        if (j != src) {
          std::copy(acc.data() + src * k, acc.data() + (src + 1) * k, acc.data() + j * k);
        }
      }
      live.resize(survivors);
      while (live.size() < batch && next < samples.size()) {
        keep.push_back(snn::Layer::kFreshRow);
        live.push_back({next++, 0});
      }
      hint_waiting();
      if (!live.empty()) {
        net.compact_inference_state(keep);
        acc.resize(live.size() * k);
        std::fill(acc.begin() + static_cast<std::ptrdiff_t>(survivors * k), acc.end(), 0.0);
      }
    }
    trace.compact_s += seconds_between(compact_start, Clock::now());
  }
  trace.wall_s += seconds_between(loop_start, Clock::now());
}

}  // namespace dtsnn::perfbench
