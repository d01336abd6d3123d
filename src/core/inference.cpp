#include "core/inference.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "core/engine.h"
#include "core/entropy.h"
#include "core/live_pool.h"
#include "data/prefetch.h"
#include "util/gemm.h"
#include "util/math.h"

namespace dtsnn::core {

std::string InferenceEngine::gemm_backend() const {
  return std::string(util::GemmContext::global().backend().name());
}

std::size_t validate_request_samples(std::span<const std::size_t> samples,
                                     std::size_t num_samples, const std::string& who,
                                     bool allow_duplicates) {
  std::unordered_set<std::size_t> seen;
  if (!allow_duplicates) seen.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i] >= num_samples) {
      throw std::out_of_range(who + ": sample index " + std::to_string(samples[i]) +
                              " at request position " + std::to_string(i) +
                              " out of range (sample limit " +
                              std::to_string(num_samples) + ")");
    }
    if (!allow_duplicates && !seen.insert(samples[i]).second) {
      throw std::invalid_argument(who + ": duplicate sample index " +
                                  std::to_string(samples[i]) + " at request position " +
                                  std::to_string(i));
    }
  }
  return samples.size();
}

InferenceResult make_exit_result(std::span<const float> cum, std::size_t t,
                                 bool record_logits, std::vector<float>& history) {
  InferenceResult r;
  r.exit_timestep = t + 1;
  r.predicted_class = util::argmax(cum);
  r.final_entropy = entropy_of_logits(cum);
  if (record_logits) {
    r.timestep_logits = snn::Tensor({t + 1, cum.size()}, std::move(history));
  }
  history.clear();
  return r;
}

InferenceRequest InferenceRequest::first_n(std::size_t n) {
  InferenceRequest request;
  request.samples.resize(n);
  std::iota(request.samples.begin(), request.samples.end(), 0);
  return request;
}

std::vector<InferenceResult> InferenceEngine::run(const data::Dataset& dataset,
                                                  const InferenceRequest& request) {
  InferenceRequest req = request;
  if (req.samples.empty()) {
    req.samples.resize(dataset.size());
    std::iota(req.samples.begin(), req.samples.end(), 0);
  }
  std::vector<InferenceResult> results(req.samples.size());
  std::vector<unsigned char> seen(req.samples.size(), 0);
  run_streaming(dataset, req, [&](const InferenceResult& r) {
    results.at(r.request_index) = r;
    seen.at(r.request_index) = 1;
  });
  for (const unsigned char s : seen) {
    if (!s) throw std::logic_error(name() + ": engine dropped a requested sample");
  }
  return results;
}

DtsnnResult evaluate_engine(InferenceEngine& engine, const data::Dataset& dataset,
                            const InferenceRequest& request) {
  const std::size_t budget =
      request.max_timesteps ? request.max_timesteps : engine.max_timesteps();
  const std::vector<InferenceResult> results = engine.run(dataset, request);

  DtsnnResult out;
  out.timestep_histogram = util::Histogram(std::max<std::size_t>(budget, 1));
  out.exit_timestep.resize(results.size());
  out.correct.resize(results.size());
  std::size_t correct = 0;
  double total_t = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const InferenceResult& r = results[i];
    const bool ok =
        r.predicted_class == static_cast<std::size_t>(dataset.label(r.sample));
    out.exit_timestep[i] = r.exit_timestep;
    out.correct[i] = ok;
    out.timestep_histogram.add(r.exit_timestep - 1);
    correct += ok;
    total_t += static_cast<double>(r.exit_timestep);
  }
  const double n = static_cast<double>(results.size());
  out.accuracy = results.empty() ? 0.0 : static_cast<double>(correct) / n;
  out.avg_timesteps = results.empty() ? 0.0 : total_t / n;
  return out;
}

// -------------------------------------------------- BatchedSequentialEngine

BatchedSequentialEngine::BatchedSequentialEngine(snn::SpikingNetwork& net,
                                                 const ExitPolicy& policy,
                                                 std::size_t max_timesteps,
                                                 std::size_t batch_size)
    : net_(net), policy_(policy), max_timesteps_(max_timesteps),
      batch_size_(batch_size) {
  if (max_timesteps_ == 0) {
    throw std::invalid_argument("BatchedSequentialEngine: max_timesteps == 0");
  }
  if (batch_size_ == 0) {
    throw std::invalid_argument("BatchedSequentialEngine: batch_size == 0");
  }
}

void BatchedSequentialEngine::run_streaming(const data::Dataset& dataset,
                                            const InferenceRequest& request,
                                            const ResultSink& sink) {
  const PoolAdmission rule{.policy = request.policy ? request.policy : &policy_,
                           .budget = request.max_timesteps ? request.max_timesteps
                                                           : max_timesteps_,
                           .record_logits = request.record_logits};
  const std::size_t n_samples = validate_request_samples(
      request.samples, dataset.size(), "BatchedSequentialEngine");
  if (n_samples == 0) return;

  // Continuous batching: a live pool of up to batch_size_ samples, each at
  // its own timestep; every exit's slot is refilled with the next waiting
  // sample (in request order) before the next step, so every step runs as
  // full as the remaining work allows. The payload is the request position.
  LivePool<std::size_t> pool(net_);
  std::size_t next = 0;  // next request position awaiting admission

  // Background lookahead over the *waiting tail*: while the pool steps, the
  // prefetcher warms the shards of the samples that will be admitted into
  // freed slots next, so a refill's first write_frame hits a resident shard
  // instead of stalling the whole pool on a load. Inactive (zero cost) for
  // in-memory datasets or DTSNN_PREFETCH_DEPTH=0.
  data::ShardPrefetcher prefetcher(dataset);
  std::size_t hinted = 0;
  const auto refill = [&]() {
    for (; pool.size() < batch_size_ && next < n_samples; ++next) {
      PoolAdmission admission = rule;
      admission.sample = request.samples[next];
      pool.admit(admission, next);
    }
    if (!prefetcher.active()) return;
    const std::size_t horizon =
        std::min(n_samples, next + batch_size_ * prefetcher.depth());
    hinted = std::max(hinted, next);
    if (hinted >= horizon) return;
    prefetcher.enqueue(
        std::span<const std::size_t>(request.samples).subspan(hinted, horizon - hinted));
    hinted = horizon;
  };

  refill();
  while (!pool.empty()) {
    for (LivePool<std::size_t>::Exit& exit : pool.step(dataset)) {
      if (exit.reason == ExitReason::kFailed) std::rethrow_exception(exit.error);
      exit.result.request_index = exit.payload;
      sink(exit.result);
    }
    refill();
  }
}

}  // namespace dtsnn::core
