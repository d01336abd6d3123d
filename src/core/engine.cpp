#include "core/engine.h"

#include <atomic>
#include <cassert>
#include <exception>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/entropy.h"
#include "snn/loss.h"
#include "snn/serialize.h"
#include "util/math.h"

namespace dtsnn::core {

std::span<const float> TimestepOutputs::at(std::size_t t, std::size_t i) const {
  assert(t < timesteps && i < samples);
  return {cum_logits.data() + (t * samples + i) * classes, classes};
}

std::size_t evaluation_threads() {
#ifdef _OPENMP
  return static_cast<std::size_t>(std::max(1, omp_get_max_threads()));
#else
  return 1;
#endif
}

namespace {

/// Index of the calling thread within the enclosing OpenMP team (0 outside
/// a parallel region and without OpenMP).
std::size_t worker_index() {
#ifdef _OPENMP
  return static_cast<std::size_t>(omp_get_thread_num());
#else
  return 0;
#endif
}

/// Carries an exception out of an OpenMP loop: one escaping a parallel
/// region calls std::terminate. Keeps the exception of the lowest loop
/// index, so the rethrown error does not depend on thread scheduling.
class LoopError {
 public:
  void capture(std::size_t index) {
#pragma omp critical(dtsnn_loop_error)
    if (index < index_) {
      index_ = index;
      error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }
  /// True once any iteration has failed (remaining work may be skipped).
  [[nodiscard]] bool failed() const { return failed_.load(std::memory_order_relaxed); }
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::size_t index_ = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
};

/// Runs one encoded chunk through `net` and scatters cumulative-mean logits
/// and labels into `out` at row offset `start`. Writes only rows of this
/// chunk, so disjoint chunks can be processed concurrently on separate
/// networks.
void record_batch(snn::SpikingNetwork& net, const snn::EncodedBatch& batch,
                  TimestepOutputs& out, std::size_t start) {
  const std::size_t k = out.classes;
  const std::size_t n = out.samples;
  const std::size_t b = batch.labels.size();

  snn::Tensor logits = net.forward(batch.x, out.timesteps, /*train=*/false);
  snn::Tensor cum = snn::cumulative_mean_logits(logits, out.timesteps);
  for (std::size_t t = 0; t < out.timesteps; ++t) {
    for (std::size_t i = 0; i < b; ++i) {
      const float* src = cum.data() + (t * b + i) * k;
      float* dst = out.cum_logits.data() + (t * n + start + i) * k;
      std::copy(src, src + k, dst);
    }
  }
  for (std::size_t i = 0; i < b; ++i) out.labels[start + i] = batch.labels[i];
}

TimestepOutputs make_outputs(std::size_t timesteps, std::size_t n, std::size_t k) {
  TimestepOutputs out;
  out.timesteps = timesteps;
  out.samples = n;
  out.classes = k;
  out.cum_logits = snn::Tensor({timesteps * n, k});
  out.labels.resize(n);
  return out;
}

}  // namespace

TimestepOutputs collect_outputs(snn::SpikingNetwork& net, const data::Dataset& dataset,
                                std::size_t timesteps, std::size_t batch_size,
                                std::size_t limit, const NetworkFactory& make_replica,
                                std::size_t num_threads) {
  if (batch_size == 0) throw std::invalid_argument("collect_outputs: batch_size == 0");
  if (timesteps == 0) throw std::invalid_argument("collect_outputs: timesteps == 0");
  const std::size_t n = limit ? std::min(limit, dataset.size()) : dataset.size();
  const std::size_t num_batches = (n + batch_size - 1) / batch_size;
  std::size_t threads = make_replica ? (num_threads ? num_threads : evaluation_threads()) : 1;
  threads = std::min(threads, std::max<std::size_t>(num_batches, 1));
#ifndef _OPENMP
  threads = 1;
#endif
  TimestepOutputs out = make_outputs(timesteps, n, net.num_classes());

  // Worker replicas are stamped out serially (the factory and the source
  // network need not be thread-safe); thread 0 reuses the caller's network.
  std::vector<std::unique_ptr<snn::SpikingNetwork>> replicas;
  for (std::size_t i = 1; i < threads; ++i) {
    auto replica = std::make_unique<snn::SpikingNetwork>(make_replica());
    snn::copy_network_state(net, *replica);
    replicas.push_back(std::move(replica));
  }

  // Streaming iteration: each worker holds one encoded chunk at a time, so
  // recording works against datasets larger than RAM.
  LoopError error;
#pragma omp parallel num_threads(static_cast<int>(threads))
  {
    const std::size_t tid = worker_index();
    snn::SpikingNetwork& worker = tid == 0 ? net : *replicas[tid - 1];
#pragma omp for schedule(dynamic)
    for (std::size_t batch = 0; batch < num_batches; ++batch) {
      if (error.failed()) continue;
      try {
        const std::size_t start = batch * batch_size;
        const std::size_t b = std::min(batch_size, n - start);
        std::vector<std::size_t> indices(b);
        std::iota(indices.begin(), indices.end(), start);
        record_batch(worker, data::materialize_batch(dataset, indices, timesteps), out,
                     start);
      } catch (...) {
        error.capture(batch);
      }
    }
  }
  error.rethrow();
  return out;
}

double static_accuracy(const TimestepOutputs& outputs, std::size_t t) {
  if (t == 0 || t > outputs.timesteps) {
    throw std::invalid_argument("static_accuracy: t out of range");
  }
  std::size_t correct = 0;
  for (std::size_t i = 0; i < outputs.samples; ++i) {
    const auto logits = outputs.at(t - 1, i);
    if (util::argmax(logits) == static_cast<std::size_t>(outputs.labels[i])) ++correct;
  }
  return outputs.samples
             ? static_cast<double>(correct) / static_cast<double>(outputs.samples)
             : 0.0;
}

std::vector<double> accuracy_per_timestep(const TimestepOutputs& outputs) {
  std::vector<double> acc(outputs.timesteps);
  for (std::size_t t = 1; t <= outputs.timesteps; ++t) {
    acc[t - 1] = static_accuracy(outputs, t);
  }
  return acc;
}

namespace {

/// The one Eq. 8 replay loop over recorded outputs: per-sample exit
/// decisions are made by `choose_exit(i)` (called concurrently when OpenMP
/// is available); accuracy, histogram and averages are accumulated serially
/// afterwards, in sample order. An exception from `choose_exit` is rethrown
/// after the loop (the one of the lowest sample index).
template <typename ChooseExit>
DtsnnResult replay_exits(const TimestepOutputs& outputs, ChooseExit&& choose_exit) {
  DtsnnResult result;
  result.timestep_histogram = util::Histogram(outputs.timesteps);
  result.exit_timestep.resize(outputs.samples);
  result.correct.resize(outputs.samples);

  // Per-sample scratch: exit_timestep rows are disjoint, but vector<bool> is
  // bit-packed, so correctness flags go through a byte buffer.
  std::vector<unsigned char> ok(outputs.samples, 0);
  LoopError error;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < outputs.samples; ++i) {
    try {
      const std::size_t chosen = choose_exit(i);
      const auto logits = outputs.at(chosen - 1, i);
      result.exit_timestep[i] = chosen;
      ok[i] = util::argmax(logits) == static_cast<std::size_t>(outputs.labels[i]) ? 1 : 0;
    } catch (...) {
      error.capture(i);
    }
  }
  error.rethrow();

  std::size_t correct = 0;
  double total_t = 0.0;
  for (std::size_t i = 0; i < outputs.samples; ++i) {
    result.correct[i] = ok[i] != 0;
    result.timestep_histogram.add(result.exit_timestep[i] - 1);
    correct += ok[i];
    total_t += static_cast<double>(result.exit_timestep[i]);
  }
  const double n = static_cast<double>(outputs.samples);
  result.accuracy = outputs.samples ? static_cast<double>(correct) / n : 0.0;
  result.avg_timesteps = outputs.samples ? total_t / n : 0.0;
  return result;
}

}  // namespace

std::vector<double> entropy_table(const TimestepOutputs& outputs) {
  const std::size_t rows = outputs.timesteps * outputs.samples;
  std::vector<double> table(rows);
#pragma omp parallel for schedule(static)
  for (std::size_t r = 0; r < rows; ++r) {
    table[r] = entropy_of_logits(
        {outputs.cum_logits.data() + r * outputs.classes, outputs.classes});
  }
  return table;
}

DtsnnResult evaluate_dtsnn_with_table(const TimestepOutputs& outputs,
                                      std::span<const double> entropies, double theta) {
  if (entropies.size() != outputs.timesteps * outputs.samples) {
    throw std::invalid_argument("evaluate_dtsnn_with_table: entropy table size mismatch");
  }
  return replay_exits(outputs, [&](std::size_t i) {
    for (std::size_t t = 0; t + 1 < outputs.timesteps; ++t) {
      if (entropies[t * outputs.samples + i] < theta) return t + 1;
    }
    return outputs.timesteps;
  });
}

DtsnnResult evaluate_recorded(const TimestepOutputs& outputs, const ExitPolicy& policy) {
  if (outputs.timesteps == 0) {
    throw std::invalid_argument("evaluate_recorded: recording has no timesteps");
  }
  return replay_exits(outputs, [&](std::size_t i) {
    for (std::size_t t = 0; t + 1 < outputs.timesteps; ++t) {
      if (policy.should_exit(outputs.at(t, i))) return t + 1;
    }
    return outputs.timesteps;
  });
}

// ------------------------------------------------------------ backend names

std::string SequentialEngine::gemm_backend() const {
  return std::string(net_.gemm_context().backend().name());
}

std::string BatchedSequentialEngine::gemm_backend() const {
  return std::string(net_.gemm_context().backend().name());
}

// ---------------------------------------------------------- SequentialEngine

SequentialEngine::SequentialEngine(snn::SpikingNetwork& net, const ExitPolicy& policy,
                                   std::size_t max_timesteps)
    : net_(net), policy_(policy), max_timesteps_(max_timesteps) {
  if (max_timesteps_ == 0) {
    throw std::invalid_argument("SequentialEngine: max_timesteps == 0");
  }
}

InferenceResult SequentialEngine::infer_one(const data::Dataset& dataset,
                                            std::size_t sample, const ExitPolicy& policy,
                                            std::size_t budget, bool record_logits) {
  const snn::Shape fs = dataset.frame_shape();
  const std::size_t frame_numel = snn::shape_numel(fs);
  const std::size_t k = net_.num_classes();

  net_.begin_inference(/*batch=*/1);
  std::vector<double> acc(k, 0.0);
  std::vector<float> cum(k);
  std::vector<float> history;
  InferenceResult result;
  result.sample = sample;
  // Frames are encoded lazily, one timestep at a time, so an early exit
  // skips the encoding of the remaining timesteps as well.
  snn::Tensor frame({1, fs[0], fs[1], fs[2]});
  for (std::size_t t = 0; t < budget; ++t) {
    dataset.write_frame(sample, t, {frame.data(), frame_numel});
    snn::Tensor y = net_.step(frame);
    snn::cumulative_mean_step(y.data(), acc.data(), cum.data(), k, t);
    if (record_logits) history.insert(history.end(), cum.begin(), cum.end());
    if (t + 1 == budget || policy.should_exit(cum)) {
      result = make_exit_result(cum, t, record_logits, history);
      result.sample = sample;
      break;
    }
  }
  return result;
}

void SequentialEngine::run_streaming(const data::Dataset& dataset,
                                     const InferenceRequest& request,
                                     const ResultSink& sink) {
  const ExitPolicy& policy = request.policy ? *request.policy : policy_;
  const std::size_t budget = request.max_timesteps ? request.max_timesteps : max_timesteps_;
  const std::size_t n =
      validate_request_samples(request.samples, dataset.size(), "SequentialEngine");
  for (std::size_t i = 0; i < n; ++i) {
    InferenceResult r =
        infer_one(dataset, request.samples[i], policy, budget, request.record_logits);
    r.request_index = i;
    sink(r);
  }
}

}  // namespace dtsnn::core
