#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/entropy.h"
#include "core/live_pool.h"
#include "snn/loss.h"
#include "snn/serialize.h"
#include "util/math.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

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

/// Size of the enclosing OpenMP team (1 outside a parallel region and
/// without OpenMP). A region can get fewer threads than it asked for
/// (OMP_THREAD_LIMIT, OMP_DYNAMIC); the pools past the team then stay empty.
std::size_t team_size() {
#ifdef _OPENMP
  return static_cast<std::size_t>(omp_get_num_threads());
#else
  return 1;
#endif
}

/// Carries an exception out of an OpenMP loop: one escaping a parallel
/// region calls std::terminate. Keeps the exception of the lowest loop
/// index, so the rethrown error does not depend on thread scheduling.
class LoopError {
 public:
  /// Records the exception being handled as the failure of `index`.
  void capture(std::size_t index) { capture(index, std::current_exception()); }
  void capture(std::size_t index, std::exception_ptr error) {
#pragma omp critical(dtsnn_loop_error)
    if (index < index_) {
      index_ = index;
      error_ = std::move(error);
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

/// Hands results from producer threads to one consumer thread.
class Outbox {
 public:
  /// Moves `result` in for the consumer.
  void post(InferenceResult& result) DTSNN_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    ready_.push_back(std::move(result));
    cv_.notify_one();
  }
  /// A producer is done posting.
  void close() DTSNN_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    ++closed_;
    cv_.notify_one();
  }
  /// Replaces `out` with the posted results. With `wait`, first blocks
  /// until there is one or all `producers` have closed. Returns false once
  /// they all have, when nothing more will come.
  bool take(std::vector<InferenceResult>& out, bool wait, std::size_t producers)
      DTSNN_EXCLUDES(mu_) {
    out.clear();
    util::MutexLock lock(mu_);
    while (wait && ready_.empty() && closed_ < producers) cv_.wait(lock);
    std::swap(out, ready_);
    return closed_ < producers || !out.empty();
  }

 private:
  util::Mutex mu_;
  util::CondVar cv_;
  std::vector<InferenceResult> ready_ DTSNN_GUARDED_BY(mu_);
  std::size_t closed_ DTSNN_GUARDED_BY(mu_) = 0;
};

/// Puts exits that arrive in any order into the order one live pool of
/// `capacity` rows emits them: (exit step, batch position), where each
/// step's survivors keep their order and the next request positions fill
/// the freed rows. That order is a function of the positions' exit
/// timesteps alone, so it does not depend on which thread stepped a row or
/// when. A step is released once every row live in it has arrived.
class PoolOrder {
 public:
  PoolOrder(std::size_t capacity, std::size_t positions)
      : capacity_(capacity), positions_(positions) {
    live_.reserve(capacity);
  }

  /// Holds `result` (request_index set) until its turn.
  void arrive(InferenceResult& result) {
    const std::size_t position = result.request_index;
    held_.emplace(position, std::move(result));
  }

  /// Hands every held result whose turn has come to `emit`, in order.
  template <typename Emit>
  void release(const Emit& emit) {
    for (;;) {
      while (live_.size() < capacity_ && next_ < positions_) {
        live_.push_back({next_++, 0, held_.end()});
      }
      if (live_.empty()) return;
      for (Row& row : live_) {
        if (row.result != held_.end()) continue;
        row.result = held_.find(row.position);
        if (row.result == held_.end()) return;
      }
      std::size_t kept = 0;
      for (Row& row : live_) {
        if (++row.steps < row.result->second.exit_timestep) {
          live_[kept++] = row;
          continue;
        }
        emit(row.result->second);
        held_.erase(row.result);
      }
      live_.resize(kept);
    }
  }

  /// Hands the results still held to `emit` in request-position order. Only
  /// a failed run leaves any: a position that failed or was never admitted
  /// never arrives and holds back its step.
  template <typename Emit>
  void flush(const Emit& emit) {
    for (auto& [position, result] : held_) emit(result);
    held_.clear();
  }

 private:
  using Held = std::map<std::size_t, InferenceResult>;
  struct Row {
    std::size_t position;
    std::size_t steps;      ///< steps the row has run in this order
    Held::iterator result;  ///< held_.end() until it arrives
  };

  std::size_t capacity_;
  std::size_t positions_;
  std::size_t next_ = 0;  ///< the next request position to admit
  Held held_;
  std::vector<Row> live_;
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
  const std::size_t rows = std::min(batch_size_, n_samples);
#ifdef _OPENMP
  const std::size_t windows =
      omp_in_parallel() ? 1 : std::min(evaluation_threads(), rows);
#else
  const std::size_t windows = 1;
#endif

  // Continuous batching: each pool holds up to its capacity of samples,
  // each at its own timestep; every exit's slot is refilled with the next
  // waiting request position before the next step, so every step runs as
  // full as the remaining work allows. The payload is the request position.
  // A failure (a throwing exit policy or frame encode, a network fault, a
  // throwing sink) stops admissions; the rows already admitted step on, and
  // the lowest failing position's error is rethrown at the end.
  std::atomic<std::size_t> next{0};
  LoopError error;
  const auto deliver = [&](InferenceResult& result) {
    try {
      sink(result);
    } catch (...) {
      error.capture(result.request_index);
    }
  };
  // Steps `pool` until it drains and no position is left to admit, handing
  // each exit to `emit` and calling `between_steps` after every step.
  const auto drive = [&](LivePool<std::size_t>& pool, const auto& emit,
                         const auto& between_steps) {
    for (;;) {
      while (pool.size() < pool.capacity() && !error.failed()) {
        const std::size_t position = next.fetch_add(1, std::memory_order_relaxed);
        if (position >= n_samples) break;
        PoolAdmission admission = rule;
        admission.sample = request.samples[position];
        pool.admit(admission, position);
      }
      if (pool.empty()) return;
      std::vector<LivePool<std::size_t>::Exit> exits;
      try {
        exits = pool.step(dataset);
      } catch (...) {
        const std::vector<std::size_t> lost = pool.reset();
        error.capture(*std::min_element(lost.begin(), lost.end()));
        continue;
      }
      for (LivePool<std::size_t>::Exit& exit : exits) {
        if (exit.reason == ExitReason::kFailed) {
          error.capture(exit.payload, exit.error);
          continue;
        }
        exit.result.request_index = exit.payload;
        emit(exit.result);
      }
      between_steps();
    }
  };

  // Pool w steps row window w of the one network, whose step state is sized
  // here, on the calling thread.
  net_.begin_inference(rows);
  std::vector<LivePool<std::size_t>> pools;
  pools.reserve(windows);
  for (std::size_t w = 0, offset = 0; w < windows; ++w) {
    const std::size_t capacity = rows / windows + (w < rows % windows ? 1 : 0);
    pools.emplace_back(net_, offset, capacity);
    offset += capacity;
  }
  if (windows == 1) {
    drive(pools[0], deliver, [] {});
  } else {
    // One OpenMP region per request: thread w steps its own pool, with no
    // barrier against the others. The calling thread, thread 0, also collects
    // the other windows' exits between its own steps and delivers every exit
    // in the order one pool of `rows` rows emits them (PoolOrder), so the
    // sink runs on it alone and sees the same sequence at every W.
    Outbox outbox;
    PoolOrder order(rows, n_samples);
    const auto arrive = [&](InferenceResult& result) { order.arrive(result); };
#pragma omp parallel num_threads(static_cast<int>(windows))
    {
      const std::size_t w = worker_index();
      if (w == 0) {
        std::vector<InferenceResult> posted;
        const auto deliver_posted = [&](bool wait) {
          const bool open = outbox.take(posted, wait, team_size() - 1);
          for (InferenceResult& result : posted) order.arrive(result);
          order.release(deliver);
          return open;
        };
        drive(pools[0], arrive, [&] { deliver_posted(false); });
        while (deliver_posted(true)) {
        }
      } else {
        drive(pools[w], [&](InferenceResult& result) { outbox.post(result); }, [] {});
        outbox.close();
      }
    }
    order.flush(deliver);
  }
  error.rethrow();
}

}  // namespace dtsnn::core
