// Shared fixtures for the serving tests (test_fleet, test_serve): trained
// micro-models, one-model FleetModel/FleetRequest builders, the bitwise
// oracle comparison, and the gate/throwing exit policies that hold or
// poison a worker's pool deterministically.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>  // std::this_thread::sleep_for (gate pacing only)
#include <tuple>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/exit_policy.h"
#include "serve/fleet.h"

namespace dtsnn::serve::serve_test {

using core::InferenceRequest;
using core::InferenceResult;

/// Trained once per (dataset, timesteps, seed) and shared by every test in
/// this binary: serving never changes a network's trained state, and each
/// fleet hands its networks back at drain().
inline core::Experiment& micro_experiment(const std::string& dataset, std::size_t timesteps,
                                          std::uint64_t seed = 1) {
  static std::map<std::tuple<std::string, std::size_t, std::uint64_t>,
                  std::unique_ptr<core::Experiment>>
      trained;
  std::unique_ptr<core::Experiment>& e = trained[{dataset, timesteps, seed}];
  if (!e) {
    core::ExperimentSpec spec;
    spec.model = "vgg_micro";
    spec.dataset = dataset;
    spec.epochs = 1;
    spec.timesteps = timesteps;
    spec.data_scale = 0.05;
    spec.seed = seed;
    e = std::make_unique<core::Experiment>(core::run_experiment(spec));
  }
  return *e;
}

inline FleetModel model_for(core::Experiment& e, const core::ExitPolicy& policy,
                     std::size_t timesteps, std::size_t workers = 1,
                     std::size_t max_pool = 4, std::string name = "") {
  FleetModel m;
  m.name = std::move(name);
  m.network = &e.net;
  m.dataset = e.bundle.test.get();
  m.default_policy = &policy;
  m.max_timesteps = timesteps;
  m.workers = workers;
  if (workers > 1) m.make_replica = core::replica_factory(e);
  m.max_pool = max_pool;
  return m;
}

inline FleetRequest request_for(std::initializer_list<std::size_t> samples,
                         bool record_logits = false) {
  FleetRequest req;
  for (const std::size_t s : samples) req.request.samples.push_back(s);
  req.request.record_logits = record_logits;
  return req;
}

inline void expect_identical(const InferenceResult& served, const InferenceResult& oracle,
                      const std::string& context) {
  EXPECT_EQ(served.sample, oracle.sample) << context;
  EXPECT_EQ(served.predicted_class, oracle.predicted_class) << context;
  EXPECT_EQ(served.exit_timestep, oracle.exit_timestep) << context;
  EXPECT_EQ(served.final_entropy, oracle.final_entropy) << context;
  ASSERT_EQ(served.timestep_logits.shape(), oracle.timestep_logits.shape()) << context;
  for (std::size_t j = 0; j < served.timestep_logits.numel(); ++j) {
    ASSERT_EQ(served.timestep_logits[j], oracle.timestep_logits[j])
        << context << " logit " << j;
  }
}

/// Exit policy that parks the worker inside its first should_exit call
/// until released — the deterministic way to hold samples in the queue (or
/// the pool) while a test submits, cancels, or inspects stats. Exits every
/// sample once released (or never, with exit_on_release=false).
struct GatePolicy final : core::ExitPolicy {
  explicit GatePolicy(bool exit_after_release = true) : exit_on_release(exit_after_release) {}
  mutable std::atomic<bool> released{false};
  mutable std::atomic<bool> blocked{false};
  bool exit_on_release;

  void wait_until_blocked() const {
    while (!blocked.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  void release() const { released.store(true, std::memory_order_release); }

  [[nodiscard]] bool should_exit(std::span<const float>) const override {
    blocked.store(true, std::memory_order_release);
    while (!released.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return exit_on_release;
  }
  [[nodiscard]] std::string name() const override { return "gate"; }
};

/// Exit policy with a bug: throws on every consultation.
struct ThrowingPolicy final : core::ExitPolicy {
  [[nodiscard]] bool should_exit(std::span<const float>) const override {
    throw std::runtime_error("policy bug");
  }
  [[nodiscard]] std::string name() const override { return "throwing"; }
};

}  // namespace dtsnn::serve::serve_test
