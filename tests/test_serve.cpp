// Single-model serving tests, run through a one-model ServingFleet. The
// load-bearing property is the bitwise identity contract: every served
// result — prediction, exit timestep, exit entropy, recorded
// cumulative-logit trajectory — equals the offline batch-1 SequentialEngine
// oracle under concurrent submission from multiple client threads and
// mid-flight admission into a busy pool. Plus the serving-only behaviors:
// deadline-forced exits (against the truncated oracle), drain-on-shutdown,
// submission-time validation, per-request overrides and streaming
// callbacks, fault isolation, and fleet stats. Multi-worker, multi-model,
// scheduler and tenant behaviors live in test_fleet.cpp.

#include <atomic>
#include <chrono>
#include <future>
#include <thread>  // std::this_thread::sleep_for (client pacing only)

#include <gtest/gtest.h>

#include "serve_test_support.h"
#include "util/thread.h"

namespace dtsnn::serve {
namespace {

using namespace serve_test;

/// Samples admitted into a half-busy pool mid-flight must neither perturb
/// residents nor be perturbed themselves: everyone matches the oracle.
TEST(SingleModelServing, MidFlightAdmissionPreservesIdentity) {
  core::Experiment& e = micro_experiment("sync10", 4);
  const auto& ds = *e.bundle.test;
  const std::size_t n = std::min<std::size_t>(12, ds.size());

  // Residents run the full budget (never exit), so late arrivals are
  // admitted into free slots while residents hold theirs across timesteps.
  const core::NeverExitPolicy never;
  core::SequentialEngine batch1(e.net, never, 4);
  InferenceRequest all = InferenceRequest::first_n(n);
  all.record_logits = true;
  const std::vector<InferenceResult> oracle = batch1.run(ds, all);

  const std::size_t max_pool = 8;  // residents occupy 3 slots; arrivals join the rest
  ServingFleet fleet({model_for(e, never, 4, 1, max_pool)});
  auto resident_future = fleet.submit(request_for({0, 1, 2}, true)).results;

  // Trickle in the rest while the pool is running.
  std::vector<std::future<std::vector<InferenceResult>>> later;
  for (std::size_t s = 3; s < n; ++s) {
    later.push_back(fleet.submit(request_for({s}, true)).results);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  fleet.drain();

  const std::vector<InferenceResult> resident_results = resident_future.get();
  ASSERT_EQ(resident_results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_identical(resident_results[i], oracle[i], "resident " + std::to_string(i));
    EXPECT_EQ(resident_results[i].exit_timestep, 4u);
  }
  for (std::size_t i = 0; i < later.size(); ++i) {
    const auto got = later[i].get();
    ASSERT_EQ(got.size(), 1u);
    expect_identical(got[0], oracle[3 + i], "arrival " + std::to_string(3 + i));
  }

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted_samples, n);
  EXPECT_EQ(stats.completed_samples, n);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.live_samples, 0u);
  EXPECT_GE(stats.peak_pool, 3u);
  EXPECT_LE(stats.peak_pool, max_pool);
  EXPECT_EQ(stats.exit_timesteps.total(), n);
  EXPECT_EQ(stats.exit_timesteps.count(3), n);  // everyone exits at t=4
  EXPECT_DOUBLE_EQ(stats.mean_exit_timestep, 4.0);
  EXPECT_EQ(stats.latency_us.count, n);
  EXPECT_GE(stats.latency_us.p99, stats.latency_us.p50);
}

/// An expired deadline forces exit at the first timestep boundary, with the
/// same quantities the truncated (budget-1) oracle reports — not a dropped
/// request.
TEST(SingleModelServing, DeadlineForcedExitMatchesTruncatedOracle) {
  core::Experiment& e = micro_experiment("sync10", 4);
  const auto& ds = *e.bundle.test;
  const std::size_t n = std::min<std::size_t>(6, ds.size());

  const core::NeverExitPolicy never;  // only the deadline can end these early
  core::SequentialEngine batch1(e.net, never, 4);
  InferenceRequest all = InferenceRequest::first_n(n);
  all.record_logits = true;
  all.max_timesteps = 1;  // the oracle for a deadline hit at t=1
  const std::vector<InferenceResult> oracle = batch1.run(ds, all);

  ServingFleet fleet({model_for(e, never, 4)});
  FleetRequest req;
  req.request = InferenceRequest::first_n(n);
  req.request.record_logits = true;
  req.deadline = ServeClock::now() - std::chrono::seconds(1);  // already past
  auto future = fleet.submit(std::move(req)).results;
  fleet.drain();

  const std::vector<InferenceResult> got = future.get();
  ASSERT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].exit_timestep, 1u);
    expect_identical(got[i], oracle[i], "deadline sample " + std::to_string(i));
  }
  EXPECT_EQ(fleet.stats().deadline_forced_exits, n);
}

/// Regression: a deadline landing exactly on the timestep-budget boundary
/// must report ONE consistent forced-exit reason. The decision order is
/// budget first, deadline only when the budget did not already claim the
/// exit — so an expired deadline on a budget-1 request counts as budget
/// exhaustion (deadline_forced_exits == 0), an expired deadline under a
/// larger budget counts as a deadline force, and in both cases the exit
/// histogram's total equals completed_samples exactly (never double
/// counted).
TEST(SingleModelServing, DeadlineOnBudgetBoundaryCountsOnce) {
  core::Experiment& e = micro_experiment("sync10", 4);
  const core::NeverExitPolicy never;
  for (const std::size_t budget : {std::size_t{1}, std::size_t{0}}) {
    ServingFleet fleet({model_for(e, never, 4)});
    FleetRequest req;
    req.request = InferenceRequest::first_n(3);
    req.request.max_timesteps = budget;  // 0: the model budget, room to run
    req.deadline = ServeClock::now() - std::chrono::seconds(1);
    fleet.submit(std::move(req)).results.get();
    fleet.drain();
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.completed_samples, 3u);
    EXPECT_EQ(stats.deadline_forced_exits, budget == 1 ? 0u : 3u)
        << "budget exhaustion owns the boundary exit";
    EXPECT_EQ(stats.exit_timesteps.total(), stats.completed_samples)
        << "one histogram entry per completion, never two";
    EXPECT_EQ(stats.exit_timesteps.count(0), 3u) << "a t=1 exit either way";
  }
}

TEST(SingleModelServing, DrainCompletesAcceptedWorkAndRejectsNew) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy policy(0.35);

  ServingFleet fleet({model_for(e, policy, 3)});
  std::vector<std::future<std::vector<InferenceResult>>> futures;
  const std::size_t n = std::min<std::size_t>(10, ds.size());
  for (std::size_t s = 0; s < n; ++s) {
    futures.push_back(fleet.submit(request_for({s})).results);
  }
  fleet.drain();

  // Every accepted sample completed; its future is ready, not abandoned.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().size(), 1u);
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.completed_samples, n);
  EXPECT_EQ(stats.queue_depth, 0u);

  EXPECT_THROW((void)fleet.submit(request_for({0})), std::runtime_error);
  fleet.drain();  // idempotent
}

/// The destructor alone drains gracefully: accepted work completes even if
/// the client never calls drain().
TEST(SingleModelServing, DestructorDrains) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy policy(0.35);
  const std::size_t n = std::min<std::size_t>(8, ds.size());
  std::future<std::vector<InferenceResult>> future;
  {
    ServingFleet fleet({model_for(e, policy, 3, 1, /*max_pool=*/2)});
    FleetRequest req;
    req.request = InferenceRequest::first_n(n);
    future = fleet.submit(std::move(req)).results;
  }
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(future.get().size(), n);
}

TEST(SingleModelServing, SubmitValidatesUpFront) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy policy(0.35);
  ServingFleet fleet({model_for(e, policy, 3)});

  FleetRequest out_of_range = request_for({0});
  out_of_range.request.samples.push_back(ds.size());
  EXPECT_THROW((void)fleet.submit(std::move(out_of_range)), std::out_of_range);

  EXPECT_THROW((void)fleet.submit(request_for({1, 2, 1})), std::invalid_argument);

  FleetRequest over_budget = request_for({0});
  over_budget.request.max_timesteps = 4;  // model budget is 3
  EXPECT_THROW((void)fleet.submit(std::move(over_budget)), std::invalid_argument);

  // Nothing was accepted by the rejected submissions.
  EXPECT_EQ(fleet.stats().submitted_samples, 0u);

  // An empty request expands to the whole dataset, like the offline run().
  EXPECT_EQ(fleet.submit(FleetRequest{}).results.get().size(), ds.size());
  fleet.drain();

  // Over an *empty* dataset the expansion stays empty: the future resolves
  // immediately with no results instead of hanging forever.
  data::ArrayDataset empty_ds(ds.frame_shape(), 1, ds.num_classes());
  FleetModel empty_model = model_for(e, policy, 3);
  empty_model.dataset = &empty_ds;
  ServingFleet empty_fleet({empty_model});
  EXPECT_EQ(empty_fleet.submit(FleetRequest{}).results.get().size(), 0u);
}

/// Per-request policy and budget overrides behave exactly as they do on the
/// offline engines, and streaming callbacks fire once per sample with the
/// right request mapping, before the future resolves.
TEST(SingleModelServing, OverridesAndStreamingCallbacks) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const std::size_t n = std::min<std::size_t>(9, ds.size());

  const core::NeverExitPolicy never;  // model default: run the full budget
  ServingFleet fleet({model_for(e, never, 3)});

  // Policy override: exit everything at t=1.
  const core::EntropyExitPolicy immediate(1.01);
  std::atomic<std::size_t> streamed{0};
  FleetRequest req;
  req.request = InferenceRequest::first_n(n);
  req.request.policy = &immediate;
  req.on_result = [&](const InferenceResult& r) {
    ++streamed;
    EXPECT_LT(r.request_index, n);
    EXPECT_EQ(r.sample, r.request_index);  // first_n maps position == sample
    EXPECT_EQ(r.exit_timestep, 1u);
  };
  const auto results = fleet.submit(std::move(req)).results.get();
  EXPECT_EQ(streamed.load(), n);
  ASSERT_EQ(results.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(results[i].request_index, i);
    EXPECT_EQ(results[i].exit_timestep, 1u);
  }

  // Budget override below the model budget: forced exit moves to t=2.
  FleetRequest shorter;
  shorter.request = InferenceRequest::first_n(n);
  shorter.request.max_timesteps = 2;
  for (const auto& r : fleet.submit(std::move(shorter)).results.get()) {
    EXPECT_EQ(r.exit_timestep, 2u);
  }
}

/// Concurrent multi-sample requests with mixed per-request policies resolve
/// independently and still match their respective oracles.
TEST(SingleModelServing, ConcurrentMixedPolicyRequests) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const std::size_t n = std::min<std::size_t>(16, ds.size());

  const core::EntropyExitPolicy tight(0.2);
  const core::EntropyExitPolicy loose(0.6);
  core::SequentialEngine batch1_tight(e.net, tight, 3);
  core::SequentialEngine batch1_loose(e.net, loose, 3);
  const auto oracle_tight = batch1_tight.run(ds, InferenceRequest::first_n(n));
  const auto oracle_loose = batch1_loose.run(ds, InferenceRequest::first_n(n));

  ServingFleet fleet({model_for(e, tight, 3, 1, /*max_pool=*/6)});
  std::vector<std::future<std::vector<InferenceResult>>> tight_futs(4), loose_futs(4);
  std::vector<util::Thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      // Each client submits one 4-sample tight request and one loose
      // override request over the same disjoint slice.
      FleetRequest a;
      FleetRequest b;
      for (std::size_t s = c * 4; s < c * 4 + 4 && s < n; ++s) {
        a.request.samples.push_back(s);
        b.request.samples.push_back(s);
      }
      tight_futs[c] = fleet.submit(std::move(a)).results;
      b.request.policy = &loose;
      loose_futs[c] = fleet.submit(std::move(b)).results;
    });
  }
  for (auto& t : clients) t.join();
  fleet.drain();

  for (std::size_t c = 0; c < 4; ++c) {
    const auto ta = tight_futs[c].get();
    const auto tb = loose_futs[c].get();
    for (std::size_t i = 0; i < ta.size(); ++i) {
      expect_identical(ta[i], oracle_tight[ta[i].sample], "tight");
      expect_identical(tb[i], oracle_loose[tb[i].sample], "loose");
    }
  }
}

/// A throwing user exit policy or result callback must not take the fleet
/// down: the affected request's future carries the exception, and the
/// fleet keeps serving later requests correctly.
TEST(SingleModelServing, WorkerExceptionFailsRequestNotFleet) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy good(0.35);
  core::SequentialEngine batch1(e.net, good, 3);
  const auto oracle = batch1.run(ds, InferenceRequest::first_n(4));

  ServingFleet fleet({model_for(e, good, 3)});
  const ThrowingPolicy bad;
  FleetRequest poisoned = request_for({0, 1});
  poisoned.request.policy = &bad;
  auto poisoned_future = fleet.submit(std::move(poisoned)).results;
  EXPECT_THROW(poisoned_future.get(), std::runtime_error);

  // The fleet survives and subsequent requests still match the oracle.
  for (std::size_t s = 0; s < 4; ++s) {
    const auto got = fleet.submit(request_for({s})).results.get();
    ASSERT_EQ(got.size(), 1u);
    expect_identical(got[0], oracle[s], "after worker failure");
  }

  // A throwing result callback fails only its own request the same way.
  FleetRequest bad_callback = request_for({5});
  bad_callback.on_result = [](const InferenceResult&) {
    throw std::runtime_error("callback bug");
  };
  auto cb_future = fleet.submit(std::move(bad_callback)).results;
  EXPECT_THROW(cb_future.get(), std::runtime_error);
  const auto after = fleet.submit(request_for({1})).results.get();
  expect_identical(after.at(0), oracle[1], "after callback failure");

  // At quiescence, completed + failed partition the submitted samples:
  // discarded work of failed requests never counts as completed. (Checked
  // after drain — the worker publishes stats after resolving the futures.)
  fleet.drain();
  const FleetStats final_stats = fleet.stats();
  EXPECT_EQ(final_stats.submitted_samples, 8u);
  EXPECT_EQ(final_stats.completed_samples, 5u);
  EXPECT_EQ(final_stats.failed_samples, 3u);  // 2 policy-poisoned + 1 callback
  EXPECT_EQ(final_stats.exit_timesteps.total(), final_stats.completed_samples);
}

/// The exit policy is consulted for exactly the same cum rows as on the
/// batch-1 oracle: never at the budget-exhaustion step (short-circuit
/// parity), so a policy only defined below the budget behaves identically.
TEST(SingleModelServing, PolicyConsultedOnlyBelowBudget) {
  struct CountingPolicy final : core::ExitPolicy {
    mutable std::atomic<std::size_t> calls{0};
    [[nodiscard]] bool should_exit(std::span<const float>) const override {
      ++calls;
      return false;
    }
    [[nodiscard]] std::string name() const override { return "counting"; }
  };

  core::Experiment& e = micro_experiment("sync10", 3);
  const CountingPolicy counting;
  {
    ServingFleet fleet({model_for(e, counting, 3)});
    FleetRequest req;
    req.request = InferenceRequest::first_n(5);
    fleet.submit(std::move(req)).results.get();
  }
  // 5 samples x budget 3: consulted at t=1 and t=2, never at the forced
  // exit — exactly what SequentialEngine does.
  EXPECT_EQ(counting.calls.load(), 10u);
}

}  // namespace
}  // namespace dtsnn::serve
