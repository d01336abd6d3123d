// ServingFleet tests. The load-bearing property is the bitwise identity
// contract: every served result — prediction, exit timestep, exit entropy,
// recorded cumulative-logit trajectory — equals the offline batch-1
// SequentialEngine oracle, on every dataset preset and both shipped policy
// families, under one or several worker pools on copy_network_state
// replicas, multi-model routing, scheduler policies, tenant quotas,
// cancellation and concurrent client threads. Schedulers and quotas reorder
// admission; they must never change what a sample computes. Plus fault
// isolation inside a shared pool. The one-model serving behaviors
// (mid-flight admission, deadlines, drain, validation, overrides) live in
// test_serve.cpp.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>  // setenv/unsetenv (scheduler knob test)
#include <future>
#include <memory>
#include <thread>  // std::this_thread::sleep_for (gate and client pacing only)

#include <gtest/gtest.h>

#include "serve_test_support.h"
#include "util/sync.h"
#include "util/thread.h"

namespace dtsnn::serve {
namespace {

using namespace serve_test;

/// Headline acceptance bar: with one and with TWO worker pools per model
/// (replica via copy_network_state) and 4 concurrent client threads, every
/// served result is bitwise identical to the batch-1 oracle, on all four
/// dataset presets under both shipped policy families. The pools are
/// smaller than the request count, so admission churns constantly.
TEST(ServingFleet, FleetBitwiseIdenticalToOracleAcrossPresets) {
  for (const std::string preset : {"sync10", "sync100", "syntin", "syndvs"}) {
    const std::size_t timesteps = preset == "syndvs" ? 5 : 3;
    core::Experiment& e = micro_experiment(preset, timesteps);
    const auto& ds = *e.bundle.test;
    const std::size_t n = std::min<std::size_t>(24, ds.size());

    const core::EntropyExitPolicy entropy(0.35);
    const core::MaxProbExitPolicy maxprob(0.6);
    for (const core::ExitPolicy* policy :
         {static_cast<const core::ExitPolicy*>(&entropy),
          static_cast<const core::ExitPolicy*>(&maxprob)}) {
      core::SequentialEngine batch1(e.net, *policy, timesteps);
      InferenceRequest all = InferenceRequest::first_n(n);
      all.record_logits = true;
      const std::vector<InferenceResult> oracle = batch1.run(ds, all);

      for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
        const std::string context =
            preset + "/" + policy->name() + "/workers" + std::to_string(workers);
        std::vector<std::future<std::vector<InferenceResult>>> futures(n);
        {
          ServingFleet fleet({model_for(e, *policy, timesteps, workers, /*max_pool=*/3)});
          constexpr std::size_t kClients = 4;
          std::vector<util::Thread> clients;
          for (std::size_t c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
              for (std::size_t s = c; s < n; s += kClients) {
                futures[s] =
                    fleet.submit(request_for({s}, /*record_logits=*/true)).results;
              }
            });
          }
          for (auto& t : clients) t.join();
          fleet.drain();
          const FleetStats stats = fleet.stats();
          EXPECT_EQ(stats.completed_samples, n) << context;
          EXPECT_EQ(stats.failed_samples, 0u) << context;
        }
        for (std::size_t s = 0; s < n; ++s) {
          const std::vector<InferenceResult> got = futures[s].get();
          ASSERT_EQ(got.size(), 1u) << context;
          expect_identical(got[0], oracle[s], context + " sample " + std::to_string(s));
        }
      }
    }
  }
}

/// A policy fault is the request's own: a request whose exit policy throws,
/// sharing one worker's pool with well-behaved requests, fails alone. Its
/// co-residents keep stepping and match the oracle bitwise, the second
/// worker keeps serving, and every tenant's counters settle.
TEST(ServingFleet, PolicyFaultFailsOnlyItsOwnRequestInASharedPool) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy good(0.35);
  const ThrowingPolicy bad;
  const std::size_t pool = 7;  // 2 poisoned + 5 well-behaved samples
  const std::size_t n = 2 * pool;
  ASSERT_GE(ds.size(), n);
  core::SequentialEngine batch1(e.net, good, 3);
  InferenceRequest all = InferenceRequest::first_n(n);
  all.record_logits = true;
  const auto oracle = batch1.run(ds, all);

  // An idle worker holds its first arrivals until its pool would launch
  // full, so the first `pool` samples submitted share one pool.
  FleetConfig config;
  config.admission_window = std::chrono::seconds(2);
  config.tenants = {TenantSpec{.name = "mixed", .weight = 1.0}};
  ServingFleet fleet({model_for(e, good, 3, /*workers=*/2, pool)}, config);

  FleetRequest poisoned = request_for({0, 1}, true);
  poisoned.request.policy = &bad;
  poisoned.tenant = 1;
  auto poisoned_future = fleet.submit(std::move(poisoned)).results;
  std::vector<std::future<std::vector<InferenceResult>>> futures;
  for (std::size_t s = 2; s < n; ++s) {
    // The second pool's worth arrives after the first launched.
    if (s == pool) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    FleetRequest req = request_for({s}, true);
    req.tenant = s % 2 == 0 ? kDefaultTenant : TenantId{1};
    futures.push_back(fleet.submit(std::move(req)).results);
  }
  EXPECT_THROW(poisoned_future.get(), std::runtime_error);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const std::vector<InferenceResult> got = futures[i].get();
    ASSERT_EQ(got.size(), 1u);
    expect_identical(got[0], oracle[i + 2], "co-resident sample " + std::to_string(i + 2));
  }
  fleet.drain();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.failed_samples, 2u);
  EXPECT_EQ(stats.completed_samples, n - 2);
  EXPECT_GE(stats.peak_pool, pool) << "the poisoned request never shared a pool";
  for (const TenantStats& t : stats.tenants) {
    EXPECT_EQ(t.queue_depth, 0u) << t.name;
    EXPECT_EQ(t.in_flight, 0u) << t.name;
    EXPECT_EQ(t.completed_samples + t.failed_samples + t.cancelled_queued_samples +
                  t.cancelled_live_samples,
              t.submitted_samples)
        << t.name;
  }
}

/// Reads `inner`, except that encoding any frame of the poisoned samples
/// throws, as a corrupt shard would.
class FaultyFramesDataset final : public data::Dataset {
 public:
  FaultyFramesDataset(const data::Dataset& inner, std::vector<std::size_t> poisoned)
      : inner_(inner), poisoned_(std::move(poisoned)) {}
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] std::size_t num_classes() const override { return inner_.num_classes(); }
  [[nodiscard]] snn::Shape frame_shape() const override { return inner_.frame_shape(); }
  [[nodiscard]] int label(std::size_t sample) const override { return inner_.label(sample); }
  [[nodiscard]] double difficulty(std::size_t sample) const override {
    return inner_.difficulty(sample);
  }
  [[nodiscard]] std::size_t native_frames() const override { return inner_.native_frames(); }
  void write_frame(std::size_t sample, std::size_t t, std::span<float> dst) const override {
    if (std::find(poisoned_.begin(), poisoned_.end(), sample) != poisoned_.end()) {
      throw std::runtime_error("corrupt frame of sample " + std::to_string(sample));
    }
    inner_.write_frame(sample, t, dst);
  }

 private:
  const data::Dataset& inner_;
  std::vector<std::size_t> poisoned_;
};

/// An encode fault is the request's own too: a request whose frames fail to
/// encode, sharing one worker's pool with well-behaved requests, fails
/// alone. Its co-residents keep stepping and match the oracle bitwise, and
/// every tenant's quota counters settle: a tenant capped at one sample in
/// flight gets its slot back from the failed request.
TEST(ServingFleet, EncodeFaultFailsOnlyItsOwnRequestInASharedPool) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const FaultyFramesDataset faulty(*e.bundle.test, {0, 1});
  const core::EntropyExitPolicy good(0.35);
  const std::size_t pool = 7;  // 2 poisoned + 5 well-behaved samples
  ASSERT_GE(faulty.size(), pool);
  core::SequentialEngine batch1(e.net, good, 3);
  InferenceRequest all = InferenceRequest::first_n(pool);
  all.record_logits = true;
  const auto oracle = batch1.run(*e.bundle.test, all);

  // An idle worker holds its first arrivals until its pool would launch
  // full, so all `pool` samples share one pool.
  FleetConfig config;
  config.admission_window = std::chrono::seconds(2);
  config.tenants = {TenantSpec{.name = "mixed", .weight = 1.0}};
  FleetModel model = model_for(e, good, 3, /*workers=*/1, pool);
  model.dataset = &faulty;
  ServingFleet fleet({model}, config);

  FleetRequest poisoned = request_for({0, 1}, true);
  poisoned.tenant = 1;
  auto poisoned_future = fleet.submit(std::move(poisoned)).results;
  std::vector<std::future<std::vector<InferenceResult>>> futures;
  for (std::size_t s = 2; s < pool; ++s) {
    FleetRequest req = request_for({s}, true);
    req.tenant = s % 2 == 0 ? kDefaultTenant : TenantId{1};
    futures.push_back(fleet.submit(std::move(req)).results);
  }
  EXPECT_THROW(poisoned_future.get(), std::runtime_error);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const std::vector<InferenceResult> got = futures[i].get();
    ASSERT_EQ(got.size(), 1u);
    expect_identical(got[0], oracle[i + 2], "co-resident sample " + std::to_string(i + 2));
  }
  fleet.drain();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.failed_samples, 2u);
  EXPECT_EQ(stats.completed_samples, pool - 2);
  EXPECT_GE(stats.peak_pool, pool) << "the poisoned request never shared a pool";
  for (const TenantStats& t : stats.tenants) {
    EXPECT_EQ(t.queue_depth, 0u) << t.name;
    EXPECT_EQ(t.in_flight, 0u) << t.name;
    EXPECT_EQ(t.failed_samples, t.name == "mixed" ? 2u : 0u) << t.name;
    EXPECT_EQ(t.completed_samples + t.failed_samples + t.cancelled_queued_samples +
                  t.cancelled_live_samples,
              t.submitted_samples)
        << t.name;
  }

  // Quota release on a fault: a tenant allowed one sample in flight, whose
  // request fails on its frame encode, gets its slot back, so its next,
  // clean request is admitted without a drain and matches the oracle.
  FleetConfig capped_config;
  capped_config.tenants = {TenantSpec{.name = "capped", .max_in_flight = 1}};
  ServingFleet capped({model}, capped_config);
  FleetRequest bad = request_for({0}, true);
  bad.tenant = 1;
  auto bad_future = capped.submit(std::move(bad)).results;
  FleetRequest clean = request_for({2}, true);
  clean.tenant = 1;
  Submission clean_submission = capped.submit(std::move(clean));
  const bool admitted = clean_submission.results.wait_for(std::chrono::seconds(30)) ==
                        std::future_status::ready;
  if (!admitted) capped.cancel(clean_submission.handle);  // else drain() never returns
  ASSERT_TRUE(admitted) << "the failed request kept its tenant's quota";
  EXPECT_THROW(bad_future.get(), std::runtime_error);
  const std::vector<InferenceResult> got = clean_submission.results.get();
  ASSERT_EQ(got.size(), 1u);
  expect_identical(got[0], oracle[2], "the capped tenant's clean request");
  capped.drain();
  const TenantStats capped_stats = capped.stats().tenants.at(1);
  EXPECT_EQ(capped_stats.failed_samples, 1u);
  EXPECT_EQ(capped_stats.completed_samples, 1u);
  EXPECT_EQ(capped_stats.in_flight, 0u);
}

/// Multi-model serving: two different trained networks resident at once,
/// requests routed by model name, each served bitwise identical to its OWN
/// model's oracle. An unknown model name is rejected loudly.
TEST(ServingFleet, MultiModelRoutingMatchesEachModelsOwnOracle) {
  const std::size_t timesteps = 3;
  core::Experiment& ea = micro_experiment("sync10", timesteps, /*seed=*/1);
  core::Experiment& eb = micro_experiment("sync10", timesteps, /*seed=*/7);
  const core::EntropyExitPolicy policy(0.35);
  const std::size_t n = std::min<std::size_t>(12, ea.bundle.test->size());

  InferenceRequest all = InferenceRequest::first_n(n);
  all.record_logits = true;
  core::SequentialEngine oracle_a(ea.net, policy, timesteps);
  const std::vector<InferenceResult> oracle_alpha = oracle_a.run(*ea.bundle.test, all);
  core::SequentialEngine oracle_b(eb.net, policy, timesteps);
  const std::vector<InferenceResult> oracle_beta = oracle_b.run(*eb.bundle.test, all);
  // The two models genuinely disagree somewhere (different training seeds),
  // otherwise routing correctness would be unobservable.
  bool differ = false;
  for (std::size_t s = 0; s < n && !differ; ++s) {
    differ = oracle_alpha[s].final_entropy != oracle_beta[s].final_entropy;
  }
  ASSERT_TRUE(differ);

  std::vector<std::future<std::vector<InferenceResult>>> fa(n), fb(n);
  {
    ServingFleet fleet({model_for(ea, policy, timesteps, 1, 4, "alpha"),
                        model_for(eb, policy, timesteps, 1, 4, "beta")});
    EXPECT_EQ(fleet.num_models(), 2u);
    EXPECT_EQ(fleet.model_index("beta"), 1u);
    EXPECT_THROW((void)fleet.submit([] {
                   FleetRequest r;
                   r.request.samples.push_back(0);
                   r.model = "gamma";
                   return r;
                 }()),
                 std::invalid_argument);
    for (std::size_t s = 0; s < n; ++s) {
      FleetRequest ra = request_for({s}, true);
      ra.model = "alpha";
      fa[s] = fleet.submit(std::move(ra)).results;
      FleetRequest rb = request_for({s}, true);
      rb.model = "beta";
      fb[s] = fleet.submit(std::move(rb)).results;
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    expect_identical(fa[s].get().at(0), oracle_alpha[s], "alpha " + std::to_string(s));
    expect_identical(fb[s].get().at(0), oracle_beta[s], "beta " + std::to_string(s));
  }
}

/// cancel() on a fully queued request: its samples never enter a pool, the
/// future fails with CancelledError, and the removal is reported as
/// cancelled_queued (distinct from completions and failures).
TEST(ServingFleet, CancelPurgesQueuedRequestAndFailsFuture) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const GatePolicy gate;
  {
    ServingFleet fleet({model_for(e, gate, 3, 1, /*max_pool=*/1)});
    Submission warm = fleet.submit(request_for({0}));
    gate.wait_until_blocked();  // pool slot occupied; everything else queues
    Submission victim = fleet.submit(request_for({1, 2}));
    EXPECT_TRUE(fleet.cancel(victim.handle));
    EXPECT_FALSE(fleet.cancel(victim.handle)) << "cancel is idempotent";
    EXPECT_FALSE(fleet.cancel(RequestHandle{9999}));
    EXPECT_THROW(victim.results.get(), CancelledError);
    gate.release();
    warm.results.get();
    fleet.drain();
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.cancelled_requests, 1u);
    EXPECT_EQ(stats.cancelled_queued_samples, 2u);
    EXPECT_EQ(stats.cancelled_live_samples, 0u);
    EXPECT_EQ(stats.completed_samples, 1u);
    EXPECT_EQ(stats.failed_samples, 0u);
    EXPECT_EQ(stats.tenants[0].cancelled_queued_samples, 2u);
  }
}

/// cancel() on a resident request: its samples force-exit at the next
/// timestep boundary (the pool slots are reclaimed without delivering
/// results), reported as cancelled_live.
TEST(ServingFleet, CancelForceExitsResidentSamplesAtNextBoundary) {
  core::Experiment& e = micro_experiment("sync10", 4);
  const GatePolicy gate(/*exit_on_release=*/false);  // residents would keep running
  {
    ServingFleet fleet({model_for(e, gate, 4, 1, /*max_pool=*/2)});
    Submission victim = fleet.submit(request_for({0, 1}));
    gate.wait_until_blocked();  // both samples resident, parked in decision
    EXPECT_TRUE(fleet.cancel(victim.handle));
    EXPECT_THROW(victim.results.get(), CancelledError);
    gate.release();  // decision completes; next boundary purges the slots
    fleet.drain();
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.cancelled_requests, 1u);
    EXPECT_EQ(stats.cancelled_live_samples, 2u);
    EXPECT_EQ(stats.cancelled_queued_samples, 0u);
    EXPECT_EQ(stats.completed_samples, 0u);
    EXPECT_EQ(stats.failed_samples, 0u);
    EXPECT_EQ(stats.live_samples, 0u);
  }
}

/// cancel() after the request fully completed returns false and counts
/// nothing.
TEST(ServingFleet, CancelAfterCompletionIsANoOp) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const core::EntropyExitPolicy policy(0.35);
  ServingFleet fleet({model_for(e, policy, 3)});
  Submission sub = fleet.submit(request_for({0, 1}));
  EXPECT_NE(sub.handle.id, 0u);
  sub.results.get();
  EXPECT_FALSE(fleet.cancel(sub.handle));
  fleet.drain();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.cancelled_requests, 0u);
  EXPECT_EQ(stats.cancelled_queued_samples, 0u);
  EXPECT_EQ(stats.cancelled_live_samples, 0u);
  EXPECT_EQ(stats.completed_samples, 2u);
}

/// Tenant max_queued quota: the over-quota tenant's submission bounces with
/// the typed TenantQuotaError (distinct from the global queue-full
/// runtime_error) while other tenants keep submitting freely.
TEST(ServingFleet, TenantMaxQueuedQuotaRejectsLoudly) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const GatePolicy gate;
  FleetConfig config;
  config.tenants = {TenantSpec{.name = "bulk", .weight = 1.0, .max_queued = 2}};
  {
    ServingFleet fleet({model_for(e, gate, 3, 1, /*max_pool=*/1)}, config);
    Submission warm = fleet.submit(request_for({0}));
    gate.wait_until_blocked();
    FleetRequest ok = request_for({1, 2});
    ok.tenant = 1;
    Submission queued = fleet.submit(std::move(ok));
    FleetRequest over = request_for({3});
    over.tenant = 1;
    try {
      (void)fleet.submit(std::move(over));
      FAIL() << "expected TenantQuotaError";
    } catch (const TenantQuotaError& err) {
      EXPECT_EQ(err.tenant(), 1u);
      EXPECT_NE(std::string(err.what()).find("bulk"), std::string::npos);
    }
    // The default tenant is not throttled by bulk's quota.
    Submission other = fleet.submit(request_for({3}));
    gate.release();
    warm.results.get();
    queued.results.get();
    other.results.get();
    fleet.drain();
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.rejected_requests, 1u);
    ASSERT_EQ(stats.tenants.size(), 2u);
    EXPECT_EQ(stats.tenants[1].name, "bulk");
    EXPECT_EQ(stats.tenants[1].rejected_requests, 1u);
    EXPECT_EQ(stats.tenants[1].completed_samples, 2u);
    EXPECT_EQ(stats.completed_samples, 4u);
  }
}

/// Tenant max_in_flight quota: with the pool far larger than the cap, the
/// tenant never occupies more than max_in_flight slots at once; excess
/// samples wait in the queue and everything still completes.
TEST(ServingFleet, TenantMaxInFlightCapsPoolOccupancy) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const GatePolicy gate;
  FleetConfig config;
  config.tenants = {TenantSpec{.name = "bulk", .weight = 1.0, .max_in_flight = 1}};
  {
    ServingFleet fleet({model_for(e, gate, 3, 1, /*max_pool=*/4)}, config);
    FleetRequest req = request_for({0, 1, 2});
    req.tenant = 1;
    Submission sub = fleet.submit(std::move(req));
    gate.wait_until_blocked();  // one sample admitted, parked in decision
    const FleetStats mid = fleet.stats();
    EXPECT_EQ(mid.tenants[1].in_flight, 1u);
    EXPECT_EQ(mid.live_samples, 1u);
    EXPECT_EQ(mid.queue_depth, 2u);
    gate.release();
    sub.results.get();
    fleet.drain();
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.completed_samples, 3u);
    EXPECT_EQ(stats.peak_pool, 1u) << "quota must cap admission, not just queueing";
  }
}

/// EDF admits by absolute deadline: with the single pool slot held, three
/// queued requests (late deadline, early deadline, none) are served
/// earliest-deadline-first, deadline-free traffic last.
TEST(ServingFleet, EdfSchedulerAdmitsEarliestDeadlineFirst) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const GatePolicy gate;
  FleetConfig config;
  config.scheduler = "edf";
  std::vector<std::size_t> completion_order;
  util::Mutex order_mu;
  {
    ServingFleet fleet({model_for(e, gate, 3, 1, /*max_pool=*/1)}, config);
    EXPECT_EQ(fleet.scheduler_kind(), SchedulerKind::kEdf);
    Submission warm = fleet.submit(request_for({0}));
    gate.wait_until_blocked();

    const auto far = ServeClock::now() + std::chrono::hours(2);
    const auto near = ServeClock::now() + std::chrono::hours(1);
    auto tagged = [&](std::size_t sample,
                      std::optional<ServeClock::time_point> deadline) {
      FleetRequest r = request_for({sample});
      r.request.max_timesteps = 1;  // decided at the first boundary
      r.deadline = deadline;
      r.on_result = [&](const InferenceResult& res) {
        util::MutexLock lk(order_mu);
        completion_order.push_back(res.sample);
      };
      return fleet.submit(std::move(r)).results;
    };
    auto f_late = tagged(1, far);
    auto f_none = tagged(2, std::nullopt);
    auto f_early = tagged(3, near);
    gate.release();
    warm.results.get();
    f_late.get();
    f_none.get();
    f_early.get();
    fleet.drain();
  }
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], 3u) << "earliest deadline first";
  EXPECT_EQ(completion_order[1], 1u) << "later deadline second";
  EXPECT_EQ(completion_order[2], 2u) << "deadline-free last";
}

/// Weighted-fair queuing: a weight-3 tenant and a weight-1 tenant, both
/// backlogged behind one pool slot, are admitted in the 3:1 virtual-time
/// interleaving (FIFO within each tenant) — the bulk tenant saturates its
/// share without starving the other.
TEST(ServingFleet, WeightedFairInterleavesTenantsByWeight) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const GatePolicy gate;
  FleetConfig config;
  config.scheduler = "weighted_fair";
  config.tenants = {TenantSpec{.name = "heavy", .weight = 3.0},
                    TenantSpec{.name = "light", .weight = 1.0}};
  std::vector<TenantId> admit_order;
  util::Mutex order_mu;
  {
    ServingFleet fleet({model_for(e, gate, 3, 1, /*max_pool=*/1)}, config);
    EXPECT_EQ(fleet.scheduler_kind(), SchedulerKind::kWeightedFair);
    Submission warm = fleet.submit(request_for({0}));
    gate.wait_until_blocked();

    std::vector<std::future<std::vector<InferenceResult>>> futures;
    auto enqueue = [&](std::size_t sample, TenantId tenant) {
      FleetRequest r = request_for({sample});
      r.request.max_timesteps = 1;
      r.tenant = tenant;
      r.on_result = [&fleet_order = admit_order, &order_mu, tenant](const InferenceResult&) {
        util::MutexLock lk(order_mu);
        fleet_order.push_back(tenant);
      };
      futures.push_back(fleet.submit(std::move(r)).results);
    };
    // 6 heavy samples, then 2 light ones — submission order must not
    // matter beyond FIFO within a tenant.
    for (std::size_t s = 1; s <= 6; ++s) enqueue(s, 1);
    enqueue(7, 2);
    enqueue(8, 2);
    gate.release();
    warm.results.get();
    for (auto& f : futures) f.get();
    fleet.drain();
  }
  // Virtual time: heavy pays 1/3 per admission, light pays 1; ties go to
  // the lower tenant id. Heavy, light, then heavy×3, light, heavy×2.
  const std::vector<TenantId> expected = {1, 2, 1, 1, 1, 2, 1, 1};
  EXPECT_EQ(admit_order, expected);
}

/// The DTSNN_SERVE_SCHEDULER env knob picks the policy when the config is
/// silent, an explicit config wins over the env, and a malformed value
/// throws at construction naming the variable.
TEST(ServingFleet, SchedulerEnvKnobResolvesAndValidates) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const core::EntropyExitPolicy policy(0.35);

  ASSERT_EQ(setenv("DTSNN_SERVE_SCHEDULER", "edf", 1), 0);
  {
    ServingFleet fleet({model_for(e, policy, 3)});
    EXPECT_EQ(fleet.scheduler_kind(), SchedulerKind::kEdf);
  }
  {
    FleetConfig config;
    config.scheduler = "weighted_fair";  // explicit config beats the env
    ServingFleet fleet({model_for(e, policy, 3)}, config);
    EXPECT_EQ(fleet.scheduler_kind(), SchedulerKind::kWeightedFair);
  }
  ASSERT_EQ(setenv("DTSNN_SERVE_SCHEDULER", "sjf", 1), 0);
  try {
    ServingFleet fleet({model_for(e, policy, 3)});
    FAIL() << "expected invalid_argument for unknown scheduler";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("DTSNN_SERVE_SCHEDULER"), std::string::npos);
  }
  ASSERT_EQ(unsetenv("DTSNN_SERVE_SCHEDULER"), 0);
  {
    ServingFleet fleet({model_for(e, policy, 3)});
    EXPECT_EQ(fleet.scheduler_kind(), SchedulerKind::kFifo) << "unset means fifo";
  }
}

/// Scheduler policies are order-only: the same request set served under
/// fifo, edf, and weighted_fair yields bitwise identical per-sample
/// results (here pinned against each other and the oracle).
TEST(ServingFleet, SchedulerPoliciesPreserveBitwiseIdentity) {
  const std::size_t timesteps = 3;
  core::Experiment& e = micro_experiment("sync10", timesteps);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy policy(0.35);
  const std::size_t n = std::min<std::size_t>(12, ds.size());

  core::SequentialEngine batch1(e.net, policy, timesteps);
  InferenceRequest all = InferenceRequest::first_n(n);
  all.record_logits = true;
  const std::vector<InferenceResult> oracle = batch1.run(ds, all);

  for (const std::string scheduler : {"fifo", "edf", "weighted_fair"}) {
    FleetConfig config;
    config.scheduler = scheduler;
    std::vector<std::future<std::vector<InferenceResult>>> futures(n);
    {
      ServingFleet fleet({model_for(e, policy, timesteps, 1, /*max_pool=*/3)}, config);
      for (std::size_t s = 0; s < n; ++s) {
        FleetRequest r = request_for({s}, true);
        if (s % 2 == 0) r.deadline = ServeClock::now() + std::chrono::hours(1);
        futures[s] = fleet.submit(std::move(r)).results;
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      expect_identical(futures[s].get().at(0), oracle[s],
                       scheduler + " sample " + std::to_string(s));
    }
  }
}

/// Construction-time validation is loud and typed.
TEST(ServingFleet, ConstructionValidatesModelsAndConfig) {
  core::Experiment& e = micro_experiment("sync10", 3);
  const core::EntropyExitPolicy policy(0.35);
  EXPECT_THROW(ServingFleet({}, {}), std::invalid_argument);
  {
    FleetModel m = model_for(e, policy, 3);
    m.max_timesteps = 0;
    EXPECT_THROW(ServingFleet({std::move(m)}), std::invalid_argument);
  }
  {
    FleetModel m = model_for(e, policy, 3);
    m.max_pool = 0;
    EXPECT_THROW(ServingFleet({std::move(m)}), std::invalid_argument);
  }
  {
    FleetModel m = model_for(e, policy, 3);
    m.workers = 2;  // no replica factory
    m.make_replica = nullptr;
    EXPECT_THROW(ServingFleet({std::move(m)}), std::invalid_argument);
  }
  for (const char* backend : {"no_such_backend", "int8_lut"}) {
    // Unknown (and retired) backend names fail with the registry's
    // invalid_argument, naming the backend.
    FleetModel m = model_for(e, policy, 3);
    m.gemm_backend = backend;
    try {
      ServingFleet fleet({std::move(m)});
      ADD_FAILURE() << backend << " must be rejected at construction";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find(backend), std::string::npos) << err.what();
    }
  }
  {
    EXPECT_THROW(ServingFleet({model_for(e, policy, 3, 1, 4, "dup"),
                               model_for(e, policy, 3, 1, 4, "dup")}),
                 std::invalid_argument);
  }
  {
    FleetConfig config;
    config.scheduler = "lifo";
    EXPECT_THROW(ServingFleet({model_for(e, policy, 3)}, config),
                 std::invalid_argument);
  }
  {
    FleetConfig config;
    config.tenants = {TenantSpec{.name = "bad", .weight = 0.0}};
    EXPECT_THROW(ServingFleet({model_for(e, policy, 3)}, config),
                 std::invalid_argument);
  }
  {
    FleetRequest r = request_for({0});
    r.tenant = 42;
    ServingFleet fleet({model_for(e, policy, 3)});
    EXPECT_THROW((void)fleet.submit(std::move(r)), std::invalid_argument);
  }
}

}  // namespace
}  // namespace dtsnn::serve
