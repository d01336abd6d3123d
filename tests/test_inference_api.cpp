// Unified inference API tests: the batched early-exit engine and the
// LivePool under it must be decision- and value-identical to the batch-1
// SequentialEngine (the reference oracle) on every dataset preset and exit
// policy, including ragged batches, all-exit-at-t=1 batches, per-request
// overrides, mixed per-row rules, mid-flight admission, dropped rows, pool
// resets, and the recorded per-timestep logits.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <tuple>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/exit_policy.h"
#include "core/inference.h"
#include "core/live_pool.h"
#include "test_helpers.h"

namespace dtsnn::core {
namespace {

Experiment micro_experiment(const std::string& dataset, std::size_t timesteps,
                            std::uint64_t seed = 1, const std::string& model = "vgg_micro") {
  ExperimentSpec spec;
  spec.model = model;
  spec.dataset = dataset;
  spec.epochs = 1;
  spec.timesteps = timesteps;
  spec.data_scale = 0.05;
  spec.seed = seed;
  return run_experiment(spec);
}

InferenceRequest first_n(std::size_t n, bool record_logits = false) {
  InferenceRequest request = InferenceRequest::first_n(n);
  request.record_logits = record_logits;
  return request;
}

/// Bitwise comparison of two engines' results on the same request.
void expect_identical(const std::vector<InferenceResult>& a,
                      const std::vector<InferenceResult>& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sample, b[i].sample) << context << " sample " << i;
    EXPECT_EQ(a[i].predicted_class, b[i].predicted_class) << context << " sample " << i;
    EXPECT_EQ(a[i].exit_timestep, b[i].exit_timestep) << context << " sample " << i;
    EXPECT_EQ(a[i].final_entropy, b[i].final_entropy) << context << " sample " << i;
    ASSERT_EQ(a[i].timestep_logits.shape(), b[i].timestep_logits.shape())
        << context << " sample " << i;
    for (std::size_t j = 0; j < a[i].timestep_logits.numel(); ++j) {
      ASSERT_EQ(a[i].timestep_logits[j], b[i].timestep_logits[j])
          << context << " sample " << i << " logit " << j;
    }
  }
}

/// The core acceptance property: BatchedSequentialEngine is bitwise
/// identical to batch-1 SequentialEngine — predictions, exit timesteps,
/// entropies, and the full cumulative-logit trajectories — on every dataset
/// preset and every model preset, for both shipped exit-policy families. It
/// runs at 1 to 4 OpenMP threads, so the engine steps the pool as 1 to 4
/// row windows of the one network, each on its own thread, and at batch 5,
/// 7 and 32 over 30 samples: 7 does not divide 30, 5 rows split 2/2/1 at 3
/// threads and 2/1/1/1 at 4, 30 rows 8/8/7/7 at 4. The uneven windows are
/// on purpose. The streamed order of every windowed run must also equal the
/// one-pool order of the 1-thread run.
TEST(BatchedEngine, BitwiseIdenticalToBatch1AcrossPresets) {
  std::vector<std::pair<std::string, std::string>> cases;  // (model, dataset)
  for (const std::string dataset : {"sync10", "sync100", "syntin", "syndvs"}) {
    cases.emplace_back("vgg_micro", dataset);
  }
  for (const std::string model : {"vgg_mini", "resnet_micro", "resnet_mini"}) {
    cases.emplace_back(model, "sync10");
  }
  for (const auto& [model, preset] : cases) {
    const std::size_t timesteps = preset == "syndvs" ? 5 : 3;
    Experiment e = micro_experiment(preset, timesteps, /*seed=*/1, model);
    const auto& ds = *e.bundle.test;
    const auto request = first_n(std::min<std::size_t>(30, ds.size()), true);

    const EntropyExitPolicy entropy(0.35);
    const MaxProbExitPolicy maxprob(0.6);
    for (const ExitPolicy* policy : {static_cast<const ExitPolicy*>(&entropy),
                                     static_cast<const ExitPolicy*>(&maxprob)}) {
      SequentialEngine batch1(e.net, *policy, timesteps);
      const auto a = batch1.run(ds, request);
      std::map<std::size_t, std::vector<std::size_t>> one_pool_order;  // by batch
      for (const int threads : {1, 2, 3, 4}) {
        const test::OmpThreads scoped(threads);
        for (const std::size_t batch : {5u, 7u, 32u}) {
          const std::string context = model + "/" + preset + "/" + policy->name() +
                                      " threads " + std::to_string(threads) + " batch " +
                                      std::to_string(batch);
          BatchedSequentialEngine batched(e.net, *policy, timesteps, batch);
          std::vector<std::size_t> order;
          std::vector<InferenceResult> b(a.size());
          batched.run_streaming(ds, request, [&](const InferenceResult& r) {
            order.push_back(r.request_index);
            b.at(r.request_index) = r;
          });
          expect_identical(a, b, context);
          const auto [first, fresh] = one_pool_order.try_emplace(batch, order);
          if (!fresh) {
            EXPECT_EQ(order, first->second) << context;
          }
        }
      }
    }
  }
}

TEST(BatchedEngine, WholeBatchExitsAtFirstTimestep) {
  Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  // theta > 1 exits every sample at t=1: each step exits the entire live
  // pool and refills it with fresh samples; timesteps beyond t=1 never run.
  const EntropyExitPolicy always(1.01);
  SequentialEngine batch1(e.net, always, 3);
  BatchedSequentialEngine batched(e.net, always, 3, /*batch_size=*/8);
  const auto request = first_n(std::min<std::size_t>(16, ds.size()));
  const auto a = batch1.run(ds, request);
  const auto b = batched.run(ds, request);
  expect_identical(a, b, "all-exit-at-1");
  for (const auto& r : b) EXPECT_EQ(r.exit_timestep, 1u);
}

TEST(BatchedEngine, PerRequestPolicyAndBudgetOverrides) {
  Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const EntropyExitPolicy engine_default(1.01);  // would exit everything at t=1
  BatchedSequentialEngine batched(e.net, engine_default, 3, /*batch_size=*/5);

  // Policy override: never exit -> every sample runs the full budget.
  const NeverExitPolicy never;
  InferenceRequest request = first_n(std::min<std::size_t>(11, ds.size()));
  request.policy = &never;
  for (const auto& r : batched.run(ds, request)) EXPECT_EQ(r.exit_timestep, 3u);

  // Budget override on top: forced exit moves to t=2.
  request.max_timesteps = 2;
  for (const auto& r : batched.run(ds, request)) EXPECT_EQ(r.exit_timestep, 2u);

  // The override must match a batch-1 engine built with those settings.
  SequentialEngine batch1(e.net, never, 2);
  expect_identical(batch1.run(ds, first_n(11)), batched.run(ds, request),
                   "override vs dedicated engine");
}

TEST(BatchedEngine, StreamsEachSampleExactlyOnce) {
  Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const EntropyExitPolicy policy(0.5);
  BatchedSequentialEngine batched(e.net, policy, 3, /*batch_size=*/4);
  const auto request = first_n(std::min<std::size_t>(10, ds.size()));

  std::vector<std::size_t> seen(request.samples.size(), 0);
  std::size_t emissions = 0;
  batched.run_streaming(ds, request, [&](const InferenceResult& r) {
    ++emissions;
    ASSERT_LT(r.request_index, seen.size());
    ++seen[r.request_index];
    EXPECT_EQ(r.sample, request.samples[r.request_index]);
    EXPECT_GE(r.exit_timestep, 1u);
    EXPECT_LE(r.exit_timestep, 3u);
  });
  EXPECT_EQ(emissions, request.samples.size());
  for (const std::size_t count : seen) EXPECT_EQ(count, 1u);

  // run() reorders into request order, also with duplicate samples.
  InferenceRequest dupes;
  dupes.samples = {3, 1, 3, 0};
  const auto results = batched.run(ds, dupes);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].request_index, i);
    EXPECT_EQ(results[i].sample, dupes.samples[i]);
  }
  EXPECT_EQ(results[0].predicted_class, results[2].predicted_class);
  EXPECT_EQ(results[0].final_entropy, results[2].final_entropy);
}

TEST(BatchedEngine, RecordedLogitsMatchPostHocRows) {
  Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const auto outputs = test_outputs(e, 3, /*limit=*/12);
  const EntropyExitPolicy policy(0.4);
  BatchedSequentialEngine batched(e.net, policy, 3, /*batch_size=*/5);
  const auto results = batched.run(ds, first_n(outputs.samples, true));
  for (const auto& r : results) {
    ASSERT_EQ(r.timestep_logits.dim(0), r.exit_timestep);
    ASSERT_EQ(r.timestep_logits.dim(1), outputs.classes);
    // The stepped cumulative-mean logits reproduce the recorded rows
    // outputs.at(t, i) bitwise (same accumulation, reciprocal-multiply
    // normalization).
    for (std::size_t t = 0; t < r.exit_timestep; ++t) {
      const auto row = outputs.at(t, r.sample);
      for (std::size_t c = 0; c < outputs.classes; ++c) {
        ASSERT_EQ(r.timestep_logits.at(t, c), row[c])
            << "sample " << r.sample << " t " << t;
      }
    }
  }
}

TEST(BatchedEngine, EmptyAndInvalidRequests) {
  Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const EntropyExitPolicy policy(0.3);
  BatchedSequentialEngine batched(e.net, policy, 3);

  // Explicitly empty streaming request: nothing to do, no throw.
  std::size_t emissions = 0;
  InferenceRequest empty;
  batched.run_streaming(ds, empty, [&](const InferenceResult&) { ++emissions; });
  EXPECT_EQ(emissions, 0u);

  // Out-of-range sample indices are rejected up front.
  InferenceRequest bad;
  bad.samples = {ds.size()};
  EXPECT_THROW(batched.run(ds, bad), std::out_of_range);

  // An empty request passed to run()/evaluate_engine expands to the whole
  // dataset.
  const DtsnnResult all = evaluate_engine(batched, ds);
  EXPECT_EQ(all.exit_timestep.size(), ds.size());
}

/// Sample indices are validated before any network work: a bad index at the
/// end of the request must fail the whole request up front (no partial
/// emissions), with the offending position in the message, on every engine.
TEST(RequestValidation, EnginesRejectBadIndicesBeforeRunningAnything) {
  Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const EntropyExitPolicy policy(0.35);

  SequentialEngine batch1(e.net, policy, 3);
  BatchedSequentialEngine batched(e.net, policy, 3, /*batch_size=*/4);

  InferenceRequest bad;
  bad.samples = {0, 1, ds.size()};  // valid prefix, invalid tail
  for (InferenceEngine* engine : {static_cast<InferenceEngine*>(&batch1),
                                  static_cast<InferenceEngine*>(&batched)}) {
    std::size_t emissions = 0;
    EXPECT_THROW(
        engine->run_streaming(ds, bad, [&](const InferenceResult&) { ++emissions; }),
        std::out_of_range)
        << engine->name();
    EXPECT_EQ(emissions, 0u) << engine->name() << " emitted before validating";
  }
  // The error message names the offending value and position.
  try {
    batch1.run(ds, bad);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find(std::to_string(ds.size())), std::string::npos) << what;
    EXPECT_NE(what.find("position 2"), std::string::npos) << what;
  }

  // validate_request_samples is also the duplicate detector for callers
  // that forbid duplicates (the serving admission path).
  const std::vector<std::size_t> dupes = {4, 2, 4};
  EXPECT_EQ(validate_request_samples(dupes, 10, "test"), 3u);
  EXPECT_THROW(std::ignore = validate_request_samples(dupes, 10, "test",
                                                      /*allow_duplicates=*/false),
               std::invalid_argument);
}

/// evaluate_engine aggregates exactly like the legacy post-hoc evaluator.
TEST(BatchedEngine, EvaluateEngineMatchesPostHocAggregation) {
  Experiment e = micro_experiment("sync10", 3);
  const auto outputs = test_outputs(e, 3);
  const EntropyExitPolicy policy(0.3);
  const DtsnnResult posthoc = evaluate_recorded(outputs, policy);

  BatchedSequentialEngine batched(e.net, policy, 3, /*batch_size=*/9);
  const DtsnnResult live = evaluate_engine(batched, *e.bundle.test);
  EXPECT_EQ(posthoc.exit_timestep, live.exit_timestep);
  EXPECT_EQ(posthoc.correct, live.correct);
  EXPECT_NEAR(posthoc.accuracy, live.accuracy, 1e-12);
  EXPECT_NEAR(posthoc.avg_timesteps, live.avg_timesteps, 1e-12);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(posthoc.timestep_histogram.count(t), live.timestep_histogram.count(t));
  }
}

// ------------------------------------------------------------------ LivePool

using Pool = LivePool<std::size_t>;  // payload: the sample index

/// Step `pool` once, filing each exit under its payload. Exits must leave
/// in batch-position order, which here is ascending admission order.
template <typename ForceExit>
std::vector<Pool::Exit> step_into(Pool& pool, const data::Dataset& ds,
                                  std::map<std::size_t, InferenceResult>& got,
                                  ForceExit&& force_exit) {
  std::vector<Pool::Exit> exits = pool.step(ds, force_exit);
  for (std::size_t i = 0; i < exits.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(exits[i].payload, exits[i - 1].payload) << "exit order";
    }
    if (exits[i].reason != ExitReason::kFailed) got[exits[i].payload] = exits[i].result;
  }
  return exits;
}

std::vector<Pool::Exit> step_into(Pool& pool, const data::Dataset& ds,
                                  std::map<std::size_t, InferenceResult>& got) {
  return step_into(pool, ds, got, [](std::size_t) { return false; });
}

/// The LivePool contract against the batch-1 oracle: rows with different
/// policies and budgets share one pool; admissions join mid-flight; the
/// caller's force-exit predicate reproduces the truncated oracle; a dropped
/// middle row leaves its neighbours bitwise untouched; a reset mid-flight
/// is followed by clean re-admission; a throwing policy fails only its own
/// row; and the window admits at most its capacity. The batch-1 oracles run
/// one-row sequences on the pool's network between its uses, so the pool
/// also checks that they leave its window's state in place (grow-only).
TEST(LivePool, MixedRulesAdmissionDropAndResetMatchOracle) {
  Experiment e = micro_experiment("sync10", 4);
  const auto& ds = *e.bundle.test;
  const EntropyExitPolicy entropy(0.35);
  const MaxProbExitPolicy maxprob(0.6);
  const NeverExitPolicy never;
  struct Rule {
    const ExitPolicy* policy;
    std::size_t budget;
  };
  const std::vector<Rule> rules = {
      {&entropy, 4}, {&maxprob, 3}, {&never, 2}, {&never, 4}, {&entropy, 1}};
  const std::size_t n = 15;
  ASSERT_GE(ds.size(), n);
  const std::size_t forced = 8;  // never/4: force-exited at its first step
  const auto rule_of = [&](std::size_t s) { return rules[s % rules.size()]; };
  const auto admission = [&](std::size_t s) {
    return PoolAdmission{.sample = s,
                         .policy = rule_of(s).policy,
                         .budget = rule_of(s).budget,
                         .record_logits = true};
  };
  const auto oracle = [&](std::size_t s, std::size_t budget) {
    SequentialEngine batch1(e.net, *rule_of(s).policy, budget);
    InferenceRequest one;
    one.samples.push_back(s);
    one.record_logits = true;
    return batch1.run(ds, one).at(0);
  };

  std::map<std::size_t, InferenceResult> got;
  const std::size_t capacity = 8;  // 5 + 3 mid-flight, sample 4 gone at t1
  e.net.begin_inference(capacity);
  Pool pool(e.net, 0, capacity);
  for (std::size_t s = 0; s < 5; ++s) pool.admit(admission(s), s);
  step_into(pool, ds, got);
  for (std::size_t s = 5; s < 8; ++s) pool.admit(admission(s), s);  // mid-flight
  step_into(pool, ds, got);

  // Sample 3 (never, budget 4) is resident with later admissions behind it.
  ASSERT_EQ(got.count(3), 0u);
  const std::vector<std::size_t> dropped =
      pool.drop_if([](std::size_t s) { return s == 3; });
  EXPECT_EQ(dropped, std::vector<std::size_t>{3});
  std::size_t next = 8;
  while (!pool.empty()) {
    for (; pool.size() < 6 && next < 12; ++next) pool.admit(admission(next), next);
    step_into(pool, ds, got, [&](std::size_t s) { return s == forced; });
  }
  EXPECT_EQ(got.count(3), 0u) << "a dropped row never exits";

  // Reset mid-flight: the rows still resident come back, then re-admit.
  for (std::size_t s = 12; s < n; ++s) pool.admit(admission(s), s);
  step_into(pool, ds, got);
  const std::vector<std::size_t> lost = pool.reset();
  EXPECT_TRUE(pool.empty());
  for (const std::size_t s : lost) {
    got.erase(s);
    pool.admit(admission(s), s);
  }
  while (!pool.empty()) step_into(pool, ds, got);

  for (std::size_t s = 0; s < n; ++s) {
    if (s == 3) continue;
    const std::size_t budget = s == forced ? 1 : rule_of(s).budget;
    ASSERT_EQ(got.count(s), 1u) << "sample " << s;
    expect_identical({got[s]}, {oracle(s, budget)}, "sample " + std::to_string(s));
  }

  // A throwing policy fails its own row only; its neighbour runs on.
  struct ThrowingPolicy final : ExitPolicy {
    [[nodiscard]] bool should_exit(std::span<const float>) const override {
      throw std::runtime_error("policy bug");
    }
    [[nodiscard]] std::string name() const override { return "throwing"; }
  };
  const ThrowingPolicy bad;
  got.clear();
  pool.admit({.sample = 0, .policy = &bad, .budget = 4}, 0);
  pool.admit(admission(1), 1);
  const std::vector<Pool::Exit> first = step_into(pool, ds, got);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first[0].payload, 0u);
  EXPECT_EQ(first[0].reason, ExitReason::kFailed);
  EXPECT_THROW(std::rethrow_exception(first[0].error), std::runtime_error);
  while (!pool.empty()) step_into(pool, ds, got);
  expect_identical({got.at(1)}, {oracle(1, rule_of(1).budget)}, "neighbour of a fault");

  EXPECT_THROW(pool.admit({.sample = 0, .policy = nullptr, .budget = 4}, 0),
               std::invalid_argument);
  EXPECT_THROW(pool.admit({.sample = 0, .policy = &never, .budget = 0}, 0),
               std::invalid_argument);
  // The window admits at most its capacity, and has at least one row.
  for (std::size_t s = 0; s < capacity; ++s) pool.admit(admission(s), s);
  EXPECT_THROW(pool.admit(admission(capacity), capacity), std::invalid_argument);
  EXPECT_EQ(pool.size(), capacity);
  EXPECT_THROW(Pool(e.net, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace dtsnn::core
