// Serving-fleet bench: the exit threshold and the scheduler policies under
// seeded arrival traces.
//
// Part 1, theta sweep: a one-model, one-worker fleet (pool of 8) replays a
// seeded Poisson trace of paired arrivals once per entropy threshold and
// reports end-to-end latency p50/p95/p99/p99.9, queue wait, throughput,
// accuracy and mean exit timestep — the serving-side view of the paper's
// accuracy/latency trade: lower theta = more timesteps = higher latency.
//
// Part 2, schedulers: a serve::ServingFleet (two worker pools over
// copy_network_state replicas, one admission queue) replays a seeded
// two-class trace — a deadline-bound
// "interactive" Poisson stream and a bursty no-deadline "bulk" stream
// (util::make_arrival_trace multi-class overload; the workload shape never
// touches wall-clock randomness). The same trace is replayed once per
// scheduler policy (fifo / edf / weighted_fair) and the bench reports, per
// class and per policy, end-to-end latency p50/p99/p99.9 and the
// deadline-miss rate — the SLO view the scheduler subsystem is graded on:
// EDF should cut the interactive class's miss rate relative to FIFO by
// admitting urgent work ahead of queued bulk bursts.
//
// A decision-identity hard gate re-runs every served sample through the
// offline batch-1 SequentialEngine oracle. Samples that exited at the
// oracle's timestep must match it bitwise (prediction, exit timestep, exit
// entropy). A deadline-forced sample legitimately exits *earlier*; it is
// compared against the oracle truncated to the observed exit timestep,
// which must reproduce the decision exactly (the forced exit reports the
// same quantities a budget exhaustion would at that boundary). Any other
// divergence fails the bench: scheduler policy, tenant mix, worker count,
// and arrival order must never change a decision. The gate covers both
// parts.
//
// BENCH_serving_fleet.json carries per-theta sweep blocks, per-policy-per-
// class percentile and miss-rate blocks, the identity gate, and the
// edf-vs-fifo headline.

#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "serve/fleet.h"
#include "util/arrival_trace.h"
#include "util/gemm.h"

using namespace dtsnn;

namespace {

constexpr std::size_t kInteractive = 0;  ///< trace class / report row
constexpr std::size_t kBulk = 1;
const char* const kClassName[2] = {"interactive", "bulk"};

struct FleetRun {
  serve::FleetStats stats;
  std::vector<core::InferenceResult> results;  ///< one per arrival, trace order
  double wall_seconds = 0.0;
  double throughput_sps = 0.0;
  double accuracy = 0.0;
};

/// Replay `trace` against a fresh one-model fleet of `workers` pools of
/// `max_pool` slots under scheduler `policy_name`.
FleetRun replay_trace(core::Experiment& e, const data::Dataset& ds,
                      const core::ExitPolicy& policy, std::size_t timesteps,
                      const std::vector<util::ClassedArrival>& trace,
                      const std::string& policy_name, std::size_t workers,
                      std::size_t max_pool) {
  serve::FleetModel model;
  model.name = "primary";
  model.network = &e.net;
  model.dataset = &ds;
  model.default_policy = &policy;
  model.max_timesteps = timesteps;
  model.workers = workers;
  if (workers > 1) model.make_replica = core::replica_factory(e);
  model.max_pool = max_pool;

  serve::FleetConfig config;
  config.scheduler = policy_name;
  config.max_queue = trace.size() + 16;          // saturation must not reject
  config.latency_window = trace.size() + 16;     // digest the whole replay
  config.tenants.push_back({.name = "interactive", .weight = 4.0});
  config.tenants.push_back({.name = "bulk", .weight = 1.0});

  FleetRun run;
  std::vector<std::future<std::vector<core::InferenceResult>>> futures;
  futures.reserve(trace.size());

  const auto t0 = serve::ServeClock::now();
  {
    serve::ServingFleet fleet({std::move(model)}, config);
    for (const util::ClassedArrival& a : trace) {
      std::this_thread::sleep_until(t0 + std::chrono::microseconds(a.offset_us));
      serve::FleetRequest req;
      req.request.samples.push_back(a.sample);
      req.tenant = static_cast<serve::TenantId>(a.tenant_class + 1);
      if (a.deadline_us > 0) {
        req.deadline = t0 + std::chrono::microseconds(a.offset_us + a.deadline_us);
      }
      futures.push_back(fleet.submit(std::move(req)).results);
    }
    fleet.drain();
    run.wall_seconds =
        std::chrono::duration<double>(serve::ServeClock::now() - t0).count();
    run.stats = fleet.stats();
  }

  std::size_t correct = 0;
  for (auto& f : futures) {
    run.results.push_back(std::move(f.get().at(0)));
    const core::InferenceResult& r = run.results.back();
    correct += r.predicted_class == static_cast<std::size_t>(ds.label(r.sample));
  }
  run.throughput_sps = static_cast<double>(run.results.size()) / run.wall_seconds;
  run.accuracy = static_cast<double>(correct) / static_cast<double>(run.results.size());
  return run;
}

/// Decision-identity hard gate: every served decision must equal the batch-1
/// oracle's — at full budget for samples that ran to their natural exit, or
/// at the truncated budget for deadline-forced early exits.
bool identical_to_oracle(const FleetRun& run,
                         const std::vector<util::ClassedArrival>& trace,
                         snn::SpikingNetwork& net, const data::Dataset& ds,
                         const core::ExitPolicy& policy, std::size_t timesteps) {
  std::map<std::size_t, core::InferenceResult> oracle;
  {
    core::SequentialEngine batch1(net, policy, timesteps);
    core::InferenceRequest unique;
    for (const auto& r : run.results) {
      if (oracle.emplace(r.sample, core::InferenceResult{}).second) {
        unique.samples.push_back(r.sample);
      }
    }
    for (auto& r : batch1.run(ds, unique)) oracle[r.sample] = std::move(r);
  }

  // Truncated oracles are memoised per (sample, budget): under saturation
  // many deadline-forced arrivals share the same early boundary.
  std::map<std::pair<std::size_t, std::size_t>, core::InferenceResult> truncated;
  std::size_t mismatches = 0;
  std::size_t forced_checked = 0;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const core::InferenceResult& served = run.results[i];
    const core::InferenceResult& want = oracle.at(served.sample);
    const core::InferenceResult* expect = &want;
    if (served.exit_timestep != want.exit_timestep) {
      // Only a deadline can legally shorten a run — never lengthen it, and
      // never touch a request that carried no deadline.
      if (trace[i].deadline_us == 0 || served.exit_timestep >= want.exit_timestep) {
        ++mismatches;
        continue;
      }
      const auto key = std::make_pair(served.sample, served.exit_timestep);
      auto [it, fresh] = truncated.try_emplace(key);
      if (fresh) {
        core::SequentialEngine cut(net, policy, served.exit_timestep);
        core::InferenceRequest one;
        one.samples.push_back(served.sample);
        it->second = std::move(cut.run(ds, one).at(0));
      }
      expect = &it->second;
      ++forced_checked;
    }
    if (served.predicted_class != expect->predicted_class ||
        served.exit_timestep != expect->exit_timestep ||
        served.final_entropy != expect->final_entropy) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    std::printf("  identity gate: %zu mismatching decisions\n", mismatches);
  } else if (forced_checked > 0) {
    std::printf("  identity gate: clean (%zu deadline-forced exits matched the"
                " truncated oracle)\n", forced_checked);
  }
  return mismatches == 0;
}

double miss_rate(const serve::TenantStats& t) {
  return t.completed_samples == 0
             ? 0.0
             : static_cast<double>(t.deadline_missed) /
                   static_cast<double>(t.completed_samples);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_options(argc, argv);

  bench::banner("Serving fleet: theta sweep and scheduler policies under arrival traces");
  bench::BenchReport report("serving_fleet", options);

  core::ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = "sync10";
  spec.timesteps = 4;
  spec.epochs = 6;
  spec.loss = core::LossKind::kPerTimestep;
  core::Experiment e = bench::run(spec, options);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy policy(0.3);
  report.set("gemm_backend", std::string(util::default_gemm_backend().name()));
  bool all_identical = true;

  // ---- Part 1: theta sweep on a one-model, one-worker fleet. Paired
  // arrivals every ~4 ms on average, no deadlines. theta = 0 never exits
  // early (the static-T serving baseline); 0.3 is the headline point.
  util::MultiClassTraceSpec sweep_spec;
  sweep_spec.classes.push_back({.name = "sweep",
                                .arrivals = static_cast<std::size_t>(192 * options.scale) + 64,
                                .mean_gap_us = 4000.0,
                                .burst = 2,
                                .deadline_us = 0});
  sweep_spec.sample_limit = ds.size();
  sweep_spec.seed = 0x5e51;
  const std::vector<util::ClassedArrival> sweep_trace = util::make_arrival_trace(sweep_spec);
  constexpr std::size_t kSweepPool = 8;
  report.set("sweep_arrivals", static_cast<double>(sweep_trace.size()));
  report.set("sweep_max_pool", static_cast<double>(kSweepPool));

  bench::TablePrinter sweep_table({"theta", "avgT", "Acc.", "p50 ms", "p95 ms", "p99 ms",
                                   "p99.9 ms", "queue p95 ms", "req/s"},
                                  {7, 7, 9, 9, 9, 9, 9, 13, 9});
  util::CsvWriter sweep_csv(options.csv_dir + "/serving_theta_sweep.csv");
  sweep_csv.write_header({"theta", "mean_exit_timestep", "accuracy", "p50_latency_ms",
                          "p95_latency_ms", "p99_latency_ms", "p999_latency_ms",
                          "p95_queue_ms", "throughput_sps"});
  for (const double theta : {0.0, 0.1, 0.3, 0.6}) {
    const core::EntropyExitPolicy sweep_policy(theta);
    const FleetRun run = replay_trace(e, ds, sweep_policy, spec.timesteps, sweep_trace,
                                      "fifo", /*workers=*/1, kSweepPool);
    all_identical = identical_to_oracle(run, sweep_trace, e.net, ds, sweep_policy,
                                        spec.timesteps) &&
                    all_identical;
    const util::PercentileSummary& lat = run.stats.latency_us;
    const util::PercentileSummary& queue = run.stats.queue_us;
    sweep_table.row({bench::fmt("%.2f", theta),
                     bench::fmt("%.2f", run.stats.mean_exit_timestep),
                     bench::fmt("%.2f%%", 100 * run.accuracy),
                     bench::fmt("%.2f", lat.p50 / 1000.0),
                     bench::fmt("%.2f", lat.p95 / 1000.0),
                     bench::fmt("%.2f", lat.p99 / 1000.0),
                     bench::fmt("%.2f", lat.p999 / 1000.0),
                     bench::fmt("%.2f", queue.p95 / 1000.0),
                     bench::fmt("%.1f", run.throughput_sps)});
    sweep_csv.row(theta, run.stats.mean_exit_timestep, 100 * run.accuracy,
                  lat.p50 / 1000.0, lat.p95 / 1000.0, lat.p99 / 1000.0,
                  lat.p999 / 1000.0, queue.p95 / 1000.0, run.throughput_sps);
    const std::string prefix = bench::fmt("sweep_theta_%.2f_", theta);
    report.set(prefix + "mean_exit_timestep", run.stats.mean_exit_timestep);
    report.set(prefix + "accuracy", run.accuracy);
    report.set(prefix + "p50_latency_ms", lat.p50 / 1000.0);
    report.set(prefix + "p95_latency_ms", lat.p95 / 1000.0);
    report.set(prefix + "p99_latency_ms", lat.p99 / 1000.0);
    report.set(prefix + "p999_latency_ms", lat.p999 / 1000.0);
    report.set(prefix + "throughput_sps", run.throughput_sps);
  }
  std::printf("\n");

  // ---- Part 2: scheduler policies on a two-worker fleet.
  // Two-class workload at 10^5 arrivals full scale: an interactive Poisson
  // stream with a 10 ms SLO and a bursty bulk stream with none. Offered load
  // (~8k samples/s) sits above this host's single-core service rate, so the
  // admission queue is contended and the scheduler's ordering is what
  // decides who meets the SLO.
  const auto total =
      std::max<std::size_t>(static_cast<std::size_t>(100000 * options.scale), 600);
  util::MultiClassTraceSpec trace_spec;
  trace_spec.classes.push_back({.name = "interactive",
                                .arrivals = (total * 3) / 5,
                                .mean_gap_us = 250.0,
                                .burst = 1,
                                .deadline_us = 10000});
  trace_spec.classes.push_back({.name = "bulk",
                                .arrivals = total - (total * 3) / 5,
                                .mean_gap_us = 1500.0,
                                .burst = 6,
                                .deadline_us = 0});
  trace_spec.sample_limit = ds.size();
  trace_spec.seed = 0xf1ee7;
  const std::vector<util::ClassedArrival> trace = util::make_arrival_trace(trace_spec);
  report.set("arrivals", static_cast<double>(trace.size()));
  report.set("interactive_deadline_ms", 10.0);
  report.set("trace_seed", static_cast<double>(trace_spec.seed));
  report.set("workers", 2.0);

  bench::TablePrinter table({"policy", "class", "p50 ms", "p99 ms", "p99.9 ms",
                             "miss %", "req/s"},
                            {15, 13, 9, 9, 9, 9, 9});
  util::CsvWriter csv(options.csv_dir + "/serving_fleet.csv");
  csv.write_header({"policy", "class", "p50_latency_ms", "p99_latency_ms",
                    "p999_latency_ms", "deadline_miss_rate", "throughput_sps"});

  const std::vector<std::string> policies{"fifo", "edf", "weighted_fair"};
  double fifo_interactive_miss = 0.0;
  double edf_interactive_miss = 0.0;

  for (const std::string& policy_name : policies) {
    const FleetRun run = replay_trace(e, ds, policy, spec.timesteps, trace, policy_name,
                                      /*workers=*/2, /*max_pool=*/4);
    all_identical = identical_to_oracle(run, trace, e.net, ds, policy,
                                        spec.timesteps) &&
                    all_identical;

    for (std::size_t c : {kInteractive, kBulk}) {
      const serve::TenantStats& t = run.stats.tenants.at(c + 1);
      const util::PercentileSummary& lat = t.latency_us;
      const double miss = miss_rate(t);
      table.row({policy_name, kClassName[c], bench::fmt("%.2f", lat.p50 / 1000.0),
                 bench::fmt("%.2f", lat.p99 / 1000.0),
                 bench::fmt("%.2f", lat.p999 / 1000.0),
                 bench::fmt("%.2f%%", 100.0 * miss),
                 bench::fmt("%.1f", run.throughput_sps)});
      csv.row(policy_name, kClassName[c], lat.p50 / 1000.0, lat.p99 / 1000.0,
              lat.p999 / 1000.0, miss, run.throughput_sps);

      const std::string prefix = policy_name + "_" + kClassName[c] + "_";
      report.set(prefix + "p50_latency_ms", lat.p50 / 1000.0);
      report.set(prefix + "p99_latency_ms", lat.p99 / 1000.0);
      report.set(prefix + "p999_latency_ms", lat.p999 / 1000.0);
      report.set(prefix + "deadline_miss_rate", miss);
      report.set(prefix + "deadline_forced_exits",
                 static_cast<double>(t.deadline_forced_exits));
    }
    report.set(policy_name + "_throughput_sps", run.throughput_sps);

    const double interactive_miss = miss_rate(run.stats.tenants.at(kInteractive + 1));
    if (policy_name == "fifo") fifo_interactive_miss = interactive_miss;
    if (policy_name == "edf") edf_interactive_miss = interactive_miss;
  }

  const bool edf_beats_fifo = edf_interactive_miss < fifo_interactive_miss;
  report.set("fifo_interactive_miss_rate", fifo_interactive_miss);
  report.set("edf_interactive_miss_rate", edf_interactive_miss);
  report.set("edf_beats_fifo_interactive_miss", edf_beats_fifo ? 1.0 : 0.0);
  report.set("served_vs_oracle_identical", all_identical ? 1.0 : 0.0);
  report.set_dataset(ds);

  std::printf("\ninteractive deadline-miss rate: fifo %.2f%%, edf %.2f%% (%s)\n",
              100.0 * fifo_interactive_miss, 100.0 * edf_interactive_miss,
              edf_beats_fifo ? "edf lower" : "edf not lower");
  if (!all_identical) {
    std::printf("FAIL: served decisions diverged from the batch-1 oracle\n");
    return 1;
  }
  std::printf("All served decisions bitwise-identical to the batch-1 oracle.\n");
  return 0;
}
