#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "data/dataset.h"
#include "util/logging.h"

namespace dtsnn::bench {

BenchOptions parse_options(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        // Flag parsing runs before any thread is spawned; exiting here
        // cannot race a destructor.
        std::exit(2);  // NOLINT(concurrency-mt-unsafe)
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      options.scale = std::atof(next("--scale"));
    } else if (arg == "--epochs") {
      options.epochs_override = static_cast<std::size_t>(std::atoi(next("--epochs")));
    } else if (arg == "--no-cache") {
      options.use_cache = false;
    } else if (arg == "--cache-dir") {
      options.cache_dir = next("--cache-dir");
    } else if (arg == "--csv-dir") {
      options.csv_dir = next("--csv-dir");
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--scale F] [--epochs N] [--no-cache] [--cache-dir D] "
          "[--csv-dir D]\n",
          argv[0]);
      std::exit(0);  // NOLINT(concurrency-mt-unsafe) pre-thread flag parsing
    } else {
      std::fprintf(stderr, "unknown flag: %s (see --help)\n", arg.c_str());
      std::exit(2);  // NOLINT(concurrency-mt-unsafe) pre-thread flag parsing
    }
  }
  return options;
}

core::Experiment run(core::ExperimentSpec spec, const BenchOptions& options) {
  spec.data_scale *= options.scale;
  if (options.epochs_override) spec.epochs = options.epochs_override;
  return core::train_or_load(spec, options.use_cache ? options.cache_dir : "");
}

double mean_hidden_activity(core::Experiment& experiment) {
  // Probe the first 64 test samples at the experiment's timestep budget, as
  // forwards of 8 samples, so the probe never holds the buffers of one
  // 64-sample forward. Every probe row carries the same neurons and
  // timesteps, so a LIF's spike rate over the whole probe is its chunk
  // rates weighted by the chunks' rows.
  constexpr std::size_t kProbe = 64;
  constexpr std::size_t kChunk = 8;
  const std::size_t probe = std::min(kProbe, experiment.bundle.test->size());
  std::vector<double> weighted;  // per LIF: sum of chunk rate * chunk rows
  for (std::size_t start = 0; start < probe; start += kChunk) {
    std::vector<std::size_t> indices(std::min(kChunk, probe - start));
    std::iota(indices.begin(), indices.end(), start);
    const auto batch = data::materialize_batch(*experiment.bundle.test, indices,
                                               experiment.spec.timesteps);
    experiment.net.forward(batch.x, experiment.spec.timesteps, /*train=*/false);
    const auto rates = experiment.net.lif_spike_rates();
    weighted.resize(rates.size(), 0.0);
    for (std::size_t l = 0; l < rates.size(); ++l) {
      weighted[l] += rates[l] * static_cast<double>(indices.size());
    }
  }
  if (weighted.empty()) return 0.15;
  double acc = 0.0;
  for (const double w : weighted) acc += w / static_cast<double>(probe);
  return acc / static_cast<double>(weighted.size());
}

imc::EnergyModel measured_energy_model(core::Experiment& experiment,
                                       const imc::ImcConfig& config) {
  const double activity = mean_hidden_activity(experiment);
  auto spec = imc::spec_from_network(experiment.net, experiment.spec.model);
  imc::set_uniform_activity(spec, activity, /*first_layer_activity=*/1.0);
  return imc::EnergyModel(imc::map_network(spec, config));
}

imc::EnergyModel paper_scale_energy_model(const std::string& model_preset,
                                          double activity,
                                          const imc::ImcConfig& config) {
  imc::NetworkSpec spec = model_preset.find("resnet") != std::string::npos
                              ? imc::resnet19_spec()
                              : imc::vgg16_spec();
  imc::set_uniform_activity(spec, activity, /*first_layer_activity=*/1.0);
  return imc::EnergyModel(imc::map_network(spec, config));
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

BenchReport::BenchReport(std::string name, const BenchOptions& options)
    : name_(std::move(name)),
      dir_(options.csv_dir),
      start_(std::chrono::steady_clock::now()) {
  set("scale", options.scale);
}

BenchReport::~BenchReport() {
  try {
    write();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "BenchReport: %s\n", e.what());
  }
}

void BenchReport::set(const std::string& key, double value) {
  // NaN/inf are not valid JSON numbers; serialize them as strings.
  std::string encoded;
  if (std::isfinite(value)) {
    encoded = fmt("%.6g", value);
  } else {
    encoded = '"';
    encoded += fmt("%g", value);
    encoded += '"';
  }
  fields_.emplace_back(key, std::move(encoded));
}

void BenchReport::set(const std::string& key, const std::string& value) {
  std::string encoded;
  encoded = '"';
  encoded += json_escape(value);
  encoded += '"';
  fields_.emplace_back(key, std::move(encoded));
}

void BenchReport::set_result(double accuracy, double avg_timesteps) {
  set("accuracy", accuracy);
  set("avg_timesteps", avg_timesteps);
}

void BenchReport::set_dataset(const data::Dataset& dataset, const std::string& prefix) {
  const data::DatasetStorageStats stats = dataset.storage_stats();
  set(prefix + "dataset_samples", static_cast<double>(dataset.size()));
  set(prefix + "dataset_bytes", static_cast<double>(stats.logical_bytes));
  set(prefix + "dataset_resident_bytes", static_cast<double>(stats.resident_bytes));
  set(prefix + "dataset_peak_resident_bytes",
      static_cast<double>(stats.peak_resident_bytes));
  set(prefix + "shard_count", static_cast<double>(stats.shard_count));
  set(prefix + "shard_cache_slots", static_cast<double>(stats.cache_slots));
  set(prefix + "shard_cache_hits", static_cast<double>(stats.cache_hits));
  set(prefix + "shard_cache_misses", static_cast<double>(stats.cache_misses));
  set(prefix + "shard_cache_evictions", static_cast<double>(stats.cache_evictions));
  set(prefix + "shard_cache_hit_rate", stats.hit_rate());
}

void BenchReport::write() {
  if (written_) return;
  written_ = true;
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                    start_)
                          .count();
  const std::string path = dir_ + "/BENCH_" + name_ + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("BenchReport: cannot open " + path);
  out << "{\n  \"name\": \"" << json_escape(name_) << "\",\n";
  out << "  \"wall_seconds\": " << fmt("%.3f", wall);
  for (const auto& [key, value] : fields_) {
    out << ",\n  \"" << json_escape(key) << "\": " << value;
  }
  out << "\n}\n";
  if (!out) throw std::runtime_error("BenchReport: write failed for " + path);
  std::printf("[bench] wrote %s\n", path.c_str());
}

TablePrinter::TablePrinter(std::vector<std::string> headers, std::vector<int> widths)
    : headers_(std::move(headers)), widths_(std::move(widths)) {
  if (widths_.empty()) {
    widths_.reserve(headers_.size());
    for (const auto& h : headers_) {
      widths_.push_back(std::max<int>(12, static_cast<int>(h.size()) + 2));
    }
  }
  row(headers_);
  rule();
}

void TablePrinter::row(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths_.size() ? widths_[i] : 12;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%-*s", w, cells[i].c_str());
    line += buf;
  }
  std::printf("%s\n", line.c_str());
}

void TablePrinter::rule() const {
  int total = 0;
  for (const int w : widths_) total += w;
  std::printf("%s\n", std::string(static_cast<std::size_t>(total), '-').c_str());
}

std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  char buf[256];
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

void banner(const std::string& title) {
  std::printf("\n==== %s ====\n\n", title.c_str());
}

}  // namespace dtsnn::bench
