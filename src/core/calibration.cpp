#include "core/calibration.h"

#include <algorithm>
#include <stdexcept>

namespace dtsnn::core {

std::vector<SweepPoint> theta_sweep(const TimestepOutputs& outputs,
                                    const std::vector<double>& thetas) {
  // Softmax+entropy of every (t, sample) row is computed once; each theta
  // then replays against the table in O(N*T) comparisons.
  const std::vector<double> entropies = entropy_table(outputs);
  std::vector<SweepPoint> points;
  points.reserve(thetas.size());
  for (const double theta : thetas) {
    points.push_back({theta, evaluate_dtsnn_with_table(outputs, entropies, theta)});
  }
  return points;
}

std::vector<double> default_theta_grid() {
  std::vector<double> grid;
  // Fine geometric coverage of the confident region plus a linear tail up to
  // (and including) 1.0.
  for (double t = 0.001; t < 0.1; t *= 1.35) grid.push_back(t);
  for (int i = 2; i <= 20; ++i) grid.push_back(static_cast<double>(i) * 0.05);
  std::sort(grid.begin(), grid.end());
  return grid;
}

CalibrationResult calibrate_theta(const TimestepOutputs& outputs, double target_accuracy,
                                  double tolerance, const std::vector<double>& grid) {
  if (grid.empty()) throw std::invalid_argument("calibrate_theta: empty theta grid");
  std::vector<double> sorted = grid;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> entropies = entropy_table(outputs);

  CalibrationResult best;
  best.target_accuracy = target_accuracy;
  bool found = false;
  for (const double theta : sorted) {
    DtsnnResult r = evaluate_dtsnn_with_table(outputs, entropies, theta);
    if (r.accuracy + 1e-12 >= target_accuracy - tolerance) {
      // Larger theta exits earlier; keep the largest admissible one.
      best.theta = theta;
      best.result = std::move(r);
      best.met_target = true;
      found = true;
    }
  }
  if (!found) {
    // Nothing met the target: fall back to the most conservative threshold.
    const double theta = sorted.front();
    best.theta = theta;
    best.result = evaluate_dtsnn_with_table(outputs, entropies, theta);
    best.met_target = false;
  }
  return best;
}

}  // namespace dtsnn::core
