#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gddr::perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

Quartiles quartiles(const std::vector<double>& values) {
  return {quantile(values, 0.25), quantile(values, 0.5),
          quantile(values, 0.75)};
}

double tail_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.99, 99.95, 99.9, 99.5,
                                       99.0,  95.0,  90.0, 50.0};
  for (const double p : kLadder) {
    // Integer arithmetic in units of 0.01 %: n * (10000 - 100 p) / 10000.
    const auto beyond_x10000 =
        static_cast<double>(n) * (10000.0 - std::round(p * 100.0));
    if (beyond_x10000 >= 10.0 * 10000.0) return p;
  }
  return 0.0;
}

double windowed_tail(const std::vector<double>& values, std::size_t window,
                     double* percentile) {
  if (window == 0 || values.size() < 3 * window) window = values.size();
  const double p = tail_percentile(window);
  if (percentile != nullptr) *percentile = p;
  std::vector<double> tails;
  for (std::size_t start = 0; window > 0 && start + window <= values.size();
       start += window) {
    tails.push_back(quantile(
        std::vector<double>(values.begin() + static_cast<long>(start),
                            values.begin() + static_cast<long>(start + window)),
        p / 100.0));
  }
  return median(tails);
}

bool serve_failed(bool shed, serve::Rung rung) {
  return shed || rung != serve::Rung::kGnnPolicy;
}

}  // namespace gddr::perfbench
