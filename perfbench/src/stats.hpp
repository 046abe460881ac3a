// Summary statistics and failure accounting for the repository benchmark.
#pragma once

#include <cstddef>
#include <vector>

#include "serve/router.hpp"

namespace gddr::perfbench {

// Linear-interpolation quantile (q in [0, 1]) of `values`; NaN when empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(const std::vector<double>& values);

// The tail percentile a sample of `n` values supports: the highest entry
// of the ladder 50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99 that leaves at
// least ten samples beyond it, i.e. n * (1 - p/100) >= 10.  Returns 0 when
// even the median leaves fewer than ten (n < 20).
double tail_percentile(std::size_t n);

// Tail latency of a long run: the sample is cut into consecutive windows
// of `window` values, each window's tail is its tail_percentile(window)
// quantile, and the result is the median over windows, so one host stall
// moves one window rather than the whole figure.  A sample shorter than
// three windows is one window.  `percentile` receives the percentile used.
double windowed_tail(const std::vector<double>& values, std::size_t window,
                     double* percentile);

// Serving failure rule: a request fails when it was shed, or served by any
// rung below the learned policy (rung 1), or its traffic was dropped.
bool serve_failed(bool shed, serve::Rung rung);

}  // namespace gddr::perfbench
