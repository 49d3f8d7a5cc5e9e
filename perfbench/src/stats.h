// Order statistics for the benchmark's reported figures.
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// samples is the smallest sample with at least p% of the samples at or
// below it, i.e. the sample at 1-based rank ceil(p/100 * n). The samples
// ranked above it are the ones "beyond" the percentile; a p99 is only
// reported as trustworthy when at least ten samples lie beyond it.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "util/json.h"

namespace perfbench {

/// A reported figure as JSON: a non-finite value (a latency percentile
/// that landed on a failed operation) is null, since bare inf/nan tokens
/// are not JSON.
inline tap::util::JsonValue json_number(double v) {
  return std::isfinite(v) ? tap::util::JsonValue::number(v)
                          : tap::util::JsonValue();
}

/// 1-based nearest rank of the p-th percentile among n samples
/// (0 < p <= 100, n >= 1). Always in [1, n].
std::size_t percentile_rank(std::size_t n, double p);

/// Samples ranked strictly above the p-th percentile: n - rank.
std::size_t samples_beyond(std::size_t n, double p);

/// Nearest-rank percentile of already-sorted samples; 0 for no samples.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Nearest-rank percentile of unsorted samples (sorts a copy).
double percentile(std::vector<double> samples, double p);

/// Median as the mean of the two middle samples for an even count.
double median(std::vector<double> samples);

double mean(const std::vector<double>& samples);

/// Geometric mean of positive samples; 0 for no samples.
double geomean(const std::vector<double>& samples);

/// The p-th percentile as the median of its value over consecutive chunks
/// of `samples` (in completion order), so a short stall of the shared
/// machine moves one chunk, not the figure. A chunk holds a multiple of
/// `align` samples and enough that `min_beyond` of them lie beyond its
/// percentile; there are at most `chunks`. Too few samples for one chunk
/// fall back to the percentile of them all.
double chunked_percentile(const std::vector<double>& samples, double p,
                          std::size_t chunks, std::size_t min_beyond,
                          std::size_t align = 1);

/// Completed operations per second, as the median over about `chunks`
/// consecutive chunks of equally many completions of each chunk's rate.
/// A chunk holds a multiple of `align` completions, so a workload that
/// cycles through `align` operations of unequal cost is timed in whole
/// cycles. `end_s` are completion times from the start of measurement
/// (any order). A median over chunks keeps a short stall of the shared
/// machine from moving the figure. Too few completions for one chunk
/// fall back to count / span_s.
double chunked_rate(std::vector<double> end_s, double span_s,
                    std::size_t chunks, std::size_t align = 1);

}  // namespace perfbench
