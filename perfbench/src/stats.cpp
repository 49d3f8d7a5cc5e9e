#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 0.99 * 1000 landing a hair above 990.
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - percentile_rank(n, p);
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[percentile_rank(sorted.size(), p) - 1];
}

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, p);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double geomean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : samples) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

double chunked_percentile(const std::vector<double>& samples, double p,
                          std::size_t chunks, std::size_t min_beyond,
                          std::size_t align) {
  const std::size_t n = samples.size();
  std::size_t min_chunk = align;
  while (min_chunk <= n && samples_beyond(min_chunk, p) < min_beyond)
    min_chunk += align;
  if (min_chunk > n || chunks == 0) return percentile(samples, p);
  // As many chunks as fit, up to `chunks`, each as long as they allow.
  const std::size_t count = std::min(chunks, n / min_chunk);
  const std::size_t per_chunk = n / count / align * align;
  std::vector<double> values;
  for (std::size_t start = 0; start + per_chunk <= n; start += per_chunk)
    values.push_back(percentile(
        std::vector<double>(samples.begin() + start,
                            samples.begin() + start + per_chunk),
        p));
  return median(values);
}

double chunked_rate(std::vector<double> end_s, double span_s,
                    std::size_t chunks, std::size_t align) {
  std::size_t per_chunk = chunks > 0 ? end_s.size() / chunks : 0;
  if (per_chunk > 0) per_chunk = std::max(align, per_chunk / align * align);
  if (per_chunk == 0 || end_s.size() < per_chunk) {
    return span_s > 0.0 ? static_cast<double>(end_s.size()) / span_s : 0.0;
  }
  std::sort(end_s.begin(), end_s.end());
  std::vector<double> rates;
  double start = 0.0;
  for (std::size_t c = 1; c * per_chunk <= end_s.size(); ++c) {
    const double end = end_s[c * per_chunk - 1];
    if (end > start)
      rates.push_back(static_cast<double>(per_chunk) / (end - start));
    start = end;
  }
  return median(rates);
}

}  // namespace perfbench
