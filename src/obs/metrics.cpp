#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/check.h"
#include "util/json.h"

namespace tap::obs {

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

std::uint64_t Gauge::to_bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double Gauge::from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    TAP_CHECK(bounds_[i - 1] < bounds_[i])
        << "histogram bounds must be strictly ascending";
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  // Linear scan: bucket lists are short (a dozen decade steps) and the
  // scan touches no shared state until the single fetch_add.
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double s;
    std::memcpy(&s, &cur, sizeof(s));
    s += v;
    std::uint64_t next;
    std::memcpy(&next, &s, sizeof(next));
    if (sum_bits_.compare_exchange_weak(cur, next, std::memory_order_relaxed))
      return;
  }
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

double Histogram::sum() const {
  const std::uint64_t b = sum_bits_.load(std::memory_order_relaxed);
  double s;
  std::memcpy(&s, &b, sizeof(s));
  return s;
}

std::vector<double> Histogram::default_ms_bounds() {
  return {0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,    5.0,
          10.0, 25.0,  50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0};
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

template <typename Map, typename Make>
auto* find_or_make(Map& map, std::string_view name, const Make& make) {
  auto it = map.find(name);
  if (it == map.end())
    it = map.emplace(std::string(name), make()).first;
  return it->second.get();
}

/// A name may live in exactly one of the three kind maps.
template <typename MapA, typename MapB>
void check_kind_free(const MapA& a, const MapB& b, std::string_view name,
                     const char* kind) {
  TAP_CHECK(a.find(name) == a.end() && b.find(name) == b.end())
      << "metric '" << std::string(name) << "' already registered as a "
      << "different kind (requested " << kind << ")";
}

std::string json_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Prometheus metric name: "tap_" prefix, every non-alphanumeric
/// character (the hierarchical '.', '-', ...) replaced by '_'.
std::string prom_name(const std::string& name) {
  std::string out = "tap_";
  out.reserve(out.size() + name.size());
  for (char c : name)
    out.push_back(
        std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  return out;
}

/// A registered name split at the label bar: "a.b|k=v,k2=v2" ->
/// {base: "tap_a_b", labels: {"k=\"v\"", "k2=\"v2\""}} — the base is
/// sanitized like any name, label keys are sanitized (alnum + '_'),
/// label values are emitted verbatim inside quotes with '"' and '\\'
/// escaped.
struct PromParts {
  std::string base;
  std::vector<std::string> labels;  ///< rendered `key="value"` pairs
};

PromParts prom_parts(const std::string& name) {
  PromParts out;
  const std::size_t bar = name.find('|');
  out.base = prom_name(name.substr(0, bar));
  if (bar == std::string::npos) return out;
  std::string_view rest = std::string_view(name).substr(bar + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    const std::size_t eq = pair.find('=');
    std::string rendered;
    for (char c : pair.substr(0, eq))
      rendered.push_back(
          std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
    rendered += "=\"";
    if (eq != std::string_view::npos) {
      for (char c : pair.substr(eq + 1)) {
        if (c == '"' || c == '\\') rendered.push_back('\\');
        rendered.push_back(c);
      }
    }
    rendered += "\"";
    out.labels.push_back(std::move(rendered));
  }
  return out;
}

/// "{k=\"v\",...}" — with `extra` appended last (the histogram `le`
/// slot); "" when there is nothing to brace.
std::string label_block(const std::vector<std::string>& labels,
                        const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  for (const std::string& l : labels) {
    if (out.size() > 1) out += ",";
    out += l;
  }
  if (!extra.empty()) {
    if (out.size() > 1) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

}  // namespace

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  check_kind_free(gauges_, histograms_, name, "counter");
  return find_or_make(counters_, name,
                      [] { return std::make_unique<Counter>(); });
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  check_kind_free(counters_, histograms_, name, "gauge");
  return find_or_make(gauges_, name, [] { return std::make_unique<Gauge>(); });
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  check_kind_free(counters_, gauges_, name, "histogram");
  return find_or_make(histograms_, name, [&] {
    return std::make_unique<Histogram>(std::move(bounds));
  });
}

std::string MetricsRegistry::dump_json() const {
  using util::JsonValue;
  // Non-finite gauge values have no JSON spelling: null.
  auto number = [](double v) {
    return std::isfinite(v) ? JsonValue::number(v) : JsonValue();
  };
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue counters = JsonValue::object();
  for (const auto& [name, c] : counters_)
    counters.set(name, JsonValue::number(static_cast<double>(c->value())));
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, g] : gauges_) gauges.set(name, number(g->value()));
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, h] : histograms_) {
    JsonValue buckets = JsonValue::array();
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      JsonValue bucket = JsonValue::object();
      bucket.set("le", i < h->bounds().size() ? number(h->bounds()[i])
                                              : JsonValue::string("inf"));
      bucket.set("count",
                 JsonValue::number(static_cast<double>(h->bucket_count(i))));
      buckets.push_back(std::move(bucket));
    }
    JsonValue hist = JsonValue::object();
    hist.set("count", JsonValue::number(static_cast<double>(h->count())));
    hist.set("sum", number(h->sum()));
    hist.set("buckets", std::move(buckets));
    histograms.set(name, std::move(hist));
  }
  JsonValue doc = JsonValue::object();
  doc.set("counters", std::move(counters));
  doc.set("gauges", std::move(gauges));
  doc.set("histograms", std::move(histograms));
  return doc.dump();
}

std::string MetricsRegistry::dump_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  // Labeled variants of one family ("a|route=x", "a|route=y") sort right
  // after their base in each map, so emitting `# TYPE` only when the
  // sanitized base changes yields one TYPE line per family.
  std::string last_base;
  for (const auto& [name, c] : counters_) {
    const PromParts p = prom_parts(name);
    if (p.base != last_base) {
      os << "# TYPE " << p.base << " counter\n";
      last_base = p.base;
    }
    os << p.base << label_block(p.labels) << " " << c->value() << "\n";
  }
  last_base.clear();
  for (const auto& [name, g] : gauges_) {
    const PromParts p = prom_parts(name);
    if (p.base != last_base) {
      os << "# TYPE " << p.base << " gauge\n";
      last_base = p.base;
    }
    os << p.base << label_block(p.labels) << " " << json_number(g->value())
       << "\n";
  }
  last_base.clear();
  for (const auto& [name, h] : histograms_) {
    const PromParts p = prom_parts(name);
    if (p.base != last_base) {
      os << "# TYPE " << p.base << " histogram\n";
      last_base = p.base;
    }
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      cum += h->bucket_count(i);
      std::string le = "le=\"";
      if (i < h->bounds().size())
        le += json_number(h->bounds()[i]);
      else
        le += "+Inf";
      le += "\"";
      os << p.base << "_bucket" << label_block(p.labels, le) << " " << cum
         << "\n";
    }
    os << p.base << "_sum" << label_block(p.labels) << " "
       << json_number(h->sum()) << "\n"
       << p.base << "_count" << label_block(p.labels) << " " << h->count()
       << "\n";
  }
  return os.str();
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) names.push_back(name);
  return names;  // map iteration order is already sorted
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& registry() {
  static MetricsRegistry* r = new MetricsRegistry();  // never destroyed
  return *r;
}

std::string dump_json() { return registry().dump_json(); }

std::string dump_prometheus() { return registry().dump_prometheus(); }

double histogram_quantile(const Histogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  const auto& bounds = h.bounds();
  if (bounds.empty()) return 0.0;
  double cum = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const double in_bucket = static_cast<double>(h.bucket_count(i));
    if (cum + in_bucket >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      if (in_bucket <= 0.0) return lo;
      return lo + (hi - lo) *
                      std::clamp((target - cum) / in_bucket, 0.0, 1.0);
    }
    cum += in_bucket;
  }
  // The q-th observation sits in the +inf overflow bucket: clamp to the
  // largest finite bound (the Prometheus convention).
  return bounds.back();
}

}  // namespace tap::obs
