#include "layers.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "stats.h"

namespace perfbench {

void SpanLog::record(const char* name, const char* parent,
                     std::uint64_t request, Clock::time_point start,
                     Clock::time_point end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_us = micros_between(epoch_, start);
  s.dur_us = micros_between(start, end);
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(s.dur_us);
  return out;
}

std::vector<double> SpanLog::self_us(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<std::uint64_t, double> child_us;
  for (const Span& s : spans_)
    if (name == s.parent) child_us[s.request] += s.dur_us;
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    const auto it = child_us.find(s.request);
    out.push_back(s.dur_us - (it == child_us.end() ? 0.0 : it->second));
  }
  return out;
}

SpanLog::Split SpanLog::split_near_median(const std::string& root,
                                          const std::string& require) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<std::uint64_t, double> root_us;
  std::unordered_set<std::uint64_t> required;
  for (const Span& s : spans_) {
    if (root == s.name) root_us[s.request] = s.dur_us;
    if (require == s.name) required.insert(s.request);
  }
  std::vector<double> durations;
  for (const auto& [request, us] : root_us)
    if (require.empty() || required.count(request) > 0) durations.push_back(us);
  Split split;
  if (durations.empty()) return split;
  std::sort(durations.begin(), durations.end());
  const double lo = percentile_sorted(durations, 45);
  const double hi = percentile_sorted(durations, 55);
  std::unordered_set<std::uint64_t> band;
  for (const auto& [request, us] : root_us)
    if ((require.empty() || required.count(request) > 0) && us >= lo &&
        us <= hi)
      band.insert(request);

  std::map<std::pair<std::uint64_t, std::string>, double> child_us;
  for (const Span& s : spans_)
    if (*s.parent != '\0' && band.count(s.request) > 0)
      child_us[{s.request, s.parent}] += s.dur_us;
  for (const Span& s : spans_) {
    if (band.count(s.request) == 0) continue;
    const auto it = child_us.find({s.request, s.name});
    split.self_us[s.name] +=
        s.dur_us - (it == child_us.end() ? 0.0 : it->second);
  }
  split.requests = band.size();
  for (auto& [name, us] : split.self_us)
    us /= static_cast<double>(split.requests);
  return split;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  for (const Span& s : spans_) {
    tap::util::JsonValue line = tap::util::JsonValue::object();
    line.set("name", tap::util::JsonValue::string(s.name));
    line.set("parent", tap::util::JsonValue::string(s.parent));
    line.set("request", json_number(static_cast<double>(s.request)));
    line.set("start_us", json_number(s.start_us));
    line.set("dur_us", json_number(s.dur_us));
    out << line.dump() << "\n";
  }
  return static_cast<bool>(out);
}

std::unique_ptr<BuiltModel> build_model(const tap::service::ModelSpec& spec,
                                        SpanLog* log, std::uint64_t request,
                                        const char* parent) {
  const Clock::time_point t0 = Clock::now();
  tap::Graph graph = tap::service::build_spec_model(spec);
  const Clock::time_point t1 = Clock::now();
  // The TapGraph keeps a pointer to its source Graph, so lower only once
  // the Graph sits at its final address.
  auto model = std::unique_ptr<BuiltModel>(
      new BuiltModel{std::move(graph), tap::ir::TapGraph()});
  const Clock::time_point t2 = Clock::now();
  model->tg = tap::ir::lower(model->graph);
  const Clock::time_point t3 = Clock::now();
  if (log != nullptr) {
    log->record("models.build", parent, request, t0, t1);
    log->record("ir.lower", parent, request, t2, t3);
  }
  return model;
}

const BuiltModel& ModelCache::get(const tap::service::ModelSpec& spec) {
  const std::string key = spec.model + "/" + std::to_string(spec.layers) +
                          "/" + std::to_string(spec.classes) + "/" +
                          std::to_string(spec.batch);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = models_.find(key);
  if (it == models_.end())
    it = models_.emplace(key, build_model(spec, log_, 0)).first;
  return *it->second;
}

}  // namespace perfbench
