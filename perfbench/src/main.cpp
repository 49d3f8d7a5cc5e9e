// perfbench — the repository benchmark. One workload per invocation:
//
//   perfbench --workload serve-hot|serve-churn|search-cold --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--spans FILE]
//             [--record FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs interleaved untraced and traced legs, replays the traced requests
// through the layers' public functions, and reports the per-layer split,
// its unattributed remainder and the tracing overhead. Either way every
// answer is checked against a direct planner call after the clock stops.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A mismatched or failed answer makes the command exit 1; an unoptimized
// or sanitizer build exits 4 before measuring anything.
#include <malloc.h>
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calls.h"
#include "checks.h"
#include "layers.h"
#include "serve.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

// ---- metric catalogue ---------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},      {"latency_ms.p50", "ms"},
    {"latency_ms.p99", "ms"},  {"plan_step_ms", "ms"},
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"service.key_us.p50", "us"},
    {"service.plan_us.p50", "us"},
    {"pruning.prune_us.p50", "us"},
    {"sharding.route_us.p50", "us"},
    {"service.wire.serialize_us.p50", "us"},
    {"service.wire.parse_us.p50", "us"},
    {"net.response_bytes.mean", "B"},
    {"net.handler_ms.p50", "ms"},
    {"net.self_ms.p50", "ms"},
    {"core.family_search_ms", "ms"},
    {"core.family_search_ns_per_candidate", "ns"},
    {"core.global_refine_ms", "ms"},
    {"core.prune_ms", "ms"},
    {"core.build_pattern_table_ms", "ms"},
    {"core.finalize_cost_ms", "ms"},
    {"core.unattributed_ms", "ms"},
    {"models.build_ms.p50", "ms"},
    {"ir.lower_ms.p50", "ms"},
    {"service.cache.memory_hit_ratio", "ratio"},
    {"service.cache.disk_hit_ratio", "ratio"},
    {"service.cache.insertions", "count"},
    {"service.cache.evictions", "count"},
    {"service.cache.disk_writes", "count"},
    {"service.family_hit_ratio", "ratio"},
    {"service.incremental_hits", "count"},
    {"service.families_pinned", "count"},
    {"service.searches", "count"},
    {"service.search_ratio", "ratio"},
    {"service.coalesced", "count"},
    {"service.coalesced_ratio", "ratio"},
    {"core.candidate_plans", "count"},
    {"core.valid_plans", "count"},
    {"core.valid_ratio", "ratio"},
    {"core.cost_queries", "count"},
    {"core.nodes_visited", "count"},
    {"trace.unattributed_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

// ---- arguments and run record -------------------------------------------

struct Args {
  Workload workload = Workload::kServeHot;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".perfbench-work";
  std::string spans_path;
  std::string record_path;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) {
        std::cerr << "unknown workload '" << v
                  << "' (want serve-hot | serve-churn | search-cold)\n";
        return false;
      }
      a->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a->trace = v == "1";
      if (v != "0" && v != "1") return false;
    } else if (flag == "--workdir") {
      a->workdir = v;
    } else if (flag == "--spans") {
      a->spans_path = v;
    } else if (flag == "--record") {
      a->record_path = v;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::cerr << "bad value for " << flag << ": " << v << "\n";
      return false;
    }
  }
  if (!have_workload || !(a->seconds > 0.0)) {
    std::cerr << "need --workload and --seconds > 0\n";
    return false;
  }
  return true;
}

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string kernel() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

/// Hands the heap's free pages back to the system and restarts the
/// kernel's peak-RSS count from the current RSS, so the peak read after a
/// measured leg is that leg's, not whatever set-up left in the allocator.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last reset (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Closed-loop clients of a serve workload, one connection each. The
/// server gives each open connection one of its connection threads until
/// the client closes it, so a client beyond those threads would wait out
/// the whole leg; and every client keeps one server thread busy, so the
/// clients get half the cores and the threads answering them the rest.
int serve_clients() {
  return std::clamp(nproc() / 2, 1,
                    tap::net::HttpServerOptions{}.connection_threads);
}

/// Throughput is the median rate over this many chunks of a leg.
constexpr std::size_t kRateChunks = 20;
/// A serve workload's plan quality covers the specs its first this many
/// requests name.
constexpr std::size_t kQualityPrefix = 1 << 17;
/// Set-up is repeated this many times; setup_s is the median.
constexpr int kSetups = 5;

// ---- outcome -------------------------------------------------------------

struct Outcome {
  Verifier* verifier = nullptr;
  std::uint64_t attempted = 0;
  std::uint64_t sampled = 0;  ///< latency samples behind the percentiles
  int clients = 1;            ///< closed-loop client threads
  std::map<std::string, double> metrics;
};

/// A human-readable report line (stdout, before the result line).
void note(const std::string& line) { std::cout << line << "\n"; }

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Latency percentiles of operations in completion order, each the median
/// over chunks of whole `align`-operation cycles with at least ten samples
/// beyond the percentile in every chunk; a failed operation counts as
/// infinitely slow.
void latency_metrics(const std::vector<double>& latencies_ms,
                     std::size_t align, Outcome* out) {
  constexpr std::size_t kMinBeyond = 10;
  out->metrics["latency_ms.p50"] = chunked_percentile(
      latencies_ms, 50, kRateChunks, kMinBeyond, align);
  out->metrics["latency_ms.p99"] = chunked_percentile(
      latencies_ms, 99, kRateChunks, kMinBeyond, align);
  out->sampled = latencies_ms.size();
  note("latency: " + std::to_string(latencies_ms.size()) +
       " samples; each percentile is the median over up to " +
       std::to_string(kRateChunks) + " chunks with " +
       std::to_string(kMinBeyond) + "+ samples beyond it");
}

/// Sums of the exact search counters over the workload's distinct plans,
/// and the geometric-mean simulated step time (plan quality).
void plan_metrics(const std::vector<Reference>& refs,
                  const std::vector<char>& planned, Outcome* out,
                  bool per_layer) {
  std::vector<double> steps;
  tap::core::SearchStats sum;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (!planned[i] || !refs[i].error.empty()) continue;
    steps.push_back(refs[i].step_ms);
    sum.merge(refs[i].stats);
  }
  if (!per_layer) {
    out->metrics["plan_step_ms"] = geomean(steps);
    note("plan quality: " + std::to_string(steps.size()) +
                  " distinct plans, geomean step " +
                  fmt("%.3f ms", geomean(steps)));
    return;
  }
  out->metrics["core.candidate_plans"] = static_cast<double>(sum.candidate_plans);
  out->metrics["core.valid_plans"] = static_cast<double>(sum.valid_plans);
  out->metrics["core.valid_ratio"] =
      sum.candidate_plans > 0 ? static_cast<double>(sum.valid_plans) /
                                    static_cast<double>(sum.candidate_plans)
                              : 0.0;
  out->metrics["core.cost_queries"] = static_cast<double>(sum.cost_queries);
  out->metrics["core.nodes_visited"] = static_cast<double>(sum.nodes_visited);
}

void pass_metrics(const PassAccount& p, Outcome* out) {
  out->metrics["core.family_search_ms"] = mean(p.family_search_ms);
  out->metrics["core.global_refine_ms"] = mean(p.global_refine_ms);
  out->metrics["core.prune_ms"] = mean(p.prune_ms);
  out->metrics["core.build_pattern_table_ms"] = mean(p.build_pattern_table_ms);
  out->metrics["core.finalize_cost_ms"] = mean(p.finalize_cost_ms);
  out->metrics["core.unattributed_ms"] = mean(p.unattributed_ms);
  out->metrics["core.family_search_ns_per_candidate"] =
      p.fixed_candidates > 0 ? p.fixed_family_search_s * 1e9 /
                                   static_cast<double>(p.fixed_candidates)
                             : 0.0;
}

double p50_ms(const SpanLog& log, const char* name) {
  return percentile(log.durations_us(name), 50) / 1e3;
}

/// Prints the layer split of a typical request — each layer's mean self
/// time over the requests around the median (SpanLog::split_near_median)
/// — and stores the remainder of latency p50 no listed layer covers.
void print_split(const SpanLog::Split& split,
                 const std::vector<std::pair<const char*, const char*>>& layers,
                 double latency_p50_ms, Outcome* out) {
  note("layer split of latency p50 " + fmt("%.4f ms", latency_p50_ms) +
                ", self time per layer over the " +
                std::to_string(split.requests) + " requests around it:");
  double attributed = 0.0;
  auto line = [&](const std::string& label, double ms) {
    std::string pad(label.size() < 36 ? 36 - label.size() : 1, ' ');
    note("  " + label + pad + fmt("%10.4f ms", ms));
  };
  for (const auto& [span, label] : layers) {
    const auto it = split.self_us.find(span);
    const double ms = it == split.self_us.end() ? 0.0 : it->second / 1e3;
    attributed += ms;
    line(label, ms);
  }
  const double rest = latency_p50_ms - attributed;
  line("unattributed", rest);
  out->metrics["trace.unattributed_ms"] = rest;
}

/// Latencies in completion order.
std::vector<double> latencies_of(std::vector<OpRecord> ops) {
  std::sort(ops.begin(), ops.end(), [](const OpRecord& a, const OpRecord& b) {
    return a.end_s < b.end_s;
  });
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpRecord& op : ops)
    out.push_back(op.ok ? op.latency_ms
                        : std::numeric_limits<double>::infinity());
  return out;
}

// ---- serve workloads -----------------------------------------------------

void run_serve(const Args& args, Outcome* out) {
  constexpr std::size_t kSequenceLength = 1 << 20;
  const bool hot = args.workload == Workload::kServeHot;
  const ServeWorkload w = hot ? make_serve_hot(args.seed, kSequenceLength)
                              : make_serve_churn(args.seed, kSequenceLength);
  const int clients = serve_clients();
  out->clients = clients;
  namespace fs = std::filesystem;
  const fs::path cache_root = fs::path(args.workdir) / "cache";

  // Set-up, kSetups times: start the stack on an empty disk tier, build
  // the models and warm the cache. The last stack is the one measured.
  std::unique_ptr<Stack> stack;
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    fs::remove_all(cache_root);
    fs::create_directories(cache_root);
    const Clock::time_point t0 = Clock::now();
    stack = std::make_unique<Stack>(cache_root.string());
    std::string error;
    if (!warm_up(stack->port(), w, clients, &error)) {
      out->verifier->fail(error);
      return;
    }
    setups.push_back(micros_between(t0, Clock::now()) / 1e6);
  }
  note(std::string(workload_name(args.workload)) + ": " +
                std::to_string(w.warm) +
                " warmed specs, " + std::to_string(clients) +
                " closed-loop clients, memory tier " +
                std::to_string(memory_tier_capacity()) + " entries");

  tap::service::PlannerService& svc = stack->service();
  const tap::service::ServiceStats s0 = svc.stats();
  const tap::service::PlanCacheStats c0 = svc.cache_stats();
  std::atomic<std::uint64_t> cursor{0};
  reset_peak_rss();
  SpanLog log;
  std::vector<LegResult> legs;
  double untraced_ops = 0.0, traced_ops = 0.0;
  if (!args.trace) {
    legs.push_back(run_leg(stack->port(), w, &cursor, clients, args.seconds,
                           nullptr));
  } else {
    // Traced and untraced legs alternate so drift hits both alike. The
    // first leg is traced, so the replay below starts from the same cache
    // state it did.
    for (int k = 0; k < 4; ++k) {
      const bool traced = k % 2 == 0;
      stack->trace_handler(traced ? &log : nullptr);
      legs.push_back(run_leg(stack->port(), w, &cursor, clients,
                             args.seconds / 4, traced ? &log : nullptr));
      (traced ? traced_ops : untraced_ops) +=
          static_cast<double>(legs.back().ops.size());
    }
    stack->trace_handler(nullptr);
  }
  const double rss = peak_rss_mb();
  const tap::service::ServiceStats s1 = svc.stats();
  const tap::service::PlanCacheStats c1 = svc.cache_stats();

  // Which specs were asked for, and how.
  std::vector<char> want_plan(w.specs.size(), 0), want_explain(w.specs.size(), 0);
  std::vector<OpRecord> all_ops;
  std::vector<std::string> errors;
  for (const LegResult& leg : legs) {
    all_ops.insert(all_ops.end(), leg.ops.begin(), leg.ops.end());
    errors.insert(errors.end(), leg.errors.begin(), leg.errors.end());
  }
  for (const OpRecord& op : all_ops)
    (op.explain ? want_explain : want_plan)[op.spec] = 1;
  for (std::size_t i = 0; i < w.specs.size(); ++i)
    if (want_explain[i]) want_plan[i] = 1;
  // Plan quality and the exact search counts are taken over a set the
  // seed alone fixes, whatever the legs reached: the warmed specs and
  // every spec the first kQualityPrefix requests name. (How many
  // first-seen specs a serve-churn leg reaches grows with throughput.)
  std::vector<char> quality(w.specs.size(), 0);
  std::fill(quality.begin(), quality.begin() + w.warm, 1);
  for (std::size_t i = 0; i < std::min(kQualityPrefix, w.sequence.size()); ++i)
    quality[w.sequence[i].spec] = 1;
  for (std::size_t i = 0; i < w.specs.size(); ++i)
    if (quality[i]) want_plan[i] = 1;

  ReplayResult replay;
  if (args.trace) {
    std::vector<std::uint64_t> ids(cursor.load());
    for (std::uint64_t id = 0; id < ids.size(); ++id) ids[id] = id;
    const fs::path replay_dir = fs::path(args.workdir) / "replay-cache";
    fs::remove_all(replay_dir);
    fs::create_directories(replay_dir);
    replay = replay_serve(w, ids, replay_dir.string(),
                          std::max(1.0, args.seconds / 4), &log);
    fs::remove_all(replay_dir);
    for (std::uint32_t s : replay.specs) want_plan[s] = 1;
  }
  stack.reset();
  fs::remove_all(cache_root);

  const std::vector<Reference> refs =
      compute_references(w.specs, want_plan, want_explain, nproc());
  Verifier& v = *out->verifier;
  v.bind(&refs);
  for (std::size_t i = 0; i < refs.size(); ++i)
    if (want_plan[i] && !refs[i].error.empty())
      v.fail("spec " + std::to_string(i) + ": " + refs[i].error);
  std::uint64_t not_ok = 0;
  for (const OpRecord& op : all_ops) {
    if (op.ok) {
      v.check_hash(op.spec, op.explain, op.hash);
    } else {
      ++not_ok;
    }
  }
  if (not_ok > 0)
    v.fail(std::to_string(not_ok) + " requests failed, first: " + errors.front(),
           not_ok);
  for (const LegResult& leg : legs) {
    for (std::uint32_t i = 0; i < w.specs.size(); ++i) {
      if (!leg.first_plan[i].empty()) v.check_bytes(i, false, leg.first_plan[i], "served");
      if (!leg.first_explain[i].empty())
        v.check_bytes(i, true, leg.first_explain[i], "served");
    }
  }
  for (std::size_t i = 0; i < replay.specs.size(); ++i)
    v.check_hash(replay.specs[i], false, replay.hashes[i]);
  if (hot && s1.searches != s0.searches)
    v.fail("serve-hot ran " + std::to_string(s1.searches - s0.searches) +
           " searches after setup");
  out->attempted = all_ops.size();

  // Shares of how the service answered during measurement.
  const double requests = static_cast<double>(s1.requests - s0.requests);
  auto share = [&](std::uint64_t n) {
    return requests > 0 ? static_cast<double>(n) / requests : 0.0;
  };
  const double mem_share = share(c1.memory_hits - c0.memory_hits);
  const double disk_share = share(c1.disk_hits - c0.disk_hits);
  const double search_share = share(s1.searches - s0.searches);
  const double coalesced_share = share(s1.coalesced - s0.coalesced);
  note("service answers: " + fmt("%.0f requests", requests) +
                fmt(", memory hits %.4f", mem_share) +
                fmt(", disk hits %.4f", disk_share) +
                fmt(", searches %.4f", search_share) +
                fmt(", coalesced %.4f", coalesced_share) +
                fmt(", evictions %.0f",
                    static_cast<double>(c1.evictions - c0.evictions)));

  if (!args.trace) {
    std::vector<double> ends;
    for (const OpRecord& op : legs[0].ops) ends.push_back(op.end_s);
    out->metrics["ops_per_s"] = chunked_rate(ends, legs[0].span_s, kRateChunks);
    note("throughput: " + std::to_string(legs[0].ops.size()) +
                  " requests in " + fmt("%.3f s", legs[0].span_s) +
                  fmt(", median chunk %.1f req/s", out->metrics["ops_per_s"]));
    latency_metrics(latencies_of(legs[0].ops), 1, out);
    plan_metrics(refs, quality, out, false);
    out->metrics["setup_s"] = median(setups);
    out->metrics["peak_rss_mb"] = rss;
    return;
  }

  // ---- per-layer split (traced legs + replay) ----
  auto& m = out->metrics;
  m["service.key_us.p50"] = percentile(log.durations_us("service.key"), 50);
  m["service.plan_us.p50"] = percentile(log.durations_us("service.plan"), 50);
  m["pruning.prune_us.p50"] = percentile(log.durations_us("pruning.prune"), 50);
  m["sharding.route_us.p50"] = percentile(log.durations_us("sharding.route"), 50);
  m["service.wire.serialize_us.p50"] =
      percentile(log.durations_us("service.wire.serialize"), 50);
  m["service.wire.parse_us.p50"] =
      percentile(log.durations_us("service.wire.parse"), 50);
  m["net.response_bytes.mean"] = mean(replay.response_bytes);
  m["net.handler_ms.p50"] = p50_ms(log, "net.handle");
  m["net.self_ms.p50"] = percentile(log.self_us("net.request"), 50) / 1e3;
  m["models.build_ms.p50"] = p50_ms(log, "models.build");
  m["ir.lower_ms.p50"] = p50_ms(log, "ir.lower");
  // serve-hot searches only while it warms up, so its passes are those.
  const bool leg_searched = !replay.passes.empty();
  pass_metrics(leg_searched ? replay.passes : replay.setup_passes, out);
  note(std::string("core.* passes: ") +
       (leg_searched ? "the replayed requests' searches"
                     : "the set-up searches (no replayed request searched)"));
  plan_metrics(refs, quality, out, true);
  m["service.cache.memory_hit_ratio"] = mem_share;
  m["service.cache.disk_hit_ratio"] = disk_share;
  m["service.cache.insertions"] =
      static_cast<double>(c1.insertions - c0.insertions);
  m["service.cache.evictions"] = static_cast<double>(c1.evictions - c0.evictions);
  m["service.cache.disk_writes"] =
      static_cast<double>(c1.disk_writes - c0.disk_writes);
  const double fam = static_cast<double>((s1.family_hits - s0.family_hits) +
                                         (s1.family_misses - s0.family_misses));
  m["service.family_hit_ratio"] =
      fam > 0 ? static_cast<double>(s1.family_hits - s0.family_hits) / fam : 0.0;
  m["service.incremental_hits"] =
      static_cast<double>(s1.incremental_hits - s0.incremental_hits);
  m["service.families_pinned"] =
      static_cast<double>(s1.families_pinned - s0.families_pinned);
  m["service.searches"] = static_cast<double>(s1.searches - s0.searches);
  m["service.search_ratio"] = search_share;
  m["service.coalesced"] = static_cast<double>(s1.coalesced - s0.coalesced);
  m["service.coalesced_ratio"] = coalesced_share;
  m["trace.overhead_pct"] =
      untraced_ops > 0 ? 100.0 * (untraced_ops - traced_ops) / untraced_ops : 0.0;
  m["trace.spans"] = static_cast<double>(log.size());

  print_split(log.split_near_median("net.request", "service.plan"),
              {{"net.request", "net (request - handle)"},
               {"service.wire.parse", "service.wire.parse"},
               {"service.key", "service.key"},
               {"service.plan", "service.plan (lookup, rest)"},
               {"pruning.prune", "pruning.prune"},
               {"sharding.route", "sharding.route"},
               {"service.wire.serialize", "service.wire.serialize"}},
              p50_ms(log, "net.request"), out);
  note("replayed " + std::to_string(replay.specs.size()) +
                " plan requests; tracing overhead " +
                fmt("%.2f%% of untraced throughput", m["trace.overhead_pct"]));
  if (!args.spans_path.empty() && !log.write_jsonl(args.spans_path))
    note("could not write spans to " + args.spans_path);
}

// ---- search-cold ---------------------------------------------------------

void run_cold(const Args& args, Outcome* out) {
  constexpr std::size_t kMinOps = 1000;  // p99 with ten samples beyond it
  const std::vector<tap::service::ModelSpec> mix = make_cold_mix(args.seed);
  std::vector<std::string> first(mix.size());
  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    for (const auto& spec : mix) plan_cold(spec, nullptr, 0, nullptr);
    setups.push_back(micros_between(t0, Clock::now()) / 1e6);
  }
  note("search-cold: " + std::to_string(mix.size()) +
                " specs planned in turn, one at a time, threads=1");

  struct Op {
    std::uint32_t spec;
    double end_s;
    double latency_ms;
    std::uint64_t hash;
  };
  SpanLog log;
  PassAccount passes;
  std::vector<Op> ops;
  double untraced_ops = 0.0, traced_ops = 0.0;
  std::uint64_t next = 0;
  auto run_leg = [&](double seconds, bool traced, std::vector<Op>* leg_ops) {
    const Clock::time_point start = Clock::now();
    const double cap = 3 * seconds;
    for (;;) {
      const double elapsed = micros_between(start, Clock::now()) / 1e6;
      if (elapsed >= cap) break;
      if (elapsed >= seconds && (args.trace || leg_ops->size() >= kMinOps))
        break;
      const auto spec = static_cast<std::uint32_t>(next % mix.size());
      ColdOp op = plan_cold(mix[spec], traced ? &log : nullptr, next,
                            traced ? &passes : nullptr);
      ++next;
      const double end_s = micros_between(start, Clock::now()) / 1e6;
      leg_ops->push_back({spec, end_s, op.latency_ms, body_hash(op.body)});
      if (first[spec].empty()) first[spec] = std::move(op.body);
    }
    return micros_between(start, Clock::now()) / 1e6;
  };
  double span_s = 0.0;
  reset_peak_rss();
  if (!args.trace) {
    span_s = run_leg(args.seconds, false, &ops);
  } else {
    for (int k = 0; k < 4; ++k) {
      const bool traced = k % 2 == 0;
      std::vector<Op> leg;
      run_leg(args.seconds / 4, traced, &leg);
      (traced ? traced_ops : untraced_ops) += static_cast<double>(leg.size());
      ops.insert(ops.end(), leg.begin(), leg.end());
    }
  }
  const double rss = peak_rss_mb();
  // The fleet-miss path of the same mix, for the net.* layers: each spec
  // once over HTTP to a fresh stack, after the clock stops.
  std::vector<std::string> served, serve_errors;
  if (args.trace) served = serve_misses(mix, next, &log, &serve_errors);

  const std::vector<char> all(mix.size(), 1), none(mix.size(), 0);
  const std::vector<Reference> refs =
      compute_references(mix, all, none, nproc());
  Verifier& v = *out->verifier;
  v.bind(&refs);
  for (std::size_t i = 0; i < refs.size(); ++i)
    if (!refs[i].error.empty())
      v.fail("spec " + std::to_string(i) + ": " + refs[i].error);
  for (const Op& op : ops) v.check_hash(op.spec, false, op.hash);
  for (std::uint32_t i = 0; i < mix.size(); ++i)
    if (!first[i].empty()) v.check_bytes(i, false, first[i], "planned");
  for (std::uint32_t i = 0; i < served.size(); ++i) {
    if (served[i].empty()) continue;
    v.check_hash(i, false, body_hash(served[i]));
    v.check_bytes(i, false, served[i], "served");
  }
  if (!serve_errors.empty())
    v.fail(std::to_string(serve_errors.size()) +
               " served misses failed, first: " + serve_errors.front(),
           serve_errors.size());
  out->attempted = ops.size();

  if (!args.trace) {
    std::vector<double> ends, lat;
    for (const Op& op : ops) {
      ends.push_back(op.end_s);
      lat.push_back(op.latency_ms);
    }
    out->metrics["ops_per_s"] =
        chunked_rate(ends, span_s, kRateChunks, mix.size());
    note("throughput: " + std::to_string(ops.size()) + " plans in " +
                  fmt("%.3f s", span_s) +
                  fmt(", median chunk %.2f plans/s", out->metrics["ops_per_s"]));
    latency_metrics(lat, mix.size(), out);
    plan_metrics(refs, all, out, false);
    out->metrics["setup_s"] = median(setups);
    out->metrics["peak_rss_mb"] = rss;
    return;
  }

  auto& m = out->metrics;
  m["service.key_us.p50"] = percentile(log.durations_us("service.key"), 50);
  m["service.plan_us.p50"] = percentile(log.durations_us("service.plan"), 50);
  m["pruning.prune_us.p50"] = percentile(log.durations_us("pruning.prune"), 50);
  m["sharding.route_us.p50"] = percentile(log.durations_us("sharding.route"), 50);
  m["service.wire.serialize_us.p50"] =
      percentile(log.durations_us("service.wire.serialize"), 50);
  m["service.wire.parse_us.p50"] =
      percentile(log.durations_us("service.wire.parse"), 50);
  m["net.handler_ms.p50"] = p50_ms(log, "net.handle");
  m["net.self_ms.p50"] = percentile(log.self_us("net.request"), 50) / 1e3;
  m["models.build_ms.p50"] = p50_ms(log, "models.build");
  m["ir.lower_ms.p50"] = p50_ms(log, "ir.lower");
  double bytes = 0.0;
  for (const std::string& b : first) bytes += static_cast<double>(b.size());
  m["net.response_bytes.mean"] = bytes / static_cast<double>(first.size());
  pass_metrics(passes, out);
  plan_metrics(refs, all, out, true);
  m["trace.overhead_pct"] =
      untraced_ops > 0 ? 100.0 * (untraced_ops - traced_ops) / untraced_ops : 0.0;
  m["trace.spans"] = static_cast<double>(log.size());

  print_split(log.split_near_median("search.op", ""),
              {{"models.build", "models.build"},
               {"ir.lower", "ir.lower"},
               {"service.key", "service.key"},
               {"core.build_pattern_table", "core.build_pattern_table"},
               {"core.prune", "core.prune"},
               {"core.family_search", "core.family_search"},
               {"core.global_refine", "core.global_refine"},
               {"core.finalize_cost", "core.finalize_cost"},
               {"service.plan", "core.unattributed (plan - passes)"},
               {"service.wire.serialize", "service.wire.serialize"}},
              p50_ms(log, "search.op"), out);
  note("tracing overhead " +
                fmt("%.2f%% of untraced throughput", m["trace.overhead_pct"]));
  if (!args.spans_path.empty() && !log.write_jsonl(args.spans_path))
    note("could not write spans to " + args.spans_path);
}

std::string run_record(const Args& args, const Outcome& out,
                       const Verifier& verifier) {
  using tap::util::JsonValue;
  JsonValue messages = JsonValue::array();
  for (const std::string& m : verifier.messages())
    messages.push_back(JsonValue::string(m));
  JsonValue r = JsonValue::object();
  r.set("cpu_model", JsonValue::string(cpu_model()));
  r.set("nproc", json_number(nproc()));
  r.set("kernel", JsonValue::string(kernel()));
  r.set("compiler", JsonValue::string(std::string("gcc ") + __VERSION__));
  r.set("build_type", JsonValue::string(PERFBENCH_BUILD_TYPE));
  r.set("cxx_flags", JsonValue::string(PERFBENCH_CXX_FLAGS));
  r.set("optimized", JsonValue::boolean(optimized_build()));
  r.set("sanitizer", JsonValue::boolean(sanitizer_build()));
  r.set("workload", JsonValue::string(workload_name(args.workload)));
  r.set("seed", json_number(static_cast<double>(args.seed)));
  r.set("seconds", json_number(args.seconds));
  r.set("trace", JsonValue::boolean(args.trace));
  r.set("clients", json_number(out.clients));
  r.set("attempted", json_number(static_cast<double>(out.attempted)));
  r.set("failed", json_number(static_cast<double>(verifier.failures())));
  r.set("sampled", json_number(static_cast<double>(out.sampled)));
  r.set("check_failures", std::move(messages));
  return r.dump();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) return 2;
  if (!optimized_build() || sanitizer_build()) {
    std::cerr << "perfbench: refusing to time an unoptimized or sanitizer "
                 "build (build type "
              << PERFBENCH_BUILD_TYPE << ", flags '" << PERFBENCH_CXX_FLAGS
              << "')\n";
    return 4;
  }
  std::filesystem::create_directories(args.workdir);

  Verifier verifier;
  Outcome out;
  out.verifier = &verifier;
  try {
    if (args.workload == Workload::kSearchCold) {
      run_cold(args, &out);
    } else {
      run_serve(args, &out);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  const std::uint64_t failed = verifier.failures();
  std::cout << "checks: " << failed << " failed ("
            << verifier.mismatches(false) << " plan bodies and "
            << verifier.mismatches(true)
            << " explain bodies differ from their references)\n";
  for (const std::string& msg : verifier.messages())
    std::cerr << "perfbench: check failed: " << msg << "\n";

  const std::string record = run_record(args, out, verifier);
  std::cout << "record " << record << "\n";
  if (!args.record_path.empty()) std::ofstream(args.record_path) << record << "\n";

  using tap::util::JsonValue;
  JsonValue metrics = JsonValue::object();
  const auto& defs = args.trace ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                         std::end(kPerLayer))
                                : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                         std::end(kEndToEnd));
  for (const MetricDef& d : defs) {
    const auto it = out.metrics.find(d.name);
    JsonValue metric = JsonValue::object();
    metric.set("value", json_number(it == out.metrics.end() ? 0.0 : it->second));
    metric.set("unit", JsonValue::string(d.unit));
    metrics.set(d.name, std::move(metric));
  }
  const bool correct = failed == 0 && out.attempted > 0;
  JsonValue result = JsonValue::object();
  result.set("correct", JsonValue::boolean(correct));
  result.set("attempted", json_number(static_cast<double>(
                              std::max<std::uint64_t>(out.attempted, 1))));
  result.set("failed", json_number(static_cast<double>(failed)));
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}
