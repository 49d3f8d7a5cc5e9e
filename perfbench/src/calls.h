// Direct, span-timed calls into the planner's public functions: the
// search-cold operation, and the in-process replay of a serve leg's
// request sequence that splits a served request into its layers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/tap.h"
#include "layers.h"
#include "service/wire.h"
#include "workloads.h"

namespace perfbench {

/// Per-pass search time, from TapResult::pass_timings, of every search a
/// traced leg ran. For a mesh sweep the passes cover only the winning
/// factorization, so the rest of the search's wall time is kept apart as
/// unattributed, never spread over the passes.
struct PassAccount {
  std::vector<double> family_search_ms;
  std::vector<double> global_refine_ms;
  std::vector<double> prune_ms;
  std::vector<double> build_pattern_table_ms;
  std::vector<double> finalize_cost_ms;
  std::vector<double> unattributed_ms;
  /// Fixed-mesh searches only (where passes and counts cover the same
  /// work): FamilySearch seconds and candidates examined.
  double fixed_family_search_s = 0.0;
  std::int64_t fixed_candidates = 0;

  /// `plan_ms` is the wall time of the call that produced `r`, starting
  /// at `start`. With a log, each pass also becomes a core.* span of
  /// `request`, caused by service.plan and laid end to end from `start`.
  void add(const tap::core::TapResult& r, double plan_ms, bool sweep,
           SpanLog* log, std::uint64_t request, Clock::time_point start);

  bool empty() const { return family_search_ms.empty(); }
};

/// One search-cold operation: build_spec_model -> ir::lower -> a fresh
/// PlannerService (threads=1, memory tier only) -> key_for + plan ->
/// plan_response_json. With a log, the operation is a search.op span of
/// `request` and each call a span it caused; the final plan is routed once
/// more (sharding.route), the graph re-pruned (pruning.prune) and the
/// spec's wire body parsed (service.wire.parse) after the operation's
/// clock stops, and the search's passes go to `passes`.
struct ColdOp {
  std::string body;
  double latency_ms = 0.0;
};
ColdOp plan_cold(const tap::service::ModelSpec& spec, SpanLog* log,
                 std::uint64_t request, PassAccount* passes);

struct ReplayResult {
  /// Replayed plan requests and their answers' hashes, for the checks.
  std::vector<std::uint32_t> specs;
  std::vector<std::uint64_t> hashes;
  std::vector<double> response_bytes;
  PassAccount passes;
  /// The searches that warmed the replayed service.
  PassAccount setup_passes;
};

/// Replays the plan requests at sequence positions `ids` (ascending) on a
/// fresh PlannerService warmed like the measured stack (the warm-up's
/// searches go to setup_passes), through
/// model_spec_from_json, key_for, plan, prune_graph, route_plan and
/// plan_response_json. Each call is a span of its request: parse, key,
/// plan and serialize as parts of net.handle; prune and route, which a
/// cache hit redoes inside plan, as parts of service.plan. Stops after
/// `max_seconds`.
ReplayResult replay_serve(const ServeWorkload& w,
                          const std::vector<std::uint64_t>& ids,
                          const std::string& cache_dir, double max_seconds,
                          SpanLog* log);

}  // namespace perfbench
