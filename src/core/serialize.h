// Plan serialization: persist a derived sharding plan and re-apply it to a
// freshly lowered graph. Searching once per architecture and shipping the
// plan with the training job is the intended production workflow; plans
// reference GraphNodes and patterns *by name*, so any identically-built
// model accepts them regardless of internal ids.
//
// Format: one compact JSON object,
//   {"mesh":[dp,tp],"assignments":{"<graphnode name>":"<pattern name>",...}}
// Only weighted GraphNodes are listed (glue always follows). Everything
// here is read and written through util::JsonValue: any standard spelling
// is accepted, and malformed input, unknown keys or nodes, non-integral or
// out-of-range numbers, and inapplicable patterns throw CheckError.
#pragma once

#include <string>

#include "core/plan_context.h"
#include "sharding/plan.h"
#include "util/json.h"

namespace tap::core {

/// The by-name plan document of `plan` against `tg`. The plan-response
/// wire format embeds this value as its "plan" field.
util::JsonValue plan_to_value(const ir::TapGraph& tg,
                              const sharding::ShardingPlan& plan);

/// Resolves a by-name plan document against `tg`. Unlisted weighted nodes
/// get pattern 0 (the data-parallel/replicate default).
sharding::ShardingPlan plan_from_value(const ir::TapGraph& tg,
                                       const util::JsonValue& doc);

/// plan_to_value, dumped.
std::string plan_to_json(const ir::TapGraph& tg,
                         const sharding::ShardingPlan& plan);

/// plan_from_value of the parsed `json`.
sharding::ShardingPlan plan_from_json(const ir::TapGraph& tg,
                                      const std::string& json);

// ---------------------------------------------------------------------------
// PlanRecord — the on-disk payload of the service plan cache
// ---------------------------------------------------------------------------
//
// A PlanRecord captures everything the PlannerService must return on a
// cache hit to be bit-identical to a cold search: the pattern choices, the
// final cost, the search statistics, the search coverage (families and
// meshes searched), and the per-pass timings of the run that produced the
// plan. Unlike the by-name plan JSON above (which is meant to be
// hand-editable and applied across rebuilds), the record stores pattern
// choices positionally (one index per GraphNodeId) — a cache hit already
// guarantees a structurally identical graph with identical deterministic
// node ids, and positional storage keeps renamed but structurally equal
// graphs servable. Layout, keys in exactly this order:
//   {"version":3,"mesh":[dp,tp],"choice":[c,...],"cost":[forward_s,
//    backward_s,overlappable_s,bytes],"stats":[candidates,valid,visited,
//    cost_queries],"coverage":[families_searched,families_total,
//    meshes_searched,meshes_total],"timings":[["<pass>",s],...],
//    "search_seconds":s,"checksum":"<32 hex digits>"}
// Doubles use 17 significant digits and round-trip exactly; non-finite
// ones have no JSON spelling, so the writer refuses them. `checksum` is
// the util::Hash128 of the compact spelling of every other key: a record
// whose decoded content does not match it is corrupt.
//
// The format is versioned: `version` is the FIRST key and readers reject
// any mismatch before touching the rest of the payload (throwing
// StalePlanRecordError), so cache files written by older code are
// discarded, never misinterpreted.

/// Bump whenever PlanRecord's layout OR any planning semantics change
/// (pattern catalog, cost model, search order) — stale plans must miss.
/// Version 3 added the content checksum.
inline constexpr int kPlanRecordVersion = 3;

/// A well-formed record whose version is not kPlanRecordVersion: written
/// by other code, not corrupt. The plan cache deletes such files instead
/// of quarantining them.
class StalePlanRecordError : public CheckError {
 public:
  using CheckError::CheckError;
};

struct PlanRecord {
  sharding::ShardingPlan plan;
  cost::PlanCost cost;
  SearchStats stats;
  /// PlanProvenance coverage of the search. Only complete plans are
  /// cached, so source, deadline_hit and fallback_reason are implied.
  std::int64_t families_searched = 0;
  std::int64_t families_total = 0;
  std::int64_t meshes_searched = 0;
  std::int64_t meshes_total = 0;
  std::vector<PassTiming> timings;
  /// Wall time of the cold search that produced the plan.
  double search_seconds = 0.0;
};

/// Serializes `record` (validated against `tg`: one choice per GraphNode;
/// every double finite).
std::string plan_record_to_json(const ir::TapGraph& tg,
                                const PlanRecord& record);

/// Parses a record and validates it against `tg`: version must equal
/// kPlanRecordVersion (StalePlanRecordError otherwise), the keys and tuple
/// sizes must be exactly the writer's, the choice vector must cover every
/// GraphNode, and every index must select an applicable pattern under the
/// record's mesh, and the checksum must match the decoded content. Throws
/// CheckError otherwise.
PlanRecord plan_record_from_json(const ir::TapGraph& tg,
                                 const std::string& json);

}  // namespace tap::core
