#include "core/serialize.h"

#include <cmath>
#include <cstdio>
#include <string_view>

#include "util/check.h"
#include "util/hash.h"

namespace tap::core {

using util::JsonValue;

namespace {

/// PlanRecord keys, in the one order the writer emits and the reader
/// accepts.
constexpr std::string_view kRecordKeys[] = {
    "version",  "mesh",    "choice",         "cost",    "stats",
    "coverage", "timings", "search_seconds", "checksum"};

JsonValue int_array(std::initializer_list<std::int64_t> values) {
  JsonValue a = JsonValue::array();
  for (std::int64_t v : values)
    a.push_back(JsonValue::number(static_cast<double>(v)));
  return a;
}

/// JSON has no spelling for inf/nan: refuse them rather than write a file
/// no reader accepts.
JsonValue finite(double v) {
  TAP_CHECK(std::isfinite(v)) << "plan record: non-finite value " << v;
  return JsonValue::number(v);
}

/// The elements of `v`, which must be an array of exactly `n`.
const std::vector<JsonValue>& tuple(const JsonValue& v, std::size_t n,
                                    std::string_view key) {
  const auto& items = v.items();
  TAP_CHECK_EQ(items.size(), n)
      << "\"" << std::string(key) << "\" must have " << n << " elements";
  return items;
}

/// Reads a [dp, tp] mesh into `plan` (both >= 1).
void read_mesh(const JsonValue& v, sharding::ShardingPlan* plan) {
  const auto& mesh = tuple(v, 2, "mesh");
  plan->dp_replicas = mesh[0].as_int32();
  plan->num_shards = mesh[1].as_int32();
  TAP_CHECK_GE(plan->dp_replicas, 1);
  TAP_CHECK_GE(plan->num_shards, 1);
}

}  // namespace

JsonValue plan_to_value(const ir::TapGraph& tg,
                        const sharding::ShardingPlan& plan) {
  TAP_CHECK_EQ(plan.choice.size(), tg.num_nodes());
  JsonValue assignments = JsonValue::object();
  for (const auto& n : tg.nodes()) {
    if (!n.has_weight()) continue;
    auto pats = sharding::patterns_for(tg, n.id, plan.num_shards,
                                       plan.dp_replicas);
    int c = plan.choice[static_cast<std::size_t>(n.id)];
    TAP_CHECK(c >= 0 && c < static_cast<int>(pats.size()))
        << "plan has no valid pattern for '" << n.name << "'";
    assignments.set(n.name, JsonValue::string(
                                pats[static_cast<std::size_t>(c)].name));
  }
  JsonValue doc = JsonValue::object();
  doc.set("mesh", int_array({plan.dp_replicas, plan.num_shards}));
  doc.set("assignments", std::move(assignments));
  return doc;
}

sharding::ShardingPlan plan_from_value(const ir::TapGraph& tg,
                                       const JsonValue& doc) {
  sharding::ShardingPlan plan;
  bool have_mesh = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "mesh") {
      read_mesh(value, &plan);
      have_mesh = true;
      plan.choice.assign(tg.num_nodes(), 0);
    } else if (key == "assignments") {
      TAP_CHECK(have_mesh) << "plan JSON: \"mesh\" must precede "
                              "\"assignments\"";
      for (const auto& [node, pattern_value] : value.members()) {
        const std::string& pattern = pattern_value.as_string();
        ir::GraphNodeId id = tg.find(node);
        TAP_CHECK(id != ir::kInvalidGraphNode)
            << "plan references unknown GraphNode '" << node << "'";
        auto pats = sharding::patterns_for(tg, id, plan.num_shards,
                                           plan.dp_replicas);
        bool resolved = false;
        for (std::size_t i = 0; i < pats.size(); ++i) {
          if (pats[i].name == pattern) {
            plan.choice[static_cast<std::size_t>(id)] =
                static_cast<int>(i);
            resolved = true;
          }
        }
        TAP_CHECK(resolved) << "pattern '" << pattern
                            << "' not applicable to '" << node
                            << "' under mesh " << plan.mesh().to_string();
      }
    } else {
      TAP_CHECK(false) << "plan JSON: unknown key '" << key << "'";
    }
  }
  TAP_CHECK(have_mesh) << "plan JSON: missing \"mesh\"";
  return plan;
}

std::string plan_to_json(const ir::TapGraph& tg,
                         const sharding::ShardingPlan& plan) {
  return plan_to_value(tg, plan).dump();
}

sharding::ShardingPlan plan_from_json(const ir::TapGraph& tg,
                                      const std::string& json) {
  return plan_from_value(tg, JsonValue::parse(json));
}

namespace {

/// The record's content in the writer's key order, without the checksum.
JsonValue record_content(const PlanRecord& record) {
  JsonValue choice = JsonValue::array();
  for (int c : record.plan.choice) choice.push_back(JsonValue::number(c));
  JsonValue cost = JsonValue::array();
  for (double v : {record.cost.forward_comm_s, record.cost.backward_comm_s,
                   record.cost.overlappable_comm_s})
    cost.push_back(finite(v));
  cost.push_back(
      JsonValue::number(static_cast<double>(record.cost.comm_bytes)));
  JsonValue timings = JsonValue::array();
  for (const PassTiming& t : record.timings) {
    JsonValue entry = JsonValue::array();
    entry.push_back(JsonValue::string(t.pass));
    entry.push_back(finite(t.seconds));
    timings.push_back(std::move(entry));
  }

  JsonValue doc = JsonValue::object();
  doc.set("version", JsonValue::number(kPlanRecordVersion));
  doc.set("mesh", int_array({record.plan.dp_replicas, record.plan.num_shards}));
  doc.set("choice", std::move(choice));
  doc.set("cost", std::move(cost));
  doc.set("stats", int_array({record.stats.candidate_plans,
                              record.stats.valid_plans,
                              record.stats.nodes_visited,
                              record.stats.cost_queries}));
  doc.set("coverage",
          int_array({record.families_searched, record.families_total,
                     record.meshes_searched, record.meshes_total}));
  doc.set("timings", std::move(timings));
  doc.set("search_seconds", finite(record.search_seconds));
  return doc;
}

/// Hex util::Hash128 of the compact spelling of `content`: the record's
/// canonical content, so any decoded value that differs from what was
/// written changes it, whatever the file's whitespace.
std::string content_checksum(const JsonValue& content) {
  const util::Hash128 h = util::hash128_str(content.dump());
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  return buf;
}

}  // namespace

std::string plan_record_to_json(const ir::TapGraph& tg,
                                const PlanRecord& record) {
  TAP_CHECK_EQ(record.plan.choice.size(), tg.num_nodes())
      << "record does not cover the graph";
  JsonValue doc = record_content(record);
  const std::string checksum = content_checksum(doc);
  doc.set("checksum", JsonValue::string(checksum));
  return doc.dump();
}

PlanRecord plan_record_from_json(const ir::TapGraph& tg,
                                 const std::string& json) {
  const JsonValue doc = JsonValue::parse(json);
  const auto& members = doc.members();

  // Version gate FIRST: a mismatch must reject the payload before
  // anything else is interpreted.
  TAP_CHECK(!members.empty() && members[0].first == "version")
      << "plan record: \"version\" must be the first key";
  const std::int64_t version = members[0].second.as_int();
  if (version != kPlanRecordVersion) {
    throw StalePlanRecordError("plan record version " +
                               std::to_string(version) + ", want " +
                               std::to_string(kPlanRecordVersion));
  }

  constexpr std::size_t kNumKeys = std::size(kRecordKeys);
  TAP_CHECK_EQ(members.size(), kNumKeys) << "plan record: wrong key count";
  for (std::size_t i = 0; i < kNumKeys; ++i) {
    TAP_CHECK(members[i].first == kRecordKeys[i])
        << "plan record: expected key \"" << std::string(kRecordKeys[i])
        << "\"";
  }
  auto field = [&](std::size_t i) -> const JsonValue& {
    return members[i].second;
  };

  PlanRecord record;
  read_mesh(field(1), &record.plan);

  for (const JsonValue& c : field(2).items())
    record.plan.choice.push_back(c.as_int32());
  TAP_CHECK_EQ(record.plan.choice.size(), tg.num_nodes())
      << "plan record does not match the graph";
  for (const auto& n : tg.nodes()) {
    const int c = record.plan.choice[static_cast<std::size_t>(n.id)];
    const auto pats = sharding::patterns_for(
        tg, n.id, record.plan.num_shards, record.plan.dp_replicas);
    TAP_CHECK(c >= 0 && c < static_cast<int>(pats.size()))
        << "plan record: choice " << c << " out of range for '" << n.name
        << "'";
  }

  const auto& cost = tuple(field(3), 4, kRecordKeys[3]);
  record.cost.forward_comm_s = cost[0].as_number();
  record.cost.backward_comm_s = cost[1].as_number();
  record.cost.overlappable_comm_s = cost[2].as_number();
  record.cost.comm_bytes = cost[3].as_int();

  const auto& stats = tuple(field(4), 4, kRecordKeys[4]);
  record.stats.candidate_plans = stats[0].as_int();
  record.stats.valid_plans = stats[1].as_int();
  record.stats.nodes_visited = stats[2].as_int();
  record.stats.cost_queries = stats[3].as_int();

  const auto& coverage = tuple(field(5), 4, kRecordKeys[5]);
  record.families_searched = coverage[0].as_int();
  record.families_total = coverage[1].as_int();
  record.meshes_searched = coverage[2].as_int();
  record.meshes_total = coverage[3].as_int();

  for (const JsonValue& t : field(6).items()) {
    const auto& entry = tuple(t, 2, kRecordKeys[6]);
    record.timings.push_back({entry[0].as_string(), entry[1].as_number()});
  }

  record.search_seconds = field(7).as_number();

  // Last: the stored checksum must match the content as decoded. A record
  // damaged in a way that still parses and validates (two choices
  // swapped, a cost digit changed) is corrupt, not a hit.
  TAP_CHECK(field(8).as_string() == content_checksum(record_content(record)))
      << "plan record: checksum mismatch";
  return record;
}

}  // namespace tap::core
