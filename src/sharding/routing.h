// Pattern routing (§4.5, Algorithm 3): validate that a candidate plan's
// patterns chain into a connected root→leaf path, resolving every edge's
// tensor layout and inserting re-shard collectives where producer and
// consumer layouts disagree.
//
// Conversions the router may insert on an edge:
//   replicate → split       : free (each device slices locally)
//   split     → replicate   : AllGather  (mirrored by a backward
//                             ReduceScatter on the gradient path)
//   split(a)  → split(b)    : AllToAll   (mirrored by a backward AllToAll)
// A conversion to a split layout is only legal when the tensor axis
// divides evenly across the group; otherwise the plan is INVALID — this is
// the FALSE branch of Algorithm 3.
#pragma once

#include <string>
#include <vector>

#include "sharding/plan.h"

namespace tap::sharding {

/// One collective the routed plan requires.
struct CommEvent {
  enum class Phase : std::uint8_t { kForward, kBackward };
  /// Why the router emitted the collective; comm_reason() spells it
  /// lazily (simulator trace names, tests), so routing a candidate formats
  /// nothing:
  ///   kReshard             "reshard <from>-><to>" (forward layout change)
  ///   kReshardGrad         "grad of reshard <from>-><to>"
  ///   kPattern             "pattern:<name>" (the pattern's collective)
  ///   kPatternGrad         "grad:<name>" (its AllToAll on the gradient path)
  ///   kWeightGrad          "wgrad:<name>" (replicated-weight gradient sync)
  ///   kSecondaryWeightGrad "wgrad:secondary"
  ///   kShardWeightGrad     "wgrad:dp-shard:<name>" (split weight over dp)
  ///   kInputGrad           "igrad:<name>" (partial input-gradient sum)
  enum class Why : std::uint8_t {
    kReshard,
    kReshardGrad,
    kPattern,
    kPatternGrad,
    kWeightGrad,
    kSecondaryWeightGrad,
    kShardWeightGrad,
    kInputGrad,
  };

  Collective kind = Collective::kNone;
  /// Full logical bytes of the tensor being communicated (already scaled
  /// to the per-replica activation size when dp > 1).
  std::int64_t bytes = 0;
  int count = 1;
  Phase phase = Phase::kForward;
  /// Devices participating in the collective (tp group for activation
  /// collectives, dp group or the whole world for gradient sync). 0 means
  /// "the plan's tp group" for backward compatibility.
  int group = 0;
  /// True for collectives over the dp dimension, which is laid out across
  /// nodes: the cost model must use inter-node bandwidth even when the
  /// group is small.
  bool cross_node = false;
  /// Weight-gradient AllReduces can overlap with backward compute and be
  /// fused by gradient packing (§4.6/§4.7.1); layout conversions and
  /// partial-sum reductions on the activation path cannot.
  bool overlappable = false;
  ir::GraphNodeId node = ir::kInvalidGraphNode;
  /// For reshard events: the producer cluster of the converted edge.
  ir::GraphNodeId src = ir::kInvalidGraphNode;
  /// For both events of a reshard: the layouts being converted between.
  ShardSpec from_spec = ShardSpec::replicate();
  ShardSpec to_spec = ShardSpec::replicate();
  Why why = Why::kPattern;
};

/// One edge whose tensor must change layout between producer and consumer
/// clusters — recorded for EVERY such edge, including consumers that reuse
/// a conversion another consumer already paid for (the rewriter wires each
/// of them through the shared conversion node).
struct EdgeConversion {
  ir::GraphNodeId src = ir::kInvalidGraphNode;
  ir::GraphNodeId dst = ir::kInvalidGraphNode;
  ShardSpec from = ShardSpec::replicate();
  ShardSpec to = ShardSpec::replicate();
};

struct RoutedPlan {
  bool valid = false;
  std::string error;
  /// The mesh the plan was routed for (copied from the ShardingPlan).
  int num_shards = 1;
  int dp_replicas = 1;
  /// Resolved output layout per GraphNode. A subgraph route
  /// (route_subgraph*) resolves only its members: the entries of other
  /// GraphNodes are unspecified.
  std::vector<ShardSpec> output_spec;
  /// Resolved pattern per GraphNode (index into patterns_for); same
  /// member-only rule for subgraph routes.
  std::vector<int> pattern_index;
  std::vector<CommEvent> comms;
  /// Layout changes per edge (see EdgeConversion).
  std::vector<EdgeConversion> edge_conversions;

  std::int64_t total_comm_bytes() const;
  std::int64_t forward_comm_bytes() const;
  std::int64_t backward_comm_bytes() const;
  std::int64_t overlappable_comm_bytes() const;
};

/// Reusable working buffers for the router. One route allocates them; a
/// second route through the same scratch reuses the capacity, touching
/// only the entries the previous route dirtied — this is what makes the
/// planner's per-candidate routing allocation-free in steady state
/// (FamilySearchContext keeps one per search thread). Default-constructed
/// scratch is valid for any graph.
struct RoutingScratch {
  /// Producers whose partial input-gradient AllReduce is already emitted,
  /// indexed by GraphNodeId; `igrad_touched` lists the set entries so the
  /// next route clears them in O(touched), not O(V).
  std::vector<char> igrad_emitted;
  std::vector<ir::GraphNodeId> igrad_touched;
  /// Layouts already materialized per producer (AllGather dedup), with
  /// the same touched-list reset discipline.
  std::vector<std::vector<ShardSpec>> materialized;
  std::vector<ir::GraphNodeId> materialized_touched;
  /// Pattern storage for table-less routing.
  std::vector<ShardingPattern> patterns;
  /// written[id] == route_stamp once the current route has resolved
  /// GraphNode id's output layout; every route takes a fresh stamp, so
  /// nothing is cleared between routes.
  std::vector<std::uint32_t> written;
  std::uint32_t route_stamp = 0;
};

/// Routes `plan` over the whole TapGraph. Always returns a RoutedPlan;
/// check `valid` / `error`.
RoutedPlan route_plan(const ir::TapGraph& tg, const ShardingPlan& plan,
                      const PatternTable* table = nullptr);

/// Routes only the GraphNodes in `members` (one pruned-subgraph family
/// instance, in any order); tensors entering from outside the subgraph
/// are assumed to arrive in layout `boundary`. This is what makes TAP's
/// candidate evaluation O(E / 2CL) (Table 2): the 729 T5-block candidates
/// each touch one block, not the whole model. For chained blocks, evaluate
/// in steady state: route once with a replicated boundary to learn the
/// exit layout (subgraph_exit_member), then score with boundary = exit
/// layout.
RoutedPlan route_subgraph(
    const ir::TapGraph& tg, const ShardingPlan& plan,
    const std::vector<ir::GraphNodeId>& members,
    const ShardSpec& boundary = ShardSpec::replicate(),
    const PatternTable* table = nullptr);

/// route_subgraph into caller-owned buffers, for members ALREADY in
/// topological order (sort them once per family with
/// topo_sorted_members): `out`'s vectors and `scratch` are cleared and
/// reused instead of reallocated, so repeated candidate evaluation
/// (FamilySearchContext::score) allocates nothing once capacities warm
/// up. `out` must not alias a RoutedPlan reachable from `scratch`. Results
/// are identical to route_subgraph.
void route_subgraph_into(const ir::TapGraph& tg, const ShardingPlan& plan,
                         const std::vector<ir::GraphNodeId>& topo_members,
                         const ShardSpec& boundary, const PatternTable* table,
                         RoutingScratch* scratch, RoutedPlan* out);

/// route_plan into caller-owned buffers (same contract as
/// route_subgraph_into).
void route_plan_into(const ir::TapGraph& tg, const ShardingPlan& plan,
                     const PatternTable* table, RoutingScratch* scratch,
                     RoutedPlan* out);

/// `members` sorted by topological position: the router's visit order.
std::vector<ir::GraphNodeId> topo_sorted_members(
    const ir::TapGraph& tg, const std::vector<ir::GraphNodeId>& members);

/// The member whose layout a routed subgraph hands to downstream
/// consumers: the last member (in topological order) with a consumer
/// outside `members` or no consumer at all, else `members.back()`;
/// kInvalidGraphNode for an empty set. It depends on the graph only, not
/// on the plan, so a family search finds it once; the exit layout of a
/// route is `routed.output_spec[exit]`.
ir::GraphNodeId subgraph_exit_member(
    const ir::TapGraph& tg, const std::vector<ir::GraphNodeId>& members);

/// The label of a routed collective, e.g. "reshard S(1)->R",
/// "pattern:split_col" or "wgrad:dp-shard:split_row". Pattern names come
/// from patterns_for through `routed.pattern_index`, so only diagnostics
/// pay for the string.
std::string comm_reason(const ir::TapGraph& tg, const RoutedPlan& routed,
                        const CommEvent& e);

}  // namespace tap::sharding
