// FamilySearchPolicy — the pluggable candidate-selection strategy behind
// the FamilySearch pass (§4.4, Algorithm 2).
//
// A policy picks the best member-pattern assignment for ONE subgraph
// family; the pass replays the winner onto every instance of the family.
// TAP ships three policies:
//   * ExhaustivePolicy — the full Cartesian product of member patterns
//     (729 candidates for a T5 encoder block, §6.3.1);
//   * GreedyPolicy     — optimize one member at a time, O(Σ patterns);
//   * AutoPolicy       — exhaustive while the product fits
//     TapOptions::max_plans_per_family, greedy beyond (the default).
// The Alpa-like and FlexFlow-like baselines implement the same interface
// with whole-graph mutation policies (src/baselines/*.cpp) and drive the
// same pipeline, so "which search strategy" is a plug-in decision, not a
// fork of the planner.
#pragma once

#include "core/plan_context.h"

namespace tap::core {

/// Candidate score: communication decides; near-ties go to the plan with
/// less per-device weight memory (the paper's §6.4.1 memory advantage).
struct FamilyScore {
  double comm = 0.0;
  std::int64_t weight_bytes = 0;

  bool better_than(const FamilyScore& other) const {
    if (comm < other.comm * (1.0 - 1e-9)) return true;
    if (comm > other.comm * (1.0 + 1e-9)) return false;
    return weight_bytes < other.weight_bytes;
  }
};

/// The plan-independent route facts of one family, computed once per
/// family search (FamilySearchContext::prepare) and read by every
/// candidate's score().
struct FamilyRouteFacts {
  const pruning::SubgraphFamily* family = nullptr;
  /// The members in topological order: the router's visit order.
  std::vector<ir::GraphNodeId> topo_members;
  /// sharding::subgraph_exit_member of the members.
  ir::GraphNodeId exit = ir::kInvalidGraphNode;
};

/// Read-only scoring facilities shared by every policy, bound to one
/// (graph, options, pattern table) triple. All methods are const and
/// thread-safe: the FamilySearch pass calls them concurrently for
/// disjoint families.
class FamilySearchContext {
 public:
  FamilySearchContext(const ir::TapGraph& tg, const TapOptions& opts,
                      const sharding::PatternTable& table);

  const ir::TapGraph& graph() const { return tg_; }
  const TapOptions& options() const { return opts_; }
  const sharding::PatternTable& table() const { return table_; }

  /// The route facts of `family`, for the score() calls of one search.
  FamilyRouteFacts prepare(const pruning::SubgraphFamily& family) const;

  /// Steady-state subgraph score of `plan` restricted to the family
  /// (Algorithm 3 over the members only: route once with a replicated
  /// boundary to learn the exit layout, then route again with
  /// boundary = exit and cost that route with cost::comm_cost over the
  /// members' backward-compute overlap window). Both routes reuse a
  /// thread-local routing scratch and the window sums precomputed
  /// addends, so a candidate formats, sorts and allocates nothing once
  /// capacities settle. Returns false when the candidate does not route.
  bool score(const sharding::ShardingPlan& plan, const FamilyRouteFacts& facts,
             FamilyScore* out, SearchStats* stats) const;

  /// Full-graph communication cost of `plan` — the O(V+E) cost query the
  /// whole-graph baseline policies issue per trial. Returns false when the
  /// plan does not route.
  bool evaluate_full_graph(const sharding::ShardingPlan& plan, double* cost,
                           SearchStats* stats) const;

 private:
  /// Local per-device bytes of the primary weights under the candidate
  /// (dp replicas never shard weights; only the tp layout matters).
  std::int64_t weight_bytes(const pruning::SubgraphFamily& family,
                            const sharding::ShardingPlan& plan) const;

  const ir::TapGraph& tg_;
  const TapOptions& opts_;
  const sharding::PatternTable& table_;
  const cost::WindowTerms window_terms_;
};

/// Result of one family search.
struct FamilySearchOutcome {
  bool found = false;
  /// Winning pattern choice, aligned with family.member_nodes.
  std::vector<int> choice;
  SearchStats stats;
};

class FamilySearchPolicy {
 public:
  virtual ~FamilySearchPolicy() = default;
  virtual std::string name() const = 0;

  /// Selects a member-pattern assignment for `family`, starting from
  /// `base` (subgraph scoring only reads the members' choices, so the rest
  /// of `base` is irrelevant). Policies used by the parallel FamilySearch
  /// pass must be safe to call concurrently — the TAP policies are
  /// stateless; stochastic baseline policies keep internal state and are
  /// only driven single-threaded (one whole-graph family).
  virtual FamilySearchOutcome search(
      const FamilySearchContext& ctx, const pruning::SubgraphFamily& family,
      const sharding::ShardingPlan& base) const = 0;
};

/// Full Cartesian-product enumeration (Algorithm 2's inner loop).
class ExhaustivePolicy final : public FamilySearchPolicy {
 public:
  std::string name() const override { return "exhaustive"; }
  FamilySearchOutcome search(const FamilySearchContext& ctx,
                             const pruning::SubgraphFamily& family,
                             const sharding::ShardingPlan& base) const override;
};

/// Greedy fallback: optimize one member at a time.
class GreedyPolicy final : public FamilySearchPolicy {
 public:
  std::string name() const override { return "greedy"; }
  FamilySearchOutcome search(const FamilySearchContext& ctx,
                             const pruning::SubgraphFamily& family,
                             const sharding::ShardingPlan& base) const override;
};

/// The default strategy: exhaustive when the family's candidate count fits
/// TapOptions::max_plans_per_family, greedy beyond.
class AutoPolicy final : public FamilySearchPolicy {
 public:
  std::string name() const override { return "auto"; }
  FamilySearchOutcome search(const FamilySearchContext& ctx,
                             const pruning::SubgraphFamily& family,
                             const sharding::ShardingPlan& base) const override;

 private:
  ExhaustivePolicy exhaustive_;
  GreedyPolicy greedy_;
};

}  // namespace tap::core
