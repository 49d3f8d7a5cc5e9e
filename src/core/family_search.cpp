#include "core/family_search.h"

#include "sharding/enumerate.h"
#include "sharding/routing.h"

namespace tap::core {

using pruning::SubgraphFamily;
using sharding::FamilyPlanEnumerator;
using sharding::ShardingPlan;

namespace {

/// Per-thread routing buffers behind score() / evaluate_full_graph():
/// both routes of a candidate (replicated-boundary probe, then the
/// steady-state route) reuse them, so the search allocates nothing per
/// candidate once capacities settle.
struct ScoreArena {
  sharding::RoutingScratch routing;
  sharding::RoutedPlan probe;   ///< replicated-boundary probe route
  sharding::RoutedPlan routed;  ///< steady-state (exit-spec) route
};

thread_local ScoreArena score_arena;

}  // namespace

FamilySearchContext::FamilySearchContext(const ir::TapGraph& tg,
                                         const TapOptions& opts,
                                         const sharding::PatternTable& table)
    : tg_(tg),
      opts_(opts),
      table_(table),
      window_terms_(tg, opts.num_shards, opts.dp_replicas, opts.cluster,
                    &table) {}

FamilyRouteFacts FamilySearchContext::prepare(
    const SubgraphFamily& family) const {
  FamilyRouteFacts facts;
  facts.family = &family;
  facts.topo_members = sharding::topo_sorted_members(tg_, family.member_nodes);
  facts.exit = sharding::subgraph_exit_member(tg_, family.member_nodes);
  return facts;
}

std::int64_t FamilySearchContext::weight_bytes(
    const SubgraphFamily& family, const ShardingPlan& plan) const {
  const Graph& g = *tg_.source();
  std::int64_t total = 0;
  for (ir::GraphNodeId id : family.member_nodes) {
    const auto& n = tg_.node(id);
    if (!n.has_weight()) continue;
    const auto& pats = table_.at(id);
    const auto& pat = pats[static_cast<std::size_t>(
        plan.choice[static_cast<std::size_t>(id)])];
    for (NodeId wid : n.weight_ops) {
      std::int64_t bytes = g.node(wid).weight->size_bytes();
      if (pat.weight.is_split() &&
          pat.weight.fits(g.node(wid).weight->shape, opts_.num_shards)) {
        bytes /= opts_.num_shards;
      }
      total += bytes;
    }
  }
  return total;
}

bool FamilySearchContext::score(const ShardingPlan& plan,
                                const FamilyRouteFacts& facts,
                                FamilyScore* out, SearchStats* stats) const {
  const SubgraphFamily& family = *facts.family;
  stats->nodes_visited +=
      static_cast<std::int64_t>(family.member_nodes.size());
  ScoreArena& arena = score_arena;
  sharding::route_subgraph_into(tg_, plan, facts.topo_members,
                                sharding::ShardSpec::replicate(), &table_,
                                &arena.routing, &arena.probe);
  if (!arena.probe.valid) return false;
  const sharding::ShardSpec exit_spec =
      arena.probe.output_spec[static_cast<std::size_t>(facts.exit)];
  sharding::route_subgraph_into(tg_, plan, facts.topo_members, exit_spec,
                                &table_, &arena.routing, &arena.routed);
  if (!arena.routed.valid) return false;
  ++stats->cost_queries;
  cost::CostOptions copts = opts_.cost;
  copts.overlap_window_s = cost::backward_compute_window(
      window_terms_, arena.routed, &family.member_nodes);
  const cost::PlanCost plan_cost =
      cost::comm_cost(arena.routed, plan.num_shards, opts_.cluster, copts);
  out->comm = plan_cost.total();
  out->weight_bytes = weight_bytes(family, plan);
  return true;
}

bool FamilySearchContext::evaluate_full_graph(const ShardingPlan& plan,
                                              double* cost,
                                              SearchStats* stats) const {
  stats->nodes_visited += static_cast<std::int64_t>(tg_.num_nodes());
  ScoreArena& arena = score_arena;
  sharding::route_plan_into(tg_, plan, &table_, &arena.routing,
                            &arena.routed);
  if (!arena.routed.valid) return false;
  ++stats->cost_queries;
  *cost = cost::comm_cost(arena.routed, plan.num_shards, opts_.cluster,
                          opts_.cost)
              .total();
  return true;
}

FamilySearchOutcome ExhaustivePolicy::search(
    const FamilySearchContext& ctx, const SubgraphFamily& family,
    const ShardingPlan& base) const {
  FamilySearchOutcome out;
  FamilyPlanEnumerator enumerator(ctx.graph(), family,
                                  ctx.options().num_shards);
  const FamilyRouteFacts facts = ctx.prepare(family);
  ShardingPlan scratch = base;
  FamilyScore best;
  std::vector<int> choice;
  while (enumerator.next(&choice)) {
    ++out.stats.candidate_plans;
    sharding::apply_family_choice(family, choice, &scratch);
    FamilyScore s;
    if (!ctx.score(scratch, facts, &s, &out.stats)) continue;
    ++out.stats.valid_plans;
    // better_than is strict, so ties keep the earliest candidate.
    if (!out.found || s.better_than(best)) {
      out.found = true;
      best = s;
      out.choice = choice;
    }
  }
  return out;
}

FamilySearchOutcome GreedyPolicy::search(const FamilySearchContext& ctx,
                                         const SubgraphFamily& family,
                                         const ShardingPlan& base) const {
  FamilySearchOutcome out;
  const FamilyRouteFacts facts = ctx.prepare(family);
  ShardingPlan scratch = base;
  std::vector<int> choice(family.member_nodes.size(), 0);
  for (std::size_t j = 0; j < family.member_nodes.size(); ++j) {
    int best_k = 0;
    FamilyScore best_local;
    bool have_local = false;
    const auto& pats = ctx.table().at(family.member_nodes[j]);
    for (std::size_t k = 0; k < pats.size(); ++k) {
      choice[j] = static_cast<int>(k);
      ++out.stats.candidate_plans;
      sharding::apply_family_choice(family, choice, &scratch);
      FamilyScore s;
      if (!ctx.score(scratch, facts, &s, &out.stats)) continue;
      ++out.stats.valid_plans;
      if (!have_local || s.better_than(best_local)) {
        have_local = true;
        best_local = s;
        best_k = static_cast<int>(k);
      }
    }
    choice[j] = best_k;
    out.found = out.found || have_local;
  }
  out.choice = choice;
  return out;
}

FamilySearchOutcome AutoPolicy::search(const FamilySearchContext& ctx,
                                       const SubgraphFamily& family,
                                       const ShardingPlan& base) const {
  FamilyPlanEnumerator enumerator(ctx.graph(), family,
                                  ctx.options().num_shards);
  if (enumerator.total_plans() <= ctx.options().max_plans_per_family) {
    return exhaustive_.search(ctx, family, base);
  }
  return greedy_.search(ctx, family, base);
}

}  // namespace tap::core
