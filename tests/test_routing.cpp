#include "sharding/routing.h"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "baselines/expert_plans.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "pruning/prune.h"
#include "sharding/enumerate.h"

namespace tap::sharding {
namespace {

using ir::TapGraph;

struct Fixture {
  Graph g;
  TapGraph tg;
  explicit Fixture(Graph graph) : g(std::move(graph)), tg(ir::lower(g)) {}
};

Fixture t5(int layers = 1) {
  return Fixture(models::build_transformer(models::t5_with_layers(layers)));
}

/// Sets the pattern of a named weighted cluster by pattern name.
void set_pattern(const TapGraph& tg, ShardingPlan* plan,
                 const std::string& node, const std::string& pattern) {
  auto id = tg.find(node);
  ASSERT_NE(id, ir::kInvalidGraphNode) << node;
  auto pats = patterns_for(tg, id, plan->num_shards);
  for (std::size_t i = 0; i < pats.size(); ++i) {
    if (pats[i].name == pattern) {
      plan->choice[static_cast<std::size_t>(id)] = static_cast<int>(i);
      return;
    }
  }
  FAIL() << "pattern " << pattern << " not found for " << node;
}

TEST(Routing, DefaultDataParallelPlanIsValid) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid) << r.error;
  // Pure DP: no forward collectives on the activation path, all comm is
  // backward weight-gradient AllReduce.
  EXPECT_EQ(r.forward_comm_bytes(), 0);
  EXPECT_GT(r.backward_comm_bytes(), 0);
  EXPECT_EQ(r.backward_comm_bytes(), r.overlappable_comm_bytes());
}

TEST(Routing, DpGradientBytesEqualModelSize) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid);
  // Every trainable parameter is AllReduced exactly once (fp32 = 4B).
  EXPECT_EQ(r.backward_comm_bytes(), f.g.total_params() * 4);
}

TEST(Routing, MegatronStyleAttentionHasTwoAllReducesPerBlock) {
  Fixture f = t5();
  // Megatron: q/k/v split_col, o split_row; wi split_col, wo split_row.
  ShardingPlan plan = default_plan(f.tg, 8);
  for (const char* node :
       {"t5_1l/encoder/block_0/mha/q", "t5_1l/encoder/block_0/mha/k",
        "t5_1l/encoder/block_0/mha/v"})
    set_pattern(f.tg, &plan, node, "split_col");
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/mha/o", "split_row");
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wi", "split_col");
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wo", "split_row");
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid) << r.error;
  // Forward pattern comms: exactly the two partial-sum AllReduces (o, wo)
  // in this encoder block.
  int fwd_pattern_allreduce = 0;
  for (const auto& e : r.comms) {
    if (e.phase == CommEvent::Phase::kForward &&
        e.kind == Collective::kAllReduce &&
        comm_reason(f.tg, r, e).rfind("pattern:", 0) == 0 &&
        f.tg.node(e.node).name.find("block_0") != std::string::npos) {
      ++fwd_pattern_allreduce;
    }
  }
  EXPECT_EQ(fwd_pattern_allreduce, 2);
}

TEST(Routing, SplitColFeedsSplitRowWithoutReshard) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wi", "split_col");
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wo", "split_row");
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid) << r.error;
  // wi's split output flows through gelu straight into wo's required split
  // input: no reshard at the activation (ffn#1) or at wo. (Resharding at
  // wi's *entry* is expected — the surrounding plan is data parallel.)
  for (const auto& e : r.comms) {
    const std::string reason = comm_reason(f.tg, r, e);
    if (reason.rfind("reshard", 0) == 0) {
      const std::string& where = f.tg.node(e.node).name;
      EXPECT_EQ(where.find("ffn/wo"), std::string::npos)
          << reason << " at " << where;
      EXPECT_EQ(where.find("ffn#1"), std::string::npos)
          << reason << " at " << where;
    }
  }
}

TEST(Routing, LoneSplitColTriggersGatherAtNormBoundary) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wi", "split_col");
  // wo stays dp: requires S(0) input -> the split(-1) activation must be
  // re-sharded on the way.
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid) << r.error;
  bool reshard_seen = false;
  for (const auto& e : r.comms)
    reshard_seen |= comm_reason(f.tg, r, e).rfind("reshard", 0) == 0;
  EXPECT_TRUE(reshard_seen);
}

TEST(Routing, InvalidChoiceIndexFails) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  plan.choice[0] = 99;
  RoutedPlan r = route_plan(f.tg, plan);
  EXPECT_FALSE(r.valid);
  EXPECT_NE(r.error.find("no sharding pattern"), std::string::npos);
}

TEST(Routing, OutputSpecsArePopulated) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.output_spec.size(), f.tg.num_nodes());
  // Under DP the residual stream is batch-split.
  auto q = f.tg.find("t5_1l/encoder/block_0/mha/q");
  EXPECT_EQ(r.output_spec[static_cast<std::size_t>(q)], ShardSpec::split(0));
}

TEST(Routing, ScalarLossCollapsesToReplicated) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid);
  auto head = f.tg.find("t5_1l/head");
  ASSERT_NE(head, ir::kInvalidGraphNode);
  EXPECT_TRUE(
      r.output_spec[static_cast<std::size_t>(head)].is_replicate());
}

TEST(Routing, CommEventsCarryReasonsAndBytes) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  RoutedPlan r = route_plan(f.tg, plan);
  for (const auto& e : r.comms) {
    EXPECT_GT(e.bytes, 0);
    EXPECT_FALSE(comm_reason(f.tg, r, e).empty());
    EXPECT_NE(e.node, ir::kInvalidGraphNode);
  }
}

TEST(Routing, EveryEnumeratedT5BlockPlanRoutes) {
  // All 729 block candidates must either route cleanly or fail with a
  // divisibility explanation — never crash. With T5 dims everything
  // divides by 8, so they should all be valid.
  Fixture f = t5(2);
  pruning::PruneResult pr = pruning::prune_graph(f.tg);
  const pruning::SubgraphFamily* block = nullptr;
  for (const auto& fam : pr.families)
    if (fam.multiplicity() == 2 &&
        fam.representative.find("encoder/block_0") != std::string::npos)
      block = &fam;
  ASSERT_NE(block, nullptr);
  FamilyPlanEnumerator e(f.tg, *block, 8);
  EXPECT_EQ(e.total_plans(), 729);
  std::vector<int> choice;
  int valid = 0, total = 0;
  while (e.next(&choice)) {
    ShardingPlan plan = default_plan(f.tg, 8);
    apply_family_choice(*block, choice, &plan);
    RoutedPlan r = route_plan(f.tg, plan);
    ++total;
    valid += r.valid ? 1 : 0;
  }
  EXPECT_EQ(total, 729);
  EXPECT_EQ(valid, 729);
}

TEST(Routing, FamilyChoiceAppliesToAllInstances) {
  Fixture f = t5(3);
  pruning::PruneResult pr = pruning::prune_graph(f.tg);
  const pruning::SubgraphFamily* block = nullptr;
  for (const auto& fam : pr.families)
    if (fam.multiplicity() == 3) block = &fam;
  ASSERT_NE(block, nullptr);
  ShardingPlan plan = default_plan(f.tg, 8);
  std::vector<int> choice(block->member_nodes.size(), 0);
  // Set a non-default on the first weighted member.
  for (std::size_t j = 0; j < block->member_nodes.size(); ++j) {
    if (f.tg.node(block->member_nodes[j]).has_weight() &&
        patterns_for(f.tg, block->member_nodes[j], 8).size() > 1) {
      choice[j] = 1;
      break;
    }
  }
  apply_family_choice(*block, choice, &plan);
  // All three instances must have received the same pattern index.
  for (std::size_t i = 0; i < block->instances.size(); ++i) {
    for (std::size_t j = 0; j < choice.size(); ++j) {
      EXPECT_EQ(plan.choice[static_cast<std::size_t>(
                    block->instance_nodes[i][j])],
                choice[j]);
    }
  }
}

TEST(Routing, RouteIntoReusedScratchMatchesFreshRoute) {
  Fixture f = t5();
  PatternTable table(f.tg, 8, 1);
  ShardingPlan plan = default_plan(f.tg, 8);

  RoutingScratch scratch;
  RoutedPlan reused;
  // Alternate whole-graph and per-boundary routes through ONE scratch;
  // every result must match a fresh, scratch-free route.
  const std::vector<ir::GraphNodeId> all = f.tg.cached_topo_order();
  for (int round = 0; round < 3; ++round) {
    route_plan_into(f.tg, plan, &table, &scratch, &reused);
    RoutedPlan fresh = route_plan(f.tg, plan, &table);
    ASSERT_EQ(reused.valid, fresh.valid) << fresh.error;
    ASSERT_EQ(reused.comms.size(), fresh.comms.size());
    for (std::size_t i = 0; i < fresh.comms.size(); ++i) {
      EXPECT_EQ(reused.comms[i].kind, fresh.comms[i].kind);
      EXPECT_EQ(reused.comms[i].bytes, fresh.comms[i].bytes);
      EXPECT_EQ(reused.comms[i].group, fresh.comms[i].group);
      EXPECT_EQ(reused.comms[i].node, fresh.comms[i].node);
    }
    EXPECT_EQ(reused.output_spec, fresh.output_spec);
    EXPECT_EQ(reused.pattern_index, fresh.pattern_index);

    route_subgraph_into(f.tg, plan, all, ShardSpec::split(0), &table,
                        &scratch, &reused);
    RoutedPlan fresh_sub =
        route_subgraph(f.tg, plan, all, ShardSpec::split(0), &table);
    ASSERT_EQ(reused.valid, fresh_sub.valid);
    EXPECT_EQ(reused.comms.size(), fresh_sub.comms.size());
    EXPECT_EQ(reused.output_spec, fresh_sub.output_spec);
  }
}

TEST(Enumerate, CountsAndExhaustion) {
  Fixture f = t5(1);
  pruning::PruneResult pr = pruning::prune_graph(f.tg);
  std::int64_t encoder_block = 0, decoder_block = 0;
  for (const auto& fam : pr.families) {
    FamilyPlanEnumerator e(f.tg, fam, 8);
    std::int64_t n = 0;
    std::vector<int> c;
    while (e.next(&c)) ++n;
    EXPECT_EQ(n, e.total_plans());
    if (fam.representative.find("encoder/block_0") != std::string::npos)
      encoder_block = n;
    if (fam.representative.find("decoder/block_0") != std::string::npos)
      decoder_block = n;
    // reset() re-yields the same count.
    e.reset();
    std::int64_t again = 0;
    while (e.next(&c)) ++again;
    EXPECT_EQ(again, n);
  }
  // §6.3.1: one encoder block = 6 free matmuls = 3^6 = 729 candidates.
  EXPECT_EQ(encoder_block, 729);
  // A decoder block adds cross-attention (4 more matmuls) = 3^10.
  EXPECT_EQ(decoder_block, 59049);
}

TEST(Plan, DescribePlanListsPatterns) {
  Fixture f = t5(1);
  ShardingPlan plan = default_plan(f.tg, 8);
  std::string desc = describe_plan(f.tg, plan);
  EXPECT_NE(desc.find("dp"), std::string::npos);
}

// A routed collective carries no string: its label is spelled on demand.
static_assert(std::is_trivially_copyable_v<CommEvent>);

TEST(Routing, CommReasonSpellsEveryKind) {
  std::set<CommEvent::Why> kinds;
  std::set<std::string> reasons;
  auto collect = [&](const TapGraph& tg, const ShardingPlan& plan) {
    const RoutedPlan r = route_plan(tg, plan);
    ASSERT_TRUE(r.valid) << r.error;
    for (const CommEvent& e : r.comms) {
      kinds.insert(e.why);
      reasons.insert(comm_reason(tg, r, e));
    }
  };
  {
    // A lone split_col: its S(-1) output is converted to S(0) for wo and
    // gathered back to R at the next norm.
    Fixture f = t5();
    ShardingPlan plan = default_plan(f.tg, 8);
    set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wi", "split_col");
    collect(f.tg, plan);
  }
  {
    // Megatron under dp=2: partial-sum AllReduces, input-gradient sums,
    // and the split weights' dp sync.
    Fixture f = t5(2);
    ShardingPlan plan = baselines::megatron_plan(f.tg, 8);
    plan.dp_replicas = 2;
    collect(f.tg, plan);
  }
  {
    // Expert parallelism: AllToAll both ways, and the router weight stays
    // replicated beside the split expert bank.
    models::MoeConfig cfg;
    cfg.name = "tinymoe";
    cfg.num_layers = 1;
    cfg.moe_every = 1;
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.num_heads = 2;
    cfg.num_experts = 4;
    cfg.vocab = 16;
    cfg.batch = 2;
    cfg.seq_len = 8;
    Fixture f(models::build_moe_transformer(cfg));
    ShardingPlan plan = default_plan(f.tg, 2);
    set_pattern(f.tg, &plan, "tinymoe/encoder/block_0/moe",
                "expert_parallel");
    collect(f.tg, plan);
  }
  EXPECT_EQ(kinds.size(), 8u);
  for (const char* want :
       {"reshard S(0)->R", "grad of reshard S(0)->R", "reshard S(-1)->S(0)",
        "grad of reshard S(-1)->S(0)", "pattern:split_row",
        "pattern:expert_parallel", "grad:expert_parallel", "wgrad:dp",
        "wgrad:secondary", "wgrad:dp-shard:split_col", "igrad:split_col"}) {
    EXPECT_EQ(reasons.count(want), 1u) << want;
  }
}

TEST(Routing, BothEventsOfAReshardCarryTheirLayouts) {
  Fixture f = t5();
  ShardingPlan plan = default_plan(f.tg, 8);
  set_pattern(f.tg, &plan, "t5_1l/encoder/block_0/ffn/wi", "split_col");
  const RoutedPlan r = route_plan(f.tg, plan);
  ASSERT_TRUE(r.valid) << r.error;
  int reshards = 0;
  for (std::size_t i = 0; i < r.comms.size(); ++i) {
    if (r.comms[i].why != CommEvent::Why::kReshard) continue;
    ++reshards;
    ASSERT_LT(i + 1, r.comms.size());
    const CommEvent& fwd = r.comms[i];
    const CommEvent& bwd = r.comms[i + 1];
    EXPECT_EQ(bwd.why, CommEvent::Why::kReshardGrad);
    EXPECT_EQ(bwd.from_spec, fwd.from_spec);
    EXPECT_EQ(bwd.to_spec, fwd.to_spec);
    EXPECT_TRUE(fwd.from_spec.is_split());
  }
  EXPECT_GT(reshards, 0);
}

TEST(Routing, SubgraphRouteThroughReusedScratchMatchesFreshRoute) {
  // Subgraph routes write only their members' entries; a producer outside
  // the members must read the boundary layout, whatever earlier routes
  // through the same scratch left behind.
  Fixture f = t5(2);
  PatternTable table(f.tg, 8, 1);
  const ShardingPlan plan = baselines::megatron_plan(f.tg, 8);
  const pruning::PruneResult pr = pruning::prune_graph(f.tg);
  RoutingScratch scratch;
  RoutedPlan reused;
  int compared = 0;
  for (int round = 0; round < 2; ++round) {
    route_plan_into(f.tg, plan, &table, &scratch, &reused);
    ASSERT_TRUE(reused.valid) << reused.error;
    for (const pruning::SubgraphFamily& fam : pr.families) {
      const std::vector<ir::GraphNodeId> members =
          topo_sorted_members(f.tg, fam.member_nodes);
      for (const ShardSpec boundary :
           {ShardSpec::replicate(), ShardSpec::split(0)}) {
        route_subgraph_into(f.tg, plan, members, boundary, &table, &scratch,
                            &reused);
        const RoutedPlan fresh =
            route_subgraph(f.tg, plan, fam.member_nodes, boundary, &table);
        ASSERT_EQ(reused.valid, fresh.valid) << fresh.error;
        ASSERT_EQ(reused.comms.size(), fresh.comms.size());
        for (std::size_t i = 0; i < fresh.comms.size(); ++i) {
          EXPECT_EQ(reused.comms[i].why, fresh.comms[i].why);
          EXPECT_EQ(reused.comms[i].bytes, fresh.comms[i].bytes);
          EXPECT_EQ(reused.comms[i].from_spec, fresh.comms[i].from_spec);
          EXPECT_EQ(reused.comms[i].to_spec, fresh.comms[i].to_spec);
        }
        for (ir::GraphNodeId id : members) {
          const auto i = static_cast<std::size_t>(id);
          EXPECT_EQ(reused.output_spec[i], fresh.output_spec[i]);
          EXPECT_EQ(reused.pattern_index[i], fresh.pattern_index[i]);
        }
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 4);
}

TEST(Routing, ExitMemberIsTheLastMemberFeedingOutside) {
  Fixture f = t5(2);
  const pruning::PruneResult pr = pruning::prune_graph(f.tg);
  for (const pruning::SubgraphFamily& fam : pr.families) {
    const ir::GraphNodeId exit = subgraph_exit_member(f.tg, fam.member_nodes);
    ASSERT_NE(exit, ir::kInvalidGraphNode) << fam.representative;
    // No later member (topologically) has a consumer outside the set.
    const std::set<ir::GraphNodeId> in_set(fam.member_nodes.begin(),
                                           fam.member_nodes.end());
    for (ir::GraphNodeId id : fam.member_nodes) {
      if (f.tg.topo_position(id) <= f.tg.topo_position(exit)) continue;
      for (ir::GraphNodeId c : f.tg.consumers(id))
        EXPECT_EQ(in_set.count(c), 1u) << f.tg.node(id).name;
      EXPECT_FALSE(f.tg.consumers(id).empty()) << f.tg.node(id).name;
    }
  }
  EXPECT_EQ(subgraph_exit_member(f.tg, {}), ir::kInvalidGraphNode);
}

}  // namespace
}  // namespace tap::sharding
