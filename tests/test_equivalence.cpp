// The paper's correctness constraint: a parallel plan p must satisfy
// p(X) = G(X) for all X (§3.1). These property tests execute real models
// serially and under sharded plans and require identical outputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "ir/lowering.h"
#include "models/models.h"
#include "runtime/executor.h"
#include "util/rng.h"

namespace tap::runtime {
namespace {

models::TransformerConfig tiny_transformer() {
  models::TransformerConfig cfg;
  cfg.name = "tiny";
  cfg.num_layers = 1;
  cfg.encoder_decoder = false;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.num_heads = 2;
  cfg.vocab = 24;
  cfg.batch = 4;
  cfg.seq_len = 8;
  cfg.with_auxiliaries = true;  // lowering must cope with aux ops
  return cfg;
}

Graph tiny_cnn() {
  GraphBuilder b("cnn");
  auto root = b.scope("cnn");
  NodeId x = b.placeholder("inputs/images", {4, 8, 8, 4});
  {
    auto s = b.scope("stem");
    x = b.conv2d("conv", x, 8, 3, 1);
    x = b.batch_norm("bn", x);
    x = b.relu("relu", x);
    x = b.max_pool("pool", x, 2, 2);
  }
  {
    auto s = b.scope("stage");
    x = b.conv2d("conv", x, 16, 3, 2);
    x = b.relu("relu", x);
  }
  {
    auto s = b.scope("head");
    NodeId pooled = b.global_avg_pool("gap", x);
    NodeId logits = b.matmul("fc/proj", pooled, 8);
    NodeId labels = b.placeholder("labels", {4, 8});
    b.cross_entropy("loss", logits, labels);
  }
  return b.take();
}

struct Harness {
  Graph g;
  ir::TapGraph tg;
  std::unordered_map<std::string, Tensor> serial_out;
  std::unordered_map<std::string, Tensor> feeds;

  explicit Harness(Graph graph) : g(std::move(graph)), tg(ir::lower(g)) {
    Executor serial(g);
    feeds = serial.make_feeds();
    serial_out = serial.run(feeds);
  }

  /// Runs the graph under `plan` and compares every node output with the
  /// serial reference.
  void expect_equivalent(const sharding::ShardingPlan& plan,
                         const std::string& what) {
    sharding::RoutedPlan routed = sharding::route_plan(tg, plan);
    ASSERT_TRUE(routed.valid) << what << ": " << routed.error;
    ShardedExecutor sharded(g, tg, routed, plan.num_shards);
    auto out = sharded.run(feeds);
    ASSERT_EQ(out.size(), serial_out.size());
    for (const auto& [name, tensor] : serial_out) {
      auto it = out.find(name);
      ASSERT_NE(it, out.end()) << name;
      EXPECT_TRUE(Tensor::allclose(tensor, it->second, 2e-3f))
          << what << ": '" << name << "' diverged by "
          << Tensor::max_abs_diff(tensor, it->second);
    }
  }

  sharding::ShardingPlan plan_with(int shards, const std::string& node,
                                   const std::string& pattern) {
    sharding::ShardingPlan plan = sharding::default_plan(tg, shards);
    if (!node.empty()) {
      auto id = tg.find(node);
      EXPECT_NE(id, ir::kInvalidGraphNode) << node;
      auto pats = sharding::patterns_for(tg, id, shards);
      bool found = false;
      for (std::size_t i = 0; i < pats.size(); ++i) {
        if (pats[i].name == pattern) {
          plan.choice[static_cast<std::size_t>(id)] = static_cast<int>(i);
          found = true;
        }
      }
      EXPECT_TRUE(found) << pattern << " not applicable to " << node;
    }
    return plan;
  }
};

// --- parameterized single-pattern sweeps -----------------------------------

struct PatternCase {
  const char* node;
  const char* pattern;
  int shards;
};

class TransformerPatternEquivalence
    : public ::testing::TestWithParam<PatternCase> {};

TEST_P(TransformerPatternEquivalence, MatchesSerial) {
  const PatternCase& pc = GetParam();
  Harness h(models::build_transformer(tiny_transformer()));
  auto plan = h.plan_with(pc.shards, pc.node, pc.pattern);
  h.expect_equivalent(plan, std::string(pc.node) + ":" + pc.pattern);
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, TransformerPatternEquivalence,
    ::testing::Values(
        PatternCase{"tiny/encoder/block_0/mha/q", "dp", 2},
        PatternCase{"tiny/encoder/block_0/mha/q", "split_row", 2},
        PatternCase{"tiny/encoder/block_0/mha/q", "split_col", 2},
        PatternCase{"tiny/encoder/block_0/mha/q", "split_col", 4},
        PatternCase{"tiny/encoder/block_0/mha/o", "split_row", 4},
        PatternCase{"tiny/encoder/block_0/ffn/wi", "split_col", 2},
        PatternCase{"tiny/encoder/block_0/ffn/wo", "split_row", 2},
        PatternCase{"tiny/encoder/embed", "split_vocab", 2},
        PatternCase{"tiny/encoder/embed", "split_hidden", 2},
        PatternCase{"tiny/encoder/embed", "split_vocab", 4},
        PatternCase{"tiny/head/lm", "split_col", 2},
        PatternCase{"tiny/head/lm", "split_row", 4}),
    [](const ::testing::TestParamInfo<PatternCase>& info) {
      std::string name = info.param.node;
      for (char& c : name)
        if (c == '/') c = '_';
      return name + "_" + info.param.pattern + "_x" +
             std::to_string(info.param.shards);
    });

// gtest names each case after the raw bytes of its parameter, so the
// strings are stored inline and zero-filled rather than as pointers:
// the name is the same on every run and in every build.
struct CnnCase {
  char node[12];
  char pattern[11];
  std::uint8_t shards;
};

class CnnPatternEquivalence : public ::testing::TestWithParam<CnnCase> {};

TEST_P(CnnPatternEquivalence, MatchesSerial) {
  const CnnCase& pc = GetParam();
  Harness h(tiny_cnn());
  auto plan = h.plan_with(pc.shards, pc.node, pc.pattern);
  h.expect_equivalent(plan, std::string(pc.node) + ":" + pc.pattern);
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, CnnPatternEquivalence,
    ::testing::Values(CnnCase{"cnn/stem", "dp", 2},
                      CnnCase{"cnn/stem", "split_cout", 2},
                      CnnCase{"cnn/stage", "split_cout", 4},
                      CnnCase{"cnn/stage", "split_cin", 2},
                      CnnCase{"cnn/head/fc", "split_col", 2},
                      CnnCase{"cnn/head/fc", "split_row", 4}),
    [](const ::testing::TestParamInfo<CnnCase>& info) {
      std::string name = info.param.node;
      for (char& c : name)
        if (c == '/') c = '_';
      return name + "_" + info.param.pattern + "_x" +
             std::to_string(info.param.shards);
    });

// --- whole-plan properties ---------------------------------------------------

TEST(Equivalence, PureDataParallelPlan) {
  Harness h(models::build_transformer(tiny_transformer()));
  h.expect_equivalent(sharding::default_plan(h.tg, 4), "pure dp");
}

TEST(Equivalence, MegatronStylePlan) {
  Harness h(models::build_transformer(tiny_transformer()));
  auto plan = h.plan_with(2, "tiny/encoder/block_0/mha/q", "split_col");
  auto apply = [&](const char* node, const char* pattern) {
    auto p2 = h.plan_with(2, node, pattern);
    auto id = h.tg.find(node);
    plan.choice[static_cast<std::size_t>(id)] =
        p2.choice[static_cast<std::size_t>(id)];
  };
  apply("tiny/encoder/block_0/mha/k", "split_col");
  apply("tiny/encoder/block_0/mha/v", "split_col");
  apply("tiny/encoder/block_0/mha/o", "split_row");
  apply("tiny/encoder/block_0/ffn/wi", "split_col");
  apply("tiny/encoder/block_0/ffn/wo", "split_row");
  h.expect_equivalent(plan, "megatron");
}

TEST(Equivalence, RandomPlansProperty) {
  // Sample random full-plan assignments; every valid one must be
  // numerically equivalent to the serial execution.
  Harness h(models::build_transformer(tiny_transformer()));
  util::Rng rng(2024);
  int tested = 0;
  for (int trial = 0; trial < 12; ++trial) {
    sharding::ShardingPlan plan = sharding::default_plan(h.tg, 2);
    for (const auto& n : h.tg.nodes()) {
      if (!n.has_weight()) continue;
      auto pats = sharding::patterns_for(h.tg, n.id, 2);
      plan.choice[static_cast<std::size_t>(n.id)] =
          static_cast<int>(rng.next_below(pats.size()));
    }
    auto routed = sharding::route_plan(h.tg, plan);
    if (!routed.valid) continue;
    ++tested;
    h.expect_equivalent(plan, "random trial " + std::to_string(trial));
  }
  EXPECT_GT(tested, 6);
}

TEST(Equivalence, MoeExpertParallel) {
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
  Harness h(models::build_moe_transformer(cfg));
  auto plan = h.plan_with(2, "tinymoe/encoder/block_0/moe", "expert_parallel");
  h.expect_equivalent(plan, "expert_parallel");
  auto plan_ff = h.plan_with(2, "tinymoe/encoder/block_0/moe", "split_ff");
  h.expect_equivalent(plan_ff, "split_ff");
}

TEST(Equivalence, DeterministicAcrossRuns) {
  Harness h1(models::build_transformer(tiny_transformer()));
  Harness h2(models::build_transformer(tiny_transformer()));
  for (const auto& [name, t] : h1.serial_out) {
    auto it = h2.serial_out.find(name);
    ASSERT_NE(it, h2.serial_out.end());
    EXPECT_TRUE(Tensor::allclose(t, it->second, 0.0f)) << name;
  }
}

TEST(Equivalence, CnnFullRandomPlans) {
  Harness h(tiny_cnn());
  util::Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    sharding::ShardingPlan plan = sharding::default_plan(h.tg, 2);
    for (const auto& n : h.tg.nodes()) {
      if (!n.has_weight()) continue;
      auto pats = sharding::patterns_for(h.tg, n.id, 2);
      plan.choice[static_cast<std::size_t>(n.id)] =
          static_cast<int>(rng.next_below(pats.size()));
    }
    auto routed = sharding::route_plan(h.tg, plan);
    if (!routed.valid) continue;
    h.expect_equivalent(plan, "cnn random trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace tap::runtime
