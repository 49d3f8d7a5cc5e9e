// Cross-request family reuse tests: the family_result_key properties the
// service's family-outcome cache rests on (name-independent, shared by
// depth edits, split by dimension edits), and the acceptance criterion of
// that reuse — a zoo-wide differential proof that replanning an edited
// model in a service that already planned the base is BYTE-identical to a
// cold search: same plan JSON, same cost, same report, same wire response,
// at 1 thread and at N.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "pruning/prune.h"
#include "report/report.h"
#include "service/planner_service.h"
#include "service/wire.h"

namespace tap::service {
namespace {

core::TapOptions small_cluster_opts() {
  core::TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  opts.threads = 1;
  return opts;
}

/// The family-cache keys of `tg`'s weighted families (the only families
/// that are search work) under small_cluster_opts().
std::set<Fingerprint> weighted_keys(const ir::TapGraph& tg) {
  const core::TapOptions opts = small_cluster_opts();
  std::set<Fingerprint> keys;
  for (const pruning::SubgraphFamily& fam :
       pruning::prune_graph(tg, opts.prune).families) {
    if (!fam.weighted_members(tg).empty())
      keys.insert(family_result_key(tg, fam, opts));
  }
  return keys;
}

std::size_t shared_keys(const std::set<Fingerprint>& a,
                        const std::set<Fingerprint>& b) {
  std::size_t n = 0;
  for (const Fingerprint& k : a) n += b.count(k);
  return n;
}

void expect_results_identical(const core::TapResult& a,
                              const core::TapResult& b) {
  EXPECT_EQ(a.best_plan.num_shards, b.best_plan.num_shards);
  EXPECT_EQ(a.best_plan.dp_replicas, b.best_plan.dp_replicas);
  EXPECT_EQ(a.best_plan.choice, b.best_plan.choice);
  EXPECT_EQ(a.cost.forward_comm_s, b.cost.forward_comm_s);
  EXPECT_EQ(a.cost.backward_comm_s, b.cost.backward_comm_s);
  EXPECT_EQ(a.cost.overlappable_comm_s, b.cost.overlappable_comm_s);
  EXPECT_EQ(a.cost.comm_bytes, b.cost.comm_bytes);
  EXPECT_EQ(a.candidate_plans, b.candidate_plans);
  EXPECT_EQ(a.valid_plans, b.valid_plans);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.cost_queries, b.cost_queries);
  EXPECT_EQ(a.provenance.families_searched, b.provenance.families_searched);
  EXPECT_EQ(a.provenance.families_total, b.provenance.families_total);
  EXPECT_TRUE(a.routed.valid);
  EXPECT_TRUE(b.routed.valid);
  EXPECT_EQ(a.routed.pattern_index, b.routed.pattern_index);
  EXPECT_EQ(a.routed.total_comm_bytes(), b.routed.total_comm_bytes());
}

// ---------------------------------------------------------------------------
// family_result_key properties
// ---------------------------------------------------------------------------

TEST(FamilyKeys, DeterministicAndNameIndependent) {
  models::TransformerConfig cfg = models::t5_with_layers(2);
  Graph a = models::build_transformer(cfg);
  cfg.name = "renamed_t5";
  Graph b = models::build_transformer(cfg);
  ir::TapGraph ta = ir::lower(a), tb = ir::lower(b);

  const std::set<Fingerprint> ka = weighted_keys(ta);
  EXPECT_FALSE(ka.empty());
  EXPECT_EQ(ka, weighted_keys(tb));  // same architecture, any root name
}

TEST(FamilyKeys, RecomputedKeysAreIdentical) {
  Graph g = models::build_transformer(models::t5_with_layers(2));
  ir::TapGraph tg = ir::lower(g);
  const std::set<Fingerprint> keys = weighted_keys(tg);
  EXPECT_EQ(keys, weighted_keys(tg));
  EXPECT_EQ(shared_keys(keys, keys), keys.size());
}

TEST(FamilyKeys, AddedBlockKeepsEveryBaseKey) {
  // One extra encoder/decoder block: the canonical fleet edit. Every
  // depth-independent family transfers, so a service that planned the
  // base finds every family of the edit in its family cache.
  Graph g2 = models::build_transformer(models::t5_with_layers(2));
  Graph g3 = models::build_transformer(models::t5_with_layers(3));
  ir::TapGraph t2 = ir::lower(g2);
  ir::TapGraph t3 = ir::lower(g3);

  const std::set<Fingerprint> base = weighted_keys(t2);
  const std::set<Fingerprint> edited = weighted_keys(t3);
  EXPECT_EQ(shared_keys(base, edited), base.size());
}

TEST(FamilyKeys, VocabResizeKeepsBlockFamilies) {
  // Resizing the vocabulary changes the embedding/head families but not
  // the interior blocks (their boundary specs are d_model activations):
  // a partial overlap.
  models::TransformerConfig cfg = models::t5_with_layers(2);
  Graph base_g = models::build_transformer(cfg);
  cfg.vocab = 32256;
  Graph edited_g = models::build_transformer(cfg);
  ir::TapGraph base = ir::lower(base_g);
  ir::TapGraph edited = ir::lower(edited_g);

  const std::set<Fingerprint> edited_keys = weighted_keys(edited);
  const std::size_t shared = shared_keys(edited_keys, weighted_keys(base));
  EXPECT_GT(shared, 0u);
  EXPECT_LT(shared, edited_keys.size());
}

TEST(FamilyKeys, HiddenDimChangeSharesNoKey) {
  // d_model flows through every weighted family (weights and boundary
  // specs alike): nothing transfers, and the edit plans effectively cold.
  models::TransformerConfig cfg = models::t5_with_layers(2);
  Graph base_g = models::build_transformer(cfg);
  cfg.d_model = 1280;  // heads stay 16: 80 per head
  Graph edited_g = models::build_transformer(cfg);
  ir::TapGraph base = ir::lower(base_g);
  ir::TapGraph edited = ir::lower(edited_g);

  EXPECT_EQ(shared_keys(weighted_keys(edited), weighted_keys(base)), 0u);
}

// ---------------------------------------------------------------------------
// Edited-model replans through the service
// ---------------------------------------------------------------------------

TEST(FamilyReuse, EditedModelReusesFamiliesBitIdentical) {
  core::TapOptions opts = small_cluster_opts();
  Graph base_g = models::build_transformer(models::t5_with_layers(2));
  Graph edited_g = models::build_transformer(models::t5_with_layers(3));
  ir::TapGraph base = ir::lower(base_g);
  ir::TapGraph edited = ir::lower(edited_g);
  const core::TapResult cold = core::auto_parallel(edited, opts);

  ServiceOptions sopts;
  sopts.request_threads = 1;
  PlannerService svc(sopts);
  svc.plan({&base, opts, false});
  const ServiceStats before = svc.stats();
  const core::TapResult warm = svc.plan({&edited, opts, false});
  const ServiceStats after = svc.stats();

  expect_results_identical(cold, warm);
  EXPECT_TRUE(warm.provenance.complete());
  EXPECT_EQ(warm.provenance.families_searched,
            warm.provenance.families_total);
  EXPECT_EQ(after.searches, 2u);
  EXPECT_GT(after.family_hits, before.family_hits);
  EXPECT_EQ(after.family_misses, before.family_misses);
}

TEST(FamilyReuse, DeadlinedEditedRequestMatchesCold) {
  // A deadline generous enough not to trip leaves the search complete,
  // and the family cache answers it exactly like an undeadlined one.
  core::TapOptions opts = small_cluster_opts();
  Graph base_g = models::build_transformer(models::t5_with_layers(2));
  Graph edited_g = models::build_transformer(models::t5_with_layers(3));
  ir::TapGraph base = ir::lower(base_g);
  ir::TapGraph edited = ir::lower(edited_g);
  const core::TapResult cold = core::auto_parallel(edited, opts);

  ServiceOptions sopts;
  sopts.request_threads = 1;
  PlannerService svc(sopts);
  core::TapOptions deadlined = opts;
  deadlined.deadline_ms = 60000;
  svc.plan({&base, deadlined, false});
  const core::TapResult r = svc.plan({&edited, deadlined, false});

  EXPECT_TRUE(r.provenance.complete());
  EXPECT_FALSE(r.provenance.deadline_hit);
  expect_results_identical(cold, r);
  EXPECT_EQ(core::plan_to_json(edited, cold.best_plan),
            core::plan_to_json(edited, r.best_plan));
}

TEST(FamilyReuse, SweepReusesFamiliesAcrossMeshes) {
  core::TapOptions opts = small_cluster_opts();
  Graph base_g = models::build_transformer(models::t5_with_layers(1));
  Graph edited_g = models::build_transformer(models::t5_with_layers(2));
  ir::TapGraph base = ir::lower(base_g);
  ir::TapGraph edited = ir::lower(edited_g);
  const core::TapResult cold = core::auto_parallel_best_mesh(edited, opts);

  ServiceOptions sopts;
  sopts.request_threads = 1;
  PlannerService svc(sopts);
  svc.plan({&base, opts, true});
  const ServiceStats before = svc.stats();
  const core::TapResult warm = svc.plan({&edited, opts, true});
  const ServiceStats after = svc.stats();

  expect_results_identical(cold, warm);
  EXPECT_EQ(warm.provenance.meshes_searched, cold.provenance.meshes_searched);
  EXPECT_GT(after.family_hits, before.family_hits);
  EXPECT_EQ(after.family_misses, before.family_misses);
  EXPECT_EQ(core::plan_to_json(edited, cold.best_plan),
            core::plan_to_json(edited, warm.best_plan));
}

// ---------------------------------------------------------------------------
// Zoo-wide differential: warm == cold, byte for byte
// ---------------------------------------------------------------------------

/// How much of an edit the base model's families cover.
enum class Reuse {
  kAll,   ///< every family hits the family cache; none is searched
  kSome,  ///< shared families hit, changed ones are searched
  kNone,  ///< a d_model change shares nothing and plans effectively cold
};

struct Perturbation {
  const char* label;
  std::function<Graph()> build;
  Reuse reuse;
};

struct DifferentialCase {
  const char* label;
  std::function<Graph()> base;
  std::vector<Perturbation> edits;
};

std::vector<DifferentialCase> differential_zoo() {
  std::vector<DifferentialCase> zoo;
  {
    DifferentialCase c;
    c.label = "t5";
    c.base = [] {
      return models::build_transformer(models::t5_with_layers(2));
    };
    c.edits = {
        {"add_block",
         [] { return models::build_transformer(models::t5_with_layers(3)); },
         Reuse::kAll},
        {"resize_vocab",
         [] {
           models::TransformerConfig cfg = models::t5_with_layers(2);
           cfg.vocab = 32256;
           return models::build_transformer(cfg);
         },
         Reuse::kSome},
        {"change_hidden_dim",
         [] {
           models::TransformerConfig cfg = models::t5_with_layers(2);
           cfg.d_model = 1280;
           return models::build_transformer(cfg);
         },
         Reuse::kNone},
    };
    zoo.push_back(std::move(c));
  }
  {
    DifferentialCase c;
    c.label = "moe";
    auto moe = [](int layers, std::int64_t vocab, std::int64_t d_model) {
      models::MoeConfig cfg = models::widenet();
      cfg.num_layers = layers;
      cfg.vocab = vocab;
      cfg.d_model = d_model;
      return models::build_moe_transformer(cfg);
    };
    c.base = [moe] { return moe(2, 32000, 768); };
    c.edits = {
        {"add_block", [moe] { return moe(3, 32000, 768); }, Reuse::kAll},
        {"resize_vocab", [moe] { return moe(2, 32256, 768); }, Reuse::kSome},
        // 960 keeps 12 heads at 80 dims each.
        {"change_hidden_dim", [moe] { return moe(2, 32000, 960); },
         Reuse::kNone},
    };
    zoo.push_back(std::move(c));
  }
  return zoo;
}

void run_differential(const DifferentialCase& c, int threads) {
  core::TapOptions opts = small_cluster_opts();
  opts.threads = threads;
  Graph base_g = c.base();
  ir::TapGraph base_tg = ir::lower(base_g);

  ServiceOptions sopts;
  sopts.request_threads = 1;
  PlannerService svc(sopts);
  svc.plan({&base_tg, opts, false});

  for (const Perturbation& edit : c.edits) {
    SCOPED_TRACE(std::string(c.label) + "/" + edit.label +
                 "/threads=" + std::to_string(threads));
    Graph g = edit.build();
    ir::TapGraph tg = ir::lower(g);

    const core::TapResult cold = core::auto_parallel(tg, opts);
    const ServiceStats before = svc.stats();
    const core::TapResult warm = svc.plan({&tg, opts, false});
    const ServiceStats after = svc.stats();

    EXPECT_TRUE(warm.provenance.complete());
    switch (edit.reuse) {
      case Reuse::kAll:
        EXPECT_GT(after.family_hits, before.family_hits);
        EXPECT_EQ(after.family_misses, before.family_misses);
        break;
      case Reuse::kSome:
        EXPECT_GT(after.family_hits, before.family_hits);
        EXPECT_GT(after.family_misses, before.family_misses);
        break;
      case Reuse::kNone:
        EXPECT_GT(after.family_misses, before.family_misses);
        break;
    }
    expect_results_identical(cold, warm);

    // The byte-for-byte contract: every serialized artifact of the plan
    // must be indistinguishable from the cold search's.
    EXPECT_EQ(core::plan_to_json(tg, cold.best_plan),
              core::plan_to_json(tg, warm.best_plan));
    const PlanKey key = svc.key_for({&tg, opts, false});
    EXPECT_EQ(plan_response_json(tg, key, cold),
              plan_response_json(tg, key, warm));
    EXPECT_EQ(report::to_json(report::build_report(tg, cold, opts)),
              report::to_json(report::build_report(tg, warm, opts)));
  }
}

TEST(FamilyReuse, ZooDifferentialByteIdenticalSingleThread) {
  for (const DifferentialCase& c : differential_zoo()) run_differential(c, 1);
}

TEST(FamilyReuse, ZooDifferentialByteIdenticalMultiThread) {
  for (const DifferentialCase& c : differential_zoo()) run_differential(c, 4);
}

}  // namespace
}  // namespace tap::service
