// Candidate scoring is lean: once a family search's buffers settle,
// scoring a candidate allocates nothing. The global allocation functions
// are replaced by counting ones; counting is on only inside the measured
// loop, on the measuring thread.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "core/family_search.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "sharding/enumerate.h"

namespace {
thread_local bool g_counting = false;
thread_local long g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tap::core {
namespace {

TEST(LeanScoring, SteadyStateCandidateAllocatesNothing) {
  const Graph g = models::build_transformer(models::t5_with_layers(2));
  const ir::TapGraph tg = ir::lower(g);
  TapOptions opts;
  opts.num_shards = 4;
  opts.dp_replicas = 2;
  opts.cluster = cost::ClusterSpec::v100_cluster(1);
  const sharding::PatternTable table(tg, opts.num_shards, opts.dp_replicas);
  const pruning::PruneResult pr = pruning::prune_graph(tg, opts.prune);
  const FamilySearchContext ctx(tg, opts, table);

  int families = 0;
  for (const pruning::SubgraphFamily& family : pr.families) {
    if (family.weighted_members(tg).empty()) continue;
    ++families;
    const FamilyRouteFacts facts = ctx.prepare(family);
    sharding::ShardingPlan plan =
        sharding::default_plan(tg, opts.num_shards, opts.dp_replicas);
    sharding::FamilyPlanEnumerator enumerator(tg, family, opts.num_shards);
    std::vector<int> choice;
    SearchStats stats;
    FamilyScore score;
    // First pass: buffers grow to the largest of the first kCandidates.
    constexpr int kCandidates = 800;
    for (int i = 0; i < kCandidates && enumerator.next(&choice); ++i) {
      sharding::apply_family_choice(family, choice, &plan);
      ctx.score(plan, facts, &score, &stats);
    }
    enumerator.reset();
    std::int64_t scored = 0;
    g_allocations = 0;
    for (int i = 0; i < kCandidates && enumerator.next(&choice); ++i) {
      sharding::apply_family_choice(family, choice, &plan);
      g_counting = true;
      scored += ctx.score(plan, facts, &score, &stats) ? 1 : 0;
      g_counting = false;
    }
    EXPECT_GT(scored, 0) << family.representative;
    EXPECT_EQ(g_allocations, 0) << family.representative;
  }
  EXPECT_GT(families, 2);
}

}  // namespace
}  // namespace tap::core
