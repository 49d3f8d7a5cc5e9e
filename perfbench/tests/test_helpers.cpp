// Tests of the benchmark's own helpers: workload generation, order
// statistics and JSON output.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <tuple>

#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tap::service::ModelSpec;

constexpr std::size_t kLength = 20000;

TEST(Workloads, SameSeedSameSequence) {
  EXPECT_EQ(make_serve_hot(7, kLength).sequence,
            make_serve_hot(7, kLength).sequence);
  const ServeWorkload a = make_serve_churn(7, kLength);
  const ServeWorkload b = make_serve_churn(7, kLength);
  EXPECT_EQ(a.sequence, b.sequence);
  ASSERT_EQ(a.specs.size(), b.specs.size());
  for (std::size_t i = 0; i < a.specs.size(); ++i)
    EXPECT_EQ(tap::service::model_spec_to_json(a.specs[i]),
              tap::service::model_spec_to_json(b.specs[i]));
  const auto ca = make_cold_mix(7), cb = make_cold_mix(7);
  for (std::size_t i = 0; i < ca.size(); ++i)
    EXPECT_EQ(tap::service::model_spec_to_json(ca[i]),
              tap::service::model_spec_to_json(cb[i]));
}

TEST(Workloads, DifferentSeedDifferentSequence) {
  EXPECT_NE(make_serve_hot(7, kLength).sequence,
            make_serve_hot(8, kLength).sequence);
  EXPECT_NE(make_serve_churn(7, kLength).sequence,
            make_serve_churn(8, kLength).sequence);
  std::string a, b;
  for (const ModelSpec& s : make_cold_mix(7)) a += tap::service::model_spec_to_json(s);
  for (const ModelSpec& s : make_cold_mix(8)) b += tap::service::model_spec_to_json(s);
  EXPECT_NE(a, b);
}

void expect_parses(const ModelSpec& spec) {
  const std::string body = tap::service::model_spec_to_json(spec);
  const ModelSpec back = tap::service::model_spec_from_json(body);
  EXPECT_EQ(tap::service::model_spec_to_json(back), body);
  const ModelSpec query = tap::service::model_spec_from_query(explain_target(spec));
  EXPECT_EQ(tap::service::model_spec_to_json(query), body);
}

TEST(Workloads, EveryGeneratedSpecParses) {
  for (const ModelSpec& s : make_serve_hot(3, 16).specs) expect_parses(s);
  for (const ModelSpec& s : make_serve_churn(3, kLength).specs) expect_parses(s);
  for (const ModelSpec& s : make_cold_mix(3)) expect_parses(s);
  for (const ModelSpec& s : churn_key_space()) expect_parses(s);
}

/// The fields that shape a planning problem: GPT-3 ignores batch and
/// ResNet-50 ignores layers, so those do not make a new key.
auto problem_of(const ModelSpec& s) {
  return std::make_tuple(s.model, s.model == "resnet50" ? 0 : s.layers,
                         s.classes, s.model == "gpt3" ? 0 : s.batch, s.nodes,
                         s.gpus, s.dp, s.tp);
}

TEST(Workloads, ChurnKeySpaceExceedsMemoryTier) {
  std::set<decltype(problem_of(ModelSpec{}))> problems;
  for (const ModelSpec& s : churn_key_space()) problems.insert(problem_of(s));
  EXPECT_GE(problems.size(), 3 * memory_tier_capacity());

  // The warmed specs fill the memory tier, first-seen ones overflow it,
  // and every one of them is a distinct planning problem.
  const ServeWorkload w = make_serve_churn(11, 1 << 18);
  std::set<decltype(problem_of(ModelSpec{}))> seen;
  for (const ModelSpec& s : w.specs) seen.insert(problem_of(s));
  EXPECT_EQ(seen.size(), w.specs.size());
  EXPECT_EQ(w.warm, memory_tier_capacity());
  EXPECT_GT(w.specs.size(), memory_tier_capacity());
}

TEST(Workloads, ChurnHottestSpecsKeepTheirSizeAcrossSeeds) {
  // The first spec of each model family x cluster gets the most repeats;
  // its model, depth and cluster must not depend on the seed.
  constexpr std::size_t kFirstRound = 20;
  const ServeWorkload a = make_serve_churn(3, kLength);
  const ServeWorkload b = make_serve_churn(4, kLength);
  for (std::size_t i = 0; i < kFirstRound; ++i) {
    EXPECT_EQ(a.specs[i].model, b.specs[i].model);
    EXPECT_EQ(a.specs[i].layers, b.specs[i].layers);
    EXPECT_EQ(a.specs[i].nodes * a.specs[i].gpus,
              b.specs[i].nodes * b.specs[i].gpus);
  }
}

TEST(Workloads, HotWorkloadIsAllWarm) {
  const ServeWorkload w = make_serve_hot(5, kLength);
  EXPECT_EQ(w.warm, w.specs.size());
  for (const Request& r : w.sequence) {
    EXPECT_LT(r.spec, w.specs.size());
    EXPECT_FALSE(r.explain);
  }
}

TEST(Stats, PercentileNearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(percentile_rank(1000, 99), 990u);
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(percentile_sorted(v, 99), 990.0);
  EXPECT_EQ(percentile_sorted(v, 50), 500.0);
  EXPECT_EQ(percentile_sorted(v, 100), 1000.0);
  EXPECT_EQ(percentile({4, 1, 3, 2}, 50), 2.0);
  EXPECT_EQ(percentile({4, 1, 3, 2}, 75), 3.0);
  EXPECT_EQ(percentile({7}, 1), 7.0);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, MedianGeomeanAndWindows) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_NEAR(geomean({1, 100}), 10.0, 1e-12);
  // 10 ops/s with a one-second stall: the chunks read 10/0.9, 10 and
  // 10/2.0 ops/s, and the median chunk ignores the stall.
  std::vector<double> ends;
  for (int s : {3, 0, 1})
    for (int k = 0; k < 10; ++k) ends.push_back(s + k / 10.0);
  EXPECT_DOUBLE_EQ(chunked_rate(ends, 4.0, 3), 10.0);
  EXPECT_EQ(chunked_rate({0.1, 0.2}, 0.5, 3), 4.0);
  // Aligned to cycles of 4 operations: two chunks of 4, not three of 2.
  EXPECT_DOUBLE_EQ(chunked_rate({0.5, 1, 1.5, 2, 2.25, 2.5, 2.75, 3}, 3.0, 3, 4),
                   (4 / 2.0 + 4 / 1.0) / 2);
}

TEST(Stats, ChunkedPercentile) {
  // Three chunks of 20 (the fewest samples with ten beyond a median); the
  // stalled third chunk moves only its own median.
  std::vector<double> v(20, 1.0);
  v.insert(v.end(), 20, 2.0);
  v.insert(v.end(), 20, 100.0);
  EXPECT_EQ(chunked_percentile(v, 50, 3, 10), 2.0);
  // A p99 with ten samples beyond it needs 1000 per chunk: 1999 samples
  // make one chunk of them all.
  std::vector<double> w;
  for (int i = 1; i <= 1999; ++i) w.push_back(i);
  EXPECT_EQ(chunked_percentile(w, 99, 20, 10), percentile(w, 99));
  // Too few for one chunk: the percentile of them all.
  EXPECT_EQ(chunked_percentile({5, 1, 3}, 50, 3, 10), 3.0);
  // Chunks of whole 4-sample cycles: 2 chunks of 12 from 26 samples.
  std::vector<double> c;
  for (int k = 0; k < 26; ++k) c.push_back(k < 12 ? 1.0 : 3.0);
  EXPECT_EQ(chunked_percentile(c, 50, 20, 5, 4), 2.0);
}

TEST(Json, NonFiniteIsNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(json_number(std::nan("")).dump(), "null");
  EXPECT_EQ(json_number(0.1).dump(), "0.10000000000000001");
}

}  // namespace
}  // namespace perfbench
