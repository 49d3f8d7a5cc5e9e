#include "core/serialize.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <sstream>

#include "baselines/expert_plans.h"
#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "util/check.h"

namespace tap::core {
namespace {

struct Fixture {
  Graph g;
  ir::TapGraph tg;
  explicit Fixture(int layers)
      : g(models::build_transformer(models::t5_with_layers(layers))),
        tg(ir::lower(g)) {}
};

TEST(Serialize, RoundTripsMegatronPlan) {
  Fixture f(2);
  auto plan = baselines::megatron_plan(f.tg, 8);
  plan.dp_replicas = 2;
  std::string json = plan_to_json(f.tg, plan);
  auto back = plan_from_json(f.tg, json);
  EXPECT_EQ(back.num_shards, 8);
  EXPECT_EQ(back.dp_replicas, 2);
  EXPECT_EQ(back.choice, plan.choice);
}

TEST(Serialize, RoundTripsAcrossRelowering) {
  // The plan must apply to a *separately built* identical model.
  Fixture a(2);
  auto plan = baselines::megatron_plan(a.tg, 8);
  std::string json = plan_to_json(a.tg, plan);

  Fixture b(2);
  auto back = plan_from_json(b.tg, json);
  auto routed = sharding::route_plan(b.tg, back);
  EXPECT_TRUE(routed.valid) << routed.error;
  EXPECT_EQ(back.choice, plan.choice);  // deterministic lowering
}

TEST(Serialize, RoundTripsSearchedPlan) {
  Fixture f(2);
  TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  auto r = auto_parallel(f.tg, opts);
  std::string json = plan_to_json(f.tg, r.best_plan);
  auto back = plan_from_json(f.tg, json);
  EXPECT_EQ(back.choice, r.best_plan.choice);
}

TEST(Serialize, JsonMentionsMeshAndPatterns) {
  Fixture f(1);
  auto plan = baselines::megatron_plan(f.tg, 8);
  std::string json = plan_to_json(f.tg, plan);
  EXPECT_NE(json.find("\"mesh\":[1,8]"), std::string::npos);
  EXPECT_NE(json.find("split_col"), std::string::npos);
  EXPECT_NE(json.find("mha/q"), std::string::npos);
}

TEST(Serialize, UnknownNodeRejected) {
  Fixture f(1);
  std::string json =
      "{\"mesh\": [1, 8], \"assignments\": {\"no/such/node\": \"dp\"}}";
  EXPECT_THROW(plan_from_json(f.tg, json), CheckError);
}

TEST(Serialize, InapplicablePatternRejected) {
  Fixture f(1);
  // LayerNorm clusters are replicate-only: "split_col" must be refused.
  std::string json = "{\"mesh\": [1, 8], \"assignments\": {\"" +
                     std::string("t5_1l/encoder/block_0/mha") +
                     "\": \"split_col\"}}";
  EXPECT_THROW(plan_from_json(f.tg, json), CheckError);
}

TEST(Serialize, MalformedInputRejected) {
  Fixture f(1);
  EXPECT_THROW(plan_from_json(f.tg, "{"), CheckError);
  EXPECT_THROW(plan_from_json(f.tg, "{\"assignments\": {}}"), CheckError);
  EXPECT_THROW(plan_from_json(f.tg, "{\"mesh\": [1, 8]} trailing"),
               CheckError);
  EXPECT_THROW(plan_from_json(f.tg, "{\"mesh\": [0, 8], \"assignments\""
                                    ": {}}"),
               CheckError);
}

TEST(Serialize, UnlistedNodesDefaultToPatternZero) {
  Fixture f(1);
  std::string json = "{\"mesh\": [1, 8], \"assignments\": {}}";
  auto plan = plan_from_json(f.tg, json);
  for (int c : plan.choice) EXPECT_EQ(c, 0);
  EXPECT_TRUE(sharding::route_plan(f.tg, plan).valid);
}

TEST(Serialize, WhitespaceTolerant) {
  Fixture f(1);
  std::string json =
      "  {  \"mesh\"  :  [ 1 , 8 ] ,\n \"assignments\" : { } }  ";
  auto plan = plan_from_json(f.tg, json);
  EXPECT_EQ(plan.num_shards, 8);
}

// ---------------------------------------------------------------------------
// PlanRecord (the service plan-cache payload)
// ---------------------------------------------------------------------------

/// `rec` spelled with two-space indent and ", " separators, the way
/// records were written before writers went compact. The checksum covers
/// the canonical content, so the spelling does not change it.
std::string whitespaced_record(const Fixture& f, const PlanRecord& rec) {
  auto exact = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::ostringstream os;
  os << "{\n  \"version\": " << kPlanRecordVersion << ",\n  \"mesh\": ["
     << rec.plan.dp_replicas << ", " << rec.plan.num_shards
     << "],\n  \"choice\": [";
  for (std::size_t i = 0; i < rec.plan.choice.size(); ++i)
    os << (i ? ", " : "") << rec.plan.choice[i];
  os << "],\n  \"cost\": [" << exact(rec.cost.forward_comm_s) << ", "
     << exact(rec.cost.backward_comm_s) << ", "
     << exact(rec.cost.overlappable_comm_s) << ", " << rec.cost.comm_bytes
     << "],\n  \"stats\": [" << rec.stats.candidate_plans << ", "
     << rec.stats.valid_plans << ", " << rec.stats.nodes_visited << ", "
     << rec.stats.cost_queries << "],\n  \"coverage\": ["
     << rec.families_searched << ", " << rec.families_total << ", "
     << rec.meshes_searched << ", " << rec.meshes_total
     << "],\n  \"timings\": [";
  for (std::size_t i = 0; i < rec.timings.size(); ++i) {
    os << (i ? ", " : "") << "[\"" << rec.timings[i].pass << "\", "
       << exact(rec.timings[i].seconds) << "]";
  }
  const std::string checksum =
      util::JsonValue::parse(plan_record_to_json(f.tg, rec))
          .at("checksum")
          .as_string();
  os << "],\n  \"search_seconds\": " << exact(rec.search_seconds)
     << ",\n  \"checksum\": \"" << checksum << "\"\n}\n";
  return os.str();
}

PlanRecord searched_record(const Fixture& f) {
  TapOptions opts;
  opts.cluster = cost::ClusterSpec::v100_cluster(2);
  opts.num_shards = 8;
  opts.dp_replicas = 2;
  auto r = auto_parallel(f.tg, opts);
  PlanRecord rec;
  rec.plan = r.best_plan;
  rec.cost = r.cost;
  rec.stats = {r.candidate_plans, r.valid_plans, r.nodes_visited,
               r.cost_queries};
  rec.families_searched = r.provenance.families_searched;
  rec.families_total = r.provenance.families_total;
  rec.meshes_searched = r.provenance.meshes_searched;
  rec.meshes_total = r.provenance.meshes_total;
  rec.timings = r.pass_timings;
  rec.search_seconds = r.search_seconds;
  return rec;
}

TEST(PlanRecord, RoundTripsEverythingExactly) {
  Fixture f(2);
  PlanRecord rec = searched_record(f);
  ASSERT_GT(rec.stats.candidate_plans, 0);
  ASSERT_FALSE(rec.timings.empty());
  ASSERT_GT(rec.families_total, 0);

  PlanRecord back = plan_record_from_json(f.tg, plan_record_to_json(f.tg, rec));
  EXPECT_EQ(back.plan.num_shards, rec.plan.num_shards);
  EXPECT_EQ(back.plan.dp_replicas, rec.plan.dp_replicas);
  EXPECT_EQ(back.plan.choice, rec.plan.choice);
  // Doubles round-trip bit-exactly (%.17g), not merely approximately.
  EXPECT_EQ(back.cost.forward_comm_s, rec.cost.forward_comm_s);
  EXPECT_EQ(back.cost.backward_comm_s, rec.cost.backward_comm_s);
  EXPECT_EQ(back.search_seconds, rec.search_seconds);
  EXPECT_EQ(back.stats.candidate_plans, rec.stats.candidate_plans);
  EXPECT_EQ(back.stats.valid_plans, rec.stats.valid_plans);
  EXPECT_EQ(back.stats.nodes_visited, rec.stats.nodes_visited);
  EXPECT_EQ(back.stats.cost_queries, rec.stats.cost_queries);
  EXPECT_EQ(back.families_searched, rec.families_searched);
  EXPECT_EQ(back.families_total, rec.families_total);
  EXPECT_EQ(back.meshes_searched, rec.meshes_searched);
  EXPECT_EQ(back.meshes_total, rec.meshes_total);
  ASSERT_EQ(back.timings.size(), rec.timings.size());
  for (std::size_t i = 0; i < rec.timings.size(); ++i) {
    EXPECT_EQ(back.timings[i].pass, rec.timings[i].pass);
    EXPECT_EQ(back.timings[i].seconds, rec.timings[i].seconds);
  }

  // Files written before writers went compact stay readable: the same
  // record in the whitespaced spelling decodes to the same record.
  PlanRecord legacy = plan_record_from_json(f.tg, whitespaced_record(f, rec));
  EXPECT_EQ(plan_record_to_json(f.tg, legacy), plan_record_to_json(f.tg, rec));
}

TEST(PlanRecord, RoundTripsAwkwardDoubles) {
  Fixture f(1);
  PlanRecord rec;
  rec.plan = sharding::default_plan(f.tg, 8, 2);
  rec.cost.forward_comm_s = 0.1;  // not exactly representable
  rec.cost.backward_comm_s = 1.0 / 3.0;
  rec.search_seconds = 6.02214076e23;
  rec.timings.push_back({"FamilySearch", 5e-324});  // min subnormal
  PlanRecord back = plan_record_from_json(f.tg, plan_record_to_json(f.tg, rec));
  EXPECT_EQ(back.cost.forward_comm_s, rec.cost.forward_comm_s);
  EXPECT_EQ(back.cost.backward_comm_s, rec.cost.backward_comm_s);
  EXPECT_EQ(back.search_seconds, rec.search_seconds);
  ASSERT_EQ(back.timings.size(), 1u);
  EXPECT_EQ(back.timings[0].seconds, 5e-324);

  // JSON cannot spell inf, so the writer refuses it.
  rec.cost.overlappable_comm_s = kInvalidPlanCost;
  EXPECT_THROW(plan_record_to_json(f.tg, rec), CheckError);
}

TEST(PlanRecord, ChecksumRejectsEditsThatStillValidate) {
  Fixture f(2);
  const PlanRecord rec = searched_record(f);
  const std::string json = plan_record_to_json(f.tg, rec);
  ASSERT_NO_THROW(plan_record_from_json(f.tg, json));

  // Pattern 0 exists for every GraphNode, so zeroed choices stay in
  // range: only the checksum can tell.
  std::string zeroed = json;
  const auto open = zeroed.find('[', zeroed.find("\"choice\""));
  const auto close = zeroed.find(']', open);
  for (auto i = open + 1; i < close; ++i)
    if (std::isdigit(static_cast<unsigned char>(zeroed[i]))) zeroed[i] = '0';
  ASSERT_NE(zeroed, json);
  EXPECT_THROW(plan_record_from_json(f.tg, zeroed), CheckError);

  // One more valid plan counted in the statistics.
  const std::string stats = "\"stats\":[";
  std::string recounted = json;
  const auto at = recounted.find(stats) + stats.size();
  recounted.insert(at, "1");
  EXPECT_THROW(plan_record_from_json(f.tg, recounted), CheckError);

  // A checksum that is not a string is malformed too.
  const auto sum = json.find("\"checksum\":");
  ASSERT_NE(sum, std::string::npos);
  EXPECT_THROW(plan_record_from_json(f.tg, json.substr(0, sum) +
                                                "\"checksum\":7}"),
               CheckError);
}

TEST(PlanRecord, VersionIsFirstKeyAndMismatchRejected) {
  Fixture f(1);
  PlanRecord rec;
  rec.plan = sharding::default_plan(f.tg, 8);
  std::string json = plan_record_to_json(f.tg, rec);
  ASSERT_LT(json.find("\"version\""), json.find("\"mesh\""));

  // Same payload claiming a future version must be rejected up front.
  std::string vkey = "\"version\":" + std::to_string(kPlanRecordVersion);
  auto pos = json.find(vkey);
  ASSERT_NE(pos, std::string::npos);
  std::string future = json;
  future.replace(pos, vkey.size(),
                 "\"version\":" + std::to_string(kPlanRecordVersion + 1));
  EXPECT_THROW(plan_record_from_json(f.tg, future), CheckError);
}

TEST(PlanRecord, MalformedAndMismatchedInputRejected) {
  Fixture f(1);
  EXPECT_THROW(plan_record_from_json(f.tg, ""), CheckError);
  EXPECT_THROW(plan_record_from_json(f.tg, "{"), CheckError);
  EXPECT_THROW(plan_record_from_json(f.tg, "not json at all"), CheckError);
  // Structurally valid JSON for a DIFFERENT graph (wrong choice count).
  Fixture big(3);
  PlanRecord rec;
  rec.plan = sharding::default_plan(big.tg, 8);
  std::string json = plan_record_to_json(big.tg, rec);
  EXPECT_THROW(plan_record_from_json(f.tg, json), CheckError);
}

}  // namespace
}  // namespace tap::core
