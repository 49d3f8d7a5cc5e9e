// Plan-bytes pins: checked-in 128-bit digests of the canonical plan
// response and of the routed plan's collective reasons, over a zoo of
// specs at fixed meshes and under the mesh sweep. A change that is meant
// to be a pure speed-up of the planner (routing, scoring, costing) must
// leave every digest as it is; a change that moves plans must regenerate
// them deliberately and say so.
//
// To regenerate after an intended plan change, run
//   tap_tests --gtest_filter='*PlanDigests*'
// and copy the "got" digests from the failure messages.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/tap.h"
#include "ir/lowering.h"
#include "service/fingerprint.h"
#include "service/wire.h"
#include "sharding/routing.h"
#include "util/hash.h"

namespace tap::service {
namespace {

struct DigestCase {
  const char* label;
  const char* model;
  int layers;
  int nodes;
  int dp;  ///< 0 = mesh sweep
  int tp;
  const char* response_digest;
  const char* reasons_digest;
};

// Fixed meshes: dp2×tp4 on one 8-GPU node, dp2×tp8 on two.
const DigestCase kCases[] = {
    // clang-format off
    {"t5_1l_1x8_fixed",    "t5",       1, 1, 2, 4,
     "6f427dcda453a2c0ea37c9c86a816970",
     "1453c0eea373c6c26552f120b66d5ed1"},
    {"t5_1l_1x8_auto",     "t5",       1, 1, 0, 0,
     "ebb22d723fabfd152d0ea4c42ea8e3fd",
     "1453c0eea373c6c26552f120b66d5ed1"},
    {"t5_1l_2x8_fixed",    "t5",       1, 2, 2, 8,
     "e00b3ff89f2ef74a289ade673be6705e",
     "d5ca977342bb4923051030c62158ac4c"},
    {"t5_1l_2x8_auto",     "t5",       1, 2, 0, 0,
     "c8620795df5856d4fc89ca3f32436537",
     "b91ab8aa08ba16762897af5431c49e02"},
    {"t5_4l_1x8_fixed",    "t5",       4, 1, 2, 4,
     "961e1fa73b2bc32ce5dcb06e087d7420",
     "e88ccef7d1df1ba7a7a6b9b6f4d52e05"},
    {"t5_4l_1x8_auto",     "t5",       4, 1, 0, 0,
     "fec313e70cf4a6d8ff5df850cd0a22af",
     "e88ccef7d1df1ba7a7a6b9b6f4d52e05"},
    {"t5_4l_2x8_fixed",    "t5",       4, 2, 2, 8,
     "e3ffcbbc6975b2137d9edc3b648e9f90",
     "e243a274a5e651d7e7fe769bb45d9988"},
    {"t5_4l_2x8_auto",     "t5",       4, 2, 0, 0,
     "133fc8e52b151a54510b434d36d0625f",
     "8b4db015bec65ae152913681fd9b09ea"},
    {"t5_8l_1x8_fixed",    "t5",       8, 1, 2, 4,
     "5543b755ac67ba99098c63635f3c1e8e",
     "2bea485a5f3a86b141ce175cc1ad3edd"},
    {"t5_8l_1x8_auto",     "t5",       8, 1, 0, 0,
     "9b9eab71c09cb82c7658703814b92ea8",
     "2bea485a5f3a86b141ce175cc1ad3edd"},
    {"t5_8l_2x8_fixed",    "t5",       8, 2, 2, 8,
     "e2b01b921a5e28b5d2108073f79b6a39",
     "887add5a085976867aa4ef46d1324d79"},
    {"t5_8l_2x8_auto",     "t5",       8, 2, 0, 0,
     "b8158ec29c0cb68fdef204a183dd1b53",
     "e149386e7808553db698129d3d1daa4a"},
    {"bert_2l_1x8_fixed",  "bert",     2, 1, 2, 4,
     "ea2f9dd78e1c4e756894a0930d0880b7",
     "cd0f3d990439f36ebedf942fbdd44d6d"},
    {"bert_2l_1x8_auto",   "bert",     2, 1, 0, 0,
     "8f2670931369e713961191a7da1dbdc4",
     "cd0f3d990439f36ebedf942fbdd44d6d"},
    {"bert_2l_2x8_fixed",  "bert",     2, 2, 2, 8,
     "00236a09dc1c84077804e64c039bc105",
     "d06e5205bf36b4fa752c216ac8acb7ec"},
    {"bert_2l_2x8_auto",   "bert",     2, 2, 0, 0,
     "8aa3543a08efe6917292d36ee07bf7ad",
     "0e543aa322a45785a619bba9eb652616"},
    {"gpt3_2l_1x8_fixed",  "gpt3",     2, 1, 2, 4,
     "17293035727b297283bf3f145054e5d4",
     "0e543aa322a45785a619bba9eb652616"},
    {"gpt3_2l_1x8_auto",   "gpt3",     2, 1, 0, 0,
     "3a37ebc664acb22b057261377a94138b",
     "0e543aa322a45785a619bba9eb652616"},
    {"gpt3_2l_2x8_fixed",  "gpt3",     2, 2, 2, 8,
     "543ae7c2c28b98da7eb514f57f5a0ac0",
     "0e543aa322a45785a619bba9eb652616"},
    {"gpt3_2l_2x8_auto",   "gpt3",     2, 2, 0, 0,
     "8ec889389ee6cccb6a5da7b72297d9ca",
     "0e543aa322a45785a619bba9eb652616"},
    {"moe_2l_1x8_fixed",   "moe",      2, 1, 2, 4,
     "6f0267c68fdd16eeaad1223608baac21",
     "cd0f3d990439f36ebedf942fbdd44d6d"},
    {"moe_2l_1x8_auto",    "moe",      2, 1, 0, 0,
     "daa691ae86426e00f99fc873ddc1c9e8",
     "cd0f3d990439f36ebedf942fbdd44d6d"},
    {"moe_2l_2x8_fixed",   "moe",      2, 2, 2, 8,
     "0e75add85ab1e34abd693d84b0d978aa",
     "0e543aa322a45785a619bba9eb652616"},
    {"moe_2l_2x8_auto",    "moe",      2, 2, 0, 0,
     "0a479c20aacad921f8e84d2c9aa65e1d",
     "0e543aa322a45785a619bba9eb652616"},
    {"resnet50_1x8_fixed", "resnet50", 0, 1, 2, 4,
     "1511cf1c9ed01900b246f7ab294f5817",
     "992edc9be567283d53ed42f3af8cadd1"},
    {"resnet50_1x8_auto",  "resnet50", 0, 1, 0, 0,
     "4c71f95ec90917d5565aeac36a675530",
     "992edc9be567283d53ed42f3af8cadd1"},
    {"resnet50_2x8_fixed", "resnet50", 0, 2, 2, 8,
     "6a4629b2a66b862e4d43c56f443c2b22",
     "992edc9be567283d53ed42f3af8cadd1"},
    {"resnet50_2x8_auto",  "resnet50", 0, 2, 0, 0,
     "0cdd41196daa922314f68bb3e7f0a0b5",
     "992edc9be567283d53ed42f3af8cadd1"},
    // clang-format on
};

std::string hex(const util::Hash128& h) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  return buf;
}

class PlanDigests : public ::testing::TestWithParam<int> {};

TEST_P(PlanDigests, ResponseAndReasonsMatchPinnedDigests) {
  const DigestCase& c = kCases[static_cast<std::size_t>(GetParam())];
  ModelSpec spec;
  spec.model = c.model;
  if (c.layers > 0) spec.layers = c.layers;
  spec.nodes = c.nodes;
  spec.gpus = 8;
  spec.dp = c.dp;
  spec.tp = c.tp;
  const Graph g = build_spec_model(spec);
  const ir::TapGraph tg = ir::lower(g);
  const core::TapOptions opts = options_for_spec(spec, 1);
  const core::TapResult r = spec.sweep()
                                ? core::auto_parallel_best_mesh(tg, opts)
                                : core::auto_parallel(tg, opts);
  ASSERT_TRUE(r.provenance.complete());
  const PlanKey key = make_plan_key(tg, opts, spec.sweep());
  EXPECT_EQ(hex(util::hash128_str(plan_response_json(tg, key, r))),
            c.response_digest)
      << c.label;

  const sharding::RoutedPlan routed = sharding::route_plan(tg, r.best_plan);
  ASSERT_TRUE(routed.valid) << routed.error;
  std::string reasons;
  for (const sharding::CommEvent& e : routed.comms) {
    reasons += sharding::comm_reason(tg, routed, e);
    reasons += '\n';
  }
  EXPECT_EQ(hex(util::hash128_str(reasons)), c.reasons_digest) << c.label;
}

INSTANTIATE_TEST_SUITE_P(Zoo, PlanDigests,
                         ::testing::Range(0, static_cast<int>(
                                                 std::size(kCases))),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               kCases[static_cast<std::size_t>(info.param)]
                                   .label);
                         });

}  // namespace
}  // namespace tap::service
