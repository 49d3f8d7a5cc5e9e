// Seeded mutation sweep over every decoder that reads untrusted bytes:
// JsonValue::parse, the wire ModelSpec parsers, the by-name plan, the
// plan-cache record and the PlanReport. Each starts from a valid document
// and is fed its truncations at every offset, single-byte flips, and
// number substitutions (out-of-range, fractional, beyond int64). The
// contract: every call either returns or throws CheckError — no other
// exception, no crash (the sanitizer build runs this too).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/serialize.h"
#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "report/report.h"
#include "service/wire.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"

namespace tap {
namespace {

using Decoder = void (*)(const std::string&);

constexpr const char* kNumberSubstitutes[] = {
    "1e300", "-1e300", "1.5", "123456789012345678901234567890"};

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_name_char(char c) {
  return is_digit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool is_number_char(char c) {
  return is_digit(c) || c == '-' || c == '+' || c == '.' || c == 'e' ||
         c == 'E';
}

/// The mutated inputs of `doc`: every truncation, `flips` seeded
/// single-byte flips, and every number token replaced by each substitute.
std::vector<std::string> mutations(const std::string& doc, int flips,
                                   std::uint64_t seed) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < doc.size(); ++i) out.push_back(doc.substr(0, i));
  util::Rng rng(seed);
  for (int k = 0; k < flips; ++k) {
    std::string m = doc;
    const std::size_t at = rng.next_below(m.size());
    m[at] = static_cast<char>(m[at] ^ (1 + rng.next_below(255)));
    out.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < doc.size(); ++i) {
    // A number token starts with a digit or '-' not glued to a name
    // ("t5" is a model name, not a number).
    const bool glued = i > 0 && is_name_char(doc[i - 1]);
    if (glued || !(is_digit(doc[i]) || doc[i] == '-')) continue;
    std::size_t end = i;
    while (end < doc.size() && is_number_char(doc[end])) ++end;
    for (const char* sub : kNumberSubstitutes)
      out.push_back(doc.substr(0, i) + sub + doc.substr(end));
    i = end;
  }
  return out;
}

/// Feeds every mutation of `doc` to `decode`; reports the first input
/// that escapes with anything but CheckError.
void sweep(const char* name, const std::string& doc, std::uint64_t seed,
           Decoder decode) {
  ASSERT_NO_THROW(decode(doc)) << name << " rejects its own seed document";
  std::size_t escaped = 0;
  std::string first;
  const std::vector<std::string> inputs = mutations(doc, 512, seed);
  for (const std::string& input : inputs) {
    try {
      decode(input);
    } catch (const CheckError&) {
    } catch (const std::exception& e) {
      if (escaped++ == 0)
        first = std::string(typeid(e).name()) + ": " + e.what() +
                "\n  input: " + input.substr(0, 300);
    }
  }
  EXPECT_EQ(escaped, 0u) << name << ": " << escaped << " of " << inputs.size()
                         << " inputs escaped with a non-CheckError; first "
                         << first;
}

struct Planned {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts;
  core::TapResult result;
  Planned() {
    opts.cluster = cost::ClusterSpec::v100_cluster(1);
    opts.num_shards = 4;
    opts.dp_replicas = 2;
    opts.threads = 1;
    result = core::auto_parallel(tg, opts);
  }
};

const Planned& planned() {
  static const Planned p;
  return p;
}

void decode_json(const std::string& s) { util::JsonValue::parse(s); }

void decode_spec_json(const std::string& s) {
  service::model_spec_from_json(s);
}

void decode_spec_query(const std::string& s) {
  service::model_spec_from_query(s);
}

void decode_plan(const std::string& s) {
  core::plan_from_json(planned().tg, s);
}

void decode_record(const std::string& s) {
  core::plan_record_from_json(planned().tg, s);
}

void decode_report(const std::string& s) { report::from_json(s); }

TEST(DecoderFuzz, ModelSpecJson) {
  service::ModelSpec spec;
  spec.layers = 2;
  spec.nodes = 1;
  spec.dp = 2;
  spec.tp = 4;
  spec.deadline_ms = 50;
  const std::string doc = service::model_spec_to_json(spec);
  sweep("model_spec_from_json", doc, 1, decode_spec_json);
  sweep("JsonValue::parse", doc, 2, decode_json);
}

TEST(DecoderFuzz, ModelSpecQuery) {
  const std::string doc =
      "/explain?model=t5&layers=2&classes=10&batch=16&nodes=1&gpus=8&"
      "mesh=2x4&deadline_ms=50";
  sweep("model_spec_from_query", doc, 3, decode_spec_query);
}

TEST(DecoderFuzz, PlanJson) {
  const Planned& p = planned();
  const std::string doc = core::plan_to_json(p.tg, p.result.best_plan);
  sweep("plan_from_json", doc, 4, decode_plan);
  sweep("JsonValue::parse", doc, 5, decode_json);
}

TEST(DecoderFuzz, PlanRecord) {
  const Planned& p = planned();
  core::PlanRecord rec;
  rec.plan = p.result.best_plan;
  rec.cost = p.result.cost;
  rec.stats = {p.result.candidate_plans, p.result.valid_plans,
               p.result.nodes_visited, p.result.cost_queries};
  rec.families_searched = p.result.provenance.families_searched;
  rec.families_total = p.result.provenance.families_total;
  rec.meshes_searched = p.result.provenance.meshes_searched;
  rec.meshes_total = p.result.provenance.meshes_total;
  rec.timings = p.result.pass_timings;
  rec.search_seconds = p.result.search_seconds;
  const std::string doc = core::plan_record_to_json(p.tg, rec);
  sweep("plan_record_from_json", doc, 6, decode_record);
}

TEST(DecoderFuzz, PlanReport) {
  const Planned& p = planned();
  report::PlanReport rep = report::build_report(p.tg, p.result, p.opts);
  // A few entries per list cover the list decoders; all of them would
  // only make the every-offset truncation quadratic in a 20 KB document.
  const std::size_t keep = 3;
  rep.contributors.resize(std::min(rep.contributors.size(), keep));
  auto& cp = rep.critical_path;
  cp.intervals.resize(std::min(cp.intervals.size(), keep));
  cp.steps.resize(std::min(cp.steps.size(), keep));
  const std::string doc = report::to_json(rep);
  sweep("report::from_json", doc, 7, decode_report);
  sweep("JsonValue::parse", doc, 8, decode_json);
}

}  // namespace
}  // namespace tap
