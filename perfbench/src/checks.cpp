#include "checks.h"

#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>

#include "core/serialize.h"
#include "core/tap.h"
#include "report/report.h"
#include "service/fingerprint.h"
#include "sharding/routing.h"
#include "sim/simulator.h"
#include "util/json.h"

namespace perfbench {

namespace {

using tap::service::ModelSpec;

tap::core::TapResult plan_direct(const tap::ir::TapGraph& tg,
                                 const tap::core::TapOptions& opts,
                                 bool sweep) {
  return sweep ? tap::core::auto_parallel_best_mesh(tg, opts)
               : tap::core::auto_parallel(tg, opts);
}

/// The threads=1 reference, its plan-validity checks and its report.
void reference_at_one_thread(const ModelSpec& spec, bool explain,
                             const BuiltModel& m, Reference* ref) {
  const tap::core::TapOptions opts = tap::service::options_for_spec(spec, 1);
  const tap::service::PlanKey key =
      tap::service::make_plan_key(m.tg, opts, spec.sweep());
  const tap::core::TapResult r = plan_direct(m.tg, opts, spec.sweep());
  if (!r.provenance.complete()) {
    ref->error = "reference search did not complete";
    return;
  }
  ref->plan_bytes = tap::service::plan_response_json(m.tg, key, r);
  ref->plan_hash = body_hash(ref->plan_bytes);
  ref->stats = {r.candidate_plans, r.valid_plans, r.nodes_visited,
                r.cost_queries};

  // Parse the served form back and check it is a plan a trainer could use.
  const tap::util::JsonValue doc =
      tap::util::JsonValue::parse(ref->plan_bytes);
  const tap::sharding::ShardingPlan plan =
      tap::core::plan_from_json(m.tg, doc.at("plan").dump());
  const tap::sharding::RoutedPlan routed = tap::sharding::route_plan(m.tg, plan);
  if (!routed.valid) {
    ref->error = "plan does not route: " + routed.error;
    return;
  }
  const tap::sim::StepBreakdown step = tap::sim::simulate_step(
      m.tg, routed, plan.num_shards, opts.cluster);
  ref->step_ms = step.iteration_s * 1e3;
  if (!std::isfinite(ref->step_ms) || ref->step_ms <= 0.0) {
    ref->error = "simulated step time is not finite and positive";
    return;
  }
  if (explain) {
    ref->explain_bytes =
        tap::report::to_json(tap::report::build_report(m.tg, r, opts));
    ref->explain_hash = body_hash(ref->explain_bytes);
  }
}

/// " in: a, b.c" — the members (one level into objects) whose values
/// differ between two JSON documents; empty when either does not parse.
std::string differing_members(std::string_view got, std::string_view want) {
  using tap::util::JsonValue;
  std::string out;
  try {
    const JsonValue a = JsonValue::parse(got), b = JsonValue::parse(want);
    for (const auto& [key, va] : a.members()) {
      const JsonValue* vb = b.find(key);
      if (vb != nullptr && va.dump() == vb->dump()) continue;
      if (vb != nullptr && va.kind() == JsonValue::Kind::kObject &&
          vb->kind() == JsonValue::Kind::kObject) {
        for (const auto& [sub, sa] : va.members()) {
          const JsonValue* sb = vb->find(sub);
          if (sb == nullptr || sa.dump() != sb->dump())
            out += (out.empty() ? "" : ", ") + key + "." + sub;
        }
      } else {
        out += (out.empty() ? "" : ", ") + key;
      }
    }
  } catch (const std::exception&) {
    return "";
  }
  return out.empty() ? "" : " in: " + out;
}

}  // namespace

std::vector<Reference> compute_references(
    const std::vector<ModelSpec>& specs, const std::vector<char>& want_plan,
    const std::vector<char>& want_explain, int nproc) {
  std::vector<Reference> refs(specs.size());
  auto reference = [&](std::size_t i) {
    const std::unique_ptr<BuiltModel> m = build_model(specs[i], nullptr, 0);
    Reference& ref = refs[i];
    reference_at_one_thread(specs[i], want_explain[i] != 0, *m, &ref);
    if (!ref.error.empty()) return;
    // The same problem with the planner's own parallelism must give the
    // same bytes.
    const tap::core::TapOptions opts =
        tap::service::options_for_spec(specs[i], nproc);
    const tap::service::PlanKey key =
        tap::service::make_plan_key(m->tg, opts, specs[i].sweep());
    const std::string bytes = tap::service::plan_response_json(
        m->tg, key, plan_direct(m->tg, opts, specs[i].sweep()));
    if (bytes != ref.plan_bytes)
      ref.error = "threads=1 and threads=" + std::to_string(nproc) +
                  " plans differ";
  };
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < nproc; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < specs.size(); i = next++) {
        if (!want_plan[i]) continue;
        try {
          reference(i);
        } catch (const std::exception& e) {
          refs[i].error = std::string("reference threw: ") + e.what();
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return refs;
}

void Verifier::check_hash(std::uint32_t spec, bool explain,
                          std::uint64_t hash) {
  const Reference& ref = (*refs_)[spec];
  if (hash == (explain ? ref.explain_hash : ref.plan_hash)) return;
  ++failures_;
  ++mismatches_[explain ? 1 : 0];
}

void Verifier::check_bytes(std::uint32_t spec, bool explain,
                           std::string_view body, const char* where) {
  const Reference& ref = (*refs_)[spec];
  const std::string& want = explain ? ref.explain_bytes : ref.plan_bytes;
  if (body == want) return;
  // The answer's hash check counts the failure; equal hashes here mean it
  // could not, so count it now.
  if (body_hash(body) == body_hash(want)) ++failures_;
  if (messages_.size() < 8)
    messages_.push_back(std::string(where) + ": " +
                        (explain ? "explain" : "plan") + " body of spec " +
                        std::to_string(spec) + " differs from its reference" +
                        differing_members(body, want));
}

void Verifier::fail(const std::string& what, std::uint64_t count) {
  failures_ += count;
  if (messages_.size() < 8) messages_.push_back(what);
}

}  // namespace perfbench
