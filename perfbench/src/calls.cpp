#include "calls.h"

#include "checks.h"
#include "pruning/prune.h"
#include "service/planner_service.h"
#include "sharding/routing.h"

namespace perfbench {

namespace {

using tap::service::ModelSpec;

double pass_ms(const tap::core::TapResult& r, const char* pass) {
  for (const tap::core::PassTiming& t : r.pass_timings)
    if (t.pass == pass) return t.seconds * 1e3;
  return 0.0;
}

/// Span name of a planner pass ("FamilySearch" -> "core.family_search").
const char* pass_span(const std::string& pass) {
  if (pass == "BuildPatternTable") return "core.build_pattern_table";
  if (pass == "Prune") return "core.prune";
  if (pass == "FamilySearch") return "core.family_search";
  if (pass == "GlobalRefine") return "core.global_refine";
  if (pass == "FinalizeCost") return "core.finalize_cost";
  return "core.other_pass";
}

}  // namespace

void PassAccount::add(const tap::core::TapResult& r, double plan_ms,
                      bool sweep, SpanLog* log, std::uint64_t request,
                      Clock::time_point start) {
  double passes = 0.0;
  Clock::time_point at = start;
  for (const tap::core::PassTiming& t : r.pass_timings) {
    passes += t.seconds * 1e3;
    const Clock::time_point end =
        at + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(t.seconds));
    if (log != nullptr)
      log->record(pass_span(t.pass), "service.plan", request, at, end);
    at = end;
  }
  family_search_ms.push_back(pass_ms(r, "FamilySearch"));
  global_refine_ms.push_back(pass_ms(r, "GlobalRefine"));
  prune_ms.push_back(pass_ms(r, "Prune"));
  build_pattern_table_ms.push_back(pass_ms(r, "BuildPatternTable"));
  finalize_cost_ms.push_back(pass_ms(r, "FinalizeCost"));
  unattributed_ms.push_back(plan_ms - passes);
  if (!sweep) {
    fixed_family_search_s += pass_ms(r, "FamilySearch") / 1e3;
    fixed_candidates += r.candidate_plans;
  }
}

ColdOp plan_cold(const ModelSpec& spec, SpanLog* log, std::uint64_t request,
                 PassAccount* passes) {
  ColdOp op;
  const char* root = "search.op";
  const Clock::time_point t0 = Clock::now();
  const std::unique_ptr<BuiltModel> model =
      build_model(spec, log, request, root);
  tap::service::ServiceOptions sopts;
  sopts.request_threads = 1;
  tap::service::PlannerService svc(sopts);
  const tap::service::PlanRequest req{
      &model->tg, tap::service::options_for_spec(spec, 1), spec.sweep()};
  tap::service::PlanKey key;
  {
    ScopedSpan span(log, "service.key", root, request);
    key = svc.key_for(req);
  }
  const Clock::time_point p0 = Clock::now();
  const tap::core::TapResult result = svc.plan(req);
  const Clock::time_point p1 = Clock::now();
  {
    ScopedSpan span(log, "service.wire.serialize", root, request);
    op.body = tap::service::plan_response_json(model->tg, key, result);
  }
  const Clock::time_point t1 = Clock::now();
  op.latency_ms = micros_between(t0, t1) / 1e3;
  if (log != nullptr) {
    log->record("service.plan", root, request, p0, p1);
    log->record(root, "", request, t0, t1);
    {
      ScopedSpan span(log, "sharding.route", "", request);
      tap::sharding::route_plan(model->tg, result.best_plan);
    }
    {
      ScopedSpan span(log, "pruning.prune", "", request);
      tap::pruning::prune_graph(model->tg, req.opts.prune);
    }
    const std::string wire = tap::service::model_spec_to_json(spec);
    {
      ScopedSpan span(log, "service.wire.parse", "", request);
      tap::service::model_spec_from_json(wire);
    }
    passes->add(result, micros_between(p0, p1) / 1e3, spec.sweep(), log,
                request, p0);
  }
  return op;
}

ReplayResult replay_serve(const ServeWorkload& w,
                          const std::vector<std::uint64_t>& ids,
                          const std::string& cache_dir, double max_seconds,
                          SpanLog* log) {
  ReplayResult out;
  tap::service::ServiceOptions sopts;
  sopts.cache.disk_dir = cache_dir;
  tap::service::PlannerService svc(sopts);
  ModelCache models(log);
  auto request_for = [&](const ModelSpec& spec) {
    return tap::service::PlanRequest{
        &models.get(spec).tg, tap::service::options_for_spec(spec, 1),
        spec.sweep()};
  };
  for (std::size_t i = 0; i < w.warm; ++i) {
    const ModelSpec& spec = w.specs[i];
    const tap::service::PlanRequest req = request_for(spec);
    tap::service::PlanTelemetry telem;
    const Clock::time_point p0 = Clock::now();
    const tap::core::TapResult result = svc.plan(req, &telem);
    if (telem.served == tap::service::PlanTelemetry::Served::kSearched)
      out.setup_passes.add(result, micros_between(p0, Clock::now()) / 1e3,
                           spec.sweep(), nullptr, 0, p0);
  }

  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(max_seconds));
  for (std::uint64_t id : ids) {
    if (Clock::now() >= stop) break;
    const Request& r = w.sequence[id % w.sequence.size()];
    if (r.explain) continue;
    const std::string body = tap::service::model_spec_to_json(w.specs[r.spec]);
    const char* handle = "net.handle";
    ModelSpec spec;
    {
      ScopedSpan span(log, "service.wire.parse", handle, id);
      spec = tap::service::model_spec_from_json(body);
    }
    const tap::service::PlanRequest req = request_for(spec);
    tap::service::PlanKey key;
    {
      ScopedSpan span(log, "service.key", handle, id);
      key = svc.key_for(req);
    }
    tap::service::PlanTelemetry telem;
    const Clock::time_point p0 = Clock::now();
    const tap::core::TapResult result = svc.plan(req, &telem);
    const Clock::time_point p1 = Clock::now();
    log->record("service.plan", handle, id, p0, p1);
    const bool searched =
        telem.served == tap::service::PlanTelemetry::Served::kSearched;
    if (searched)
      out.passes.add(result, micros_between(p0, p1) / 1e3, spec.sweep(), log,
                     id, p0);
    // A hit re-prunes and re-routes inside plan(); a search did its own.
    const char* materialize = searched ? "" : "service.plan";
    {
      ScopedSpan span(log, "pruning.prune", materialize, id);
      tap::pruning::prune_graph(*req.tg, req.opts.prune);
    }
    {
      ScopedSpan span(log, "sharding.route", materialize, id);
      tap::sharding::route_plan(*req.tg, result.best_plan);
    }
    std::string bytes;
    {
      ScopedSpan span(log, "service.wire.serialize", handle, id);
      bytes = tap::service::plan_response_json(*req.tg, key, result);
    }
    out.specs.push_back(r.spec);
    out.hashes.push_back(body_hash(bytes));
    out.response_bytes.push_back(static_cast<double>(bytes.size()));
  }
  return out;
}

}  // namespace perfbench
