// The serve workloads: an in-process tap_serve stack (PlannerService +
// PlanHandler + HttpServer, at tap_serve's defaults plus a disk tier)
// driven closed-loop over HTTP, one keep-alive connection per client.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "net/http_server.h"
#include "net/plan_handler.h"
#include "service/planner_service.h"
#include "workloads.h"

namespace perfbench {

class Stack {
 public:
  /// Starts the stack on an ephemeral port with its disk tier in
  /// `cache_dir` (created empty; "" = memory tier only).
  explicit Stack(const std::string& cache_dir);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  int port() const { return server_.bound_port(); }
  tap::service::PlannerService& service() { return svc_; }
  /// Spans of PlanHandler::handle go to `log` from now on (nullptr = off).
  void trace_handler(SpanLog* log) { handler_log_.store(log); }

 private:
  tap::net::HttpMessage handle(const tap::net::HttpMessage& req);

  tap::service::PlannerService svc_;
  tap::net::PlanHandler handler_;
  std::atomic<SpanLog*> handler_log_{nullptr};
  tap::net::HttpServer server_;  ///< last: stops before the rest goes
};

/// One completed operation of a measured leg.
struct OpRecord {
  double end_s = 0.0;  ///< completion, from the leg's start
  double latency_ms = 0.0;
  std::uint32_t spec = 0;
  bool explain = false;
  bool ok = false;  ///< transport succeeded with status 200
  std::uint64_t hash = 0;
};

struct LegResult {
  std::vector<OpRecord> ops;
  double span_s = 0.0;
  /// The first body received per spec (plan and explain), kept whole so
  /// at least one answer per key is compared byte for byte.
  std::vector<std::string> first_plan;
  std::vector<std::string> first_explain;
  std::vector<std::string> errors;
};

/// Sends specs[0, w.warm) once each over `clients` connections.
/// Returns false (with a message) when any warm-up request fails.
bool warm_up(int port, const ServeWorkload& w, int clients,
             std::string* error);

/// Sends each spec once as POST /plan to a fresh stack (memory tier only,
/// nothing warmed), so every request is a miss that searches: the
/// fleet-miss path. Request i is a net.request span of id first_id + i and
/// its PlanHandler::handle a net.handle span it caused. Returns the
/// bodies, empty where a request failed (with a message in *errors).
std::vector<std::string> serve_misses(
    const std::vector<tap::service::ModelSpec>& specs, std::uint64_t first_id,
    SpanLog* log, std::vector<std::string>* errors);

/// Runs `clients` closed-loop clients for `seconds`, taking requests from
/// w.sequence at `*cursor` onward. With a log, each request is a
/// net.request span (request id = its sequence position) and carries a
/// traceparent naming that id so the handler span can join it.
LegResult run_leg(int port, const ServeWorkload& w,
                  std::atomic<std::uint64_t>* cursor, int clients,
                  double seconds, SpanLog* log);

}  // namespace perfbench
