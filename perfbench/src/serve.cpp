#include "serve.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "checks.h"
#include "net/plan_client.h"

namespace perfbench {

namespace {

using tap::net::HttpMessage;
using tap::service::ModelSpec;

tap::service::ServiceOptions service_options(const std::string& cache_dir) {
  tap::service::ServiceOptions opts;
  opts.cache.disk_dir = cache_dir;
  return opts;
}

tap::net::PlanHandlerOptions handler_options() {
  tap::net::PlanHandlerOptions opts;
  opts.search_threads = 1;  // tap_serve --threads default
  return opts;
}

/// The request message for `r` (POST /plan body or GET /explain target).
void fill_request(const ServeWorkload& w, const Request& r,
                  const std::vector<std::string>& bodies, HttpMessage* msg) {
  if (r.explain) {
    msg->method = "GET";
    msg->target = explain_target(w.specs[r.spec]);
    msg->body.clear();
  } else {
    msg->method = "POST";
    msg->target = "/plan";
    msg->body = bodies[r.spec];
  }
}

std::vector<std::string> request_bodies(const ServeWorkload& w) {
  std::vector<std::string> bodies;
  bodies.reserve(w.specs.size());
  for (const auto& spec : w.specs)
    bodies.push_back(tap::service::model_spec_to_json(spec));
  return bodies;
}

/// traceparent whose trace id carries `request` in its low 64 bits.
std::string traceparent_for(std::uint64_t request) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "00-%016llx%016llx-%016llx-01", 1ull,
                static_cast<unsigned long long>(request), 1ull);
  return buf;
}

std::uint64_t request_of(const HttpMessage& req) {
  const std::string* h = req.find_header("traceparent");
  if (h == nullptr || h->size() < 35) return 0;
  return std::strtoull(h->substr(19, 16).c_str(), nullptr, 16);
}

}  // namespace

Stack::Stack(const std::string& cache_dir)
    : svc_(service_options(cache_dir)),
      handler_(&svc_, handler_options()),
      server_([this](const HttpMessage& req) { return handle(req); }) {
  server_.start();
}

HttpMessage Stack::handle(const HttpMessage& req) {
  SpanLog* log = handler_log_.load(std::memory_order_relaxed);
  if (log == nullptr) return handler_.handle(req);
  ScopedSpan span(log, "net.handle", "net.request", request_of(req));
  return handler_.handle(req);
}

bool warm_up(int port, const ServeWorkload& w, int clients,
             std::string* error) {
  const std::vector<std::string> bodies = request_bodies(w);
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      tap::net::HttpConnection conn({"127.0.0.1", port}, {});
      HttpMessage msg;
      for (std::size_t i = next++; i < w.warm; i = next++) {
        fill_request(w, {static_cast<std::uint32_t>(i), false}, bodies, &msg);
        std::string failure;
        try {
          const HttpMessage resp = conn.request(msg);
          if (resp.status != 200)
            failure = "status " + std::to_string(resp.status);
        } catch (const std::exception& e) {
          failure = e.what();
        }
        if (!failure.empty()) {
          std::lock_guard<std::mutex> lk(mu);
          *error = "warm-up of spec " + std::to_string(i) + ": " + failure;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return error->empty();
}

std::vector<std::string> serve_misses(const std::vector<ModelSpec>& specs,
                                      std::uint64_t first_id, SpanLog* log,
                                      std::vector<std::string>* errors) {
  Stack stack("");
  stack.trace_handler(log);
  tap::net::HttpConnection conn({"127.0.0.1", stack.port()}, {});
  std::vector<std::string> bodies(specs.size());
  HttpMessage msg;
  msg.method = "POST";
  msg.target = "/plan";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::uint64_t id = first_id + i;
    msg.body = tap::service::model_spec_to_json(specs[i]);
    msg.set_header("traceparent", traceparent_for(id));
    const Clock::time_point t0 = Clock::now();
    try {
      HttpMessage resp = conn.request(msg);
      if (resp.status == 200) {
        bodies[i] = std::move(resp.body);
      } else {
        errors->push_back("status " + std::to_string(resp.status) + ": " +
                          resp.body);
      }
    } catch (const std::exception& e) {
      errors->push_back(e.what());
    }
    log->record("net.request", "", id, t0, Clock::now());
  }
  return bodies;
}

LegResult run_leg(int port, const ServeWorkload& w,
                  std::atomic<std::uint64_t>* cursor, int clients,
                  double seconds, SpanLog* log) {
  const std::vector<std::string> bodies = request_bodies(w);
  const std::size_t n_specs = w.specs.size();
  struct ClientState {
    std::vector<OpRecord> ops;
    std::vector<std::string> first_plan;
    std::vector<std::string> first_explain;
    std::vector<std::string> errors;
  };
  std::vector<ClientState> states(static_cast<std::size_t>(clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientState& st = states[static_cast<std::size_t>(c)];
      st.first_plan.resize(n_specs);
      st.first_explain.resize(n_specs);
      st.ops.reserve(1 << 16);
      tap::net::HttpConnection conn({"127.0.0.1", port}, {});
      HttpMessage msg;
      while (Clock::now() < deadline) {
        const std::uint64_t id = cursor->fetch_add(1);
        const Request r = w.sequence[id % w.sequence.size()];
        fill_request(w, r, bodies, &msg);
        if (log != nullptr) msg.set_header("traceparent", traceparent_for(id));
        OpRecord op;
        op.spec = r.spec;
        op.explain = r.explain;
        const Clock::time_point t0 = Clock::now();
        HttpMessage resp;
        try {
          resp = conn.request(msg);
          op.ok = resp.status == 200;
          if (!op.ok && st.errors.size() < 4)
            st.errors.push_back("status " + std::to_string(resp.status) +
                                ": " + resp.body);
        } catch (const std::exception& e) {
          if (st.errors.size() < 4) st.errors.push_back(e.what());
        }
        const Clock::time_point t1 = Clock::now();
        if (log != nullptr) log->record("net.request", "", id, t0, t1);
        op.latency_ms = micros_between(t0, t1) / 1e3;
        op.end_s = micros_between(start, t1) / 1e6;
        if (op.ok) {
          op.hash = body_hash(resp.body);
          std::string& first =
              r.explain ? st.first_explain[r.spec] : st.first_plan[r.spec];
          if (first.empty()) first = std::move(resp.body);
        }
        st.ops.push_back(op);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LegResult out;
  out.span_s = seconds;
  out.first_plan.resize(n_specs);
  out.first_explain.resize(n_specs);
  for (ClientState& st : states) {
    out.ops.insert(out.ops.end(), st.ops.begin(), st.ops.end());
    for (std::size_t i = 0; i < n_specs; ++i) {
      if (out.first_plan[i].empty()) out.first_plan[i] = std::move(st.first_plan[i]);
      if (out.first_explain[i].empty())
        out.first_explain[i] = std::move(st.first_explain[i]);
    }
    out.errors.insert(out.errors.end(), st.errors.begin(), st.errors.end());
  }
  return out;
}

}  // namespace perfbench
