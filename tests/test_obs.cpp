// tap::obs — metrics registry and trace-session tests: concurrent
// counter/histogram hammering with validated totals, span nesting across
// ThreadPool tasks, Chrome JSON round-trips, and the disabled-session
// fast path (records nothing, costs ~nothing).
#include "obs/metrics.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/tap.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/request_context.h"
#include "service/planner_service.h"
#include "sim/trace.h"
#include "util/check.h"
#include "util/json.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace tap::obs {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterGaugeBasics) {
  MetricsRegistry reg;
  Counter* c = reg.counter("a.b.c");
  EXPECT_EQ(c->value(), 0u);
  c->add();
  c->add(41);
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(reg.counter("a.b.c"), c) << "same name -> same handle";

  Gauge* g = reg.gauge("a.depth");
  g->set(3.0);
  g->add(-1.5);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
}

TEST(ObsMetrics, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), CheckError);
  EXPECT_THROW(reg.histogram("x"), CheckError);
}

TEST(ObsMetrics, HistogramBucketAssignment) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("lat", std::vector<double>{1.0, 2.0, 5.0});
  h->observe(0.5);   // bucket 0
  h->observe(1.0);   // bucket 0 (bounds are inclusive upper)
  h->observe(1.5);   // bucket 1
  h->observe(5.0);   // bucket 2
  h->observe(10.0);  // overflow
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 1u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->bucket_count(3), 1u);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 18.0);
}

TEST(ObsMetrics, ConcurrentCounterHammerValidatedTotals) {
  MetricsRegistry reg;
  Counter* c = reg.counter("hammer.count");
  Gauge* g = reg.gauge("hammer.depth");
  constexpr int kThreads = 8;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c->add();
        g->add(1.0);
        g->add(-1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(g->value(), 0.0) << "balanced +1/-1 adds cancel exactly";
}

TEST(ObsMetrics, ConcurrentHistogramHammerValidatedTotals) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("hammer.ms", std::vector<double>{1.0, 10.0});
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Thread t observes the constant (t % 3) * 5 — integer-valued doubles,
    // so the CAS-accumulated sum must be exact.
    threads.emplace_back([&, t] {
      const double v = static_cast<double>(t % 3) * 5.0;
      for (int i = 0; i < kIters; ++i) h->observe(v);
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t n = static_cast<std::uint64_t>(kThreads) * kIters;
  EXPECT_EQ(h->count(), n);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i <= h->bounds().size(); ++i)
    bucket_total += h->bucket_count(i);
  EXPECT_EQ(bucket_total, n);
  // Threads 0,3,6 observed 0; 1,4,7 observed 5; 2,5 observed 10.
  EXPECT_DOUBLE_EQ(h->sum(), (3 * 5.0 + 2 * 10.0) * kIters);
  EXPECT_EQ(h->bucket_count(0), 3u * kIters);  // 0 <= 1
  EXPECT_EQ(h->bucket_count(1), 5u * kIters);  // 5 and 10 <= 10
}

TEST(ObsMetrics, DumpJsonShapeAndReset) {
  MetricsRegistry reg;
  reg.counter("z.last")->add(7);
  reg.counter("a.first")->add(1);
  reg.gauge("g.depth")->set(2.5);
  reg.histogram("h.ms", std::vector<double>{1.0})->observe(0.5);
  const std::string json = reg.dump_json();
  EXPECT_NE(json.find("\"counters\":{\"a.first\":1,\"z.last\":7}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"g.depth\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"h.ms\":{\"count\":1,\"sum\":0.5"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":\"inf\",\"count\":0}"), std::string::npos);

  Counter* c = reg.counter("a.first");
  reg.reset();
  EXPECT_EQ(c->value(), 0u) << "reset zeroes values, handles stay valid";
  EXPECT_EQ(reg.histogram("h.ms")->count(), 0u);
}

TEST(ObsMetrics, DumpJsonEscapesNamesAndParsesBack) {
  // Metric names are free-form strings; the dump must stay valid JSON
  // whatever they contain.
  MetricsRegistry reg;
  const std::string awkward = "quote\"back\\slash";
  reg.counter(awkward)->add(3);
  reg.gauge(awkward + ".g")->set(1.5);
  reg.histogram(awkward + ".h", std::vector<double>{1.0})->observe(2.0);
  const util::JsonValue doc = util::JsonValue::parse(reg.dump_json());
  EXPECT_EQ(doc.at("counters").at(awkward).as_int(), 3);
  EXPECT_EQ(doc.at("gauges").at(awkward + ".g").as_number(), 1.5);
  const util::JsonValue& h = doc.at("histograms").at(awkward + ".h");
  EXPECT_EQ(h.at("count").as_int(), 1);
  EXPECT_EQ(h.at("buckets").items().back().at("le").as_string(), "inf");
  EXPECT_EQ(h.at("buckets").items().back().at("count").as_int(), 1);
}

TEST(ObsMetrics, PrometheusDump) {
  MetricsRegistry reg;
  reg.counter("cache.mem.hits")->add(3);
  reg.gauge("pool.queue-depth")->set(2.5);
  Histogram* h = reg.histogram("req.ms", std::vector<double>{1.0, 2.0});
  h->observe(0.5);
  h->observe(1.5);
  h->observe(9.0);  // overflow
  const std::string text = reg.dump_prometheus();

  EXPECT_NE(text.find("# TYPE tap_cache_mem_hits counter\n"
                      "tap_cache_mem_hits 3\n"),
            std::string::npos)
      << text;
  // Non-alphanumeric characters ('.', '-') sanitize to '_'.
  EXPECT_NE(text.find("# TYPE tap_pool_queue_depth gauge\n"
                      "tap_pool_queue_depth 2.5\n"),
            std::string::npos);
  // Histogram buckets are cumulative and end with +Inf == count.
  EXPECT_NE(text.find("# TYPE tap_req_ms histogram\n"
                      "tap_req_ms_bucket{le=\"1\"} 1\n"
                      "tap_req_ms_bucket{le=\"2\"} 2\n"
                      "tap_req_ms_bucket{le=\"+Inf\"} 3\n"
                      "tap_req_ms_sum 11\n"
                      "tap_req_ms_count 3\n"),
            std::string::npos)
      << text;
}

TEST(ObsMetrics, HistogramQuantile) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("q.ms", std::vector<double>{1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(histogram_quantile(*h, 0.5), 0.0) << "empty -> 0";
  h->observe(0.5);
  h->observe(1.5);
  h->observe(3.0);
  h->observe(3.5);
  ASSERT_EQ(h->count(), 4u);
  // target = 2 observations: the 2nd lands at the top of bucket (1, 2].
  EXPECT_DOUBLE_EQ(histogram_quantile(*h, 0.50), 2.0);
  // target = 3: halfway through the 2-observation bucket (2, 4].
  EXPECT_DOUBLE_EQ(histogram_quantile(*h, 0.75), 3.0);
  // q = 1 clamps to the last finite bound.
  EXPECT_DOUBLE_EQ(histogram_quantile(*h, 1.0), 4.0);
  h->observe(100.0);  // overflow bucket
  EXPECT_DOUBLE_EQ(histogram_quantile(*h, 1.0), 4.0)
      << "+inf bucket clamps to the largest finite bound";
}

TEST(ObsMetrics, PlannerRunPopulatesGlobalRegistry) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts;
  opts.num_shards = 4;
  opts.threads = 1;

  Counter* candidates = registry().counter("planner.family.candidates");
  Histogram* prune_ms = registry().histogram("planner.pass.prune_ms");
  const std::uint64_t cand_before = candidates->value();
  const std::uint64_t prune_before = prune_ms->count();

  auto result = core::auto_parallel(tg, opts);
  EXPECT_EQ(candidates->value() - cand_before,
            static_cast<std::uint64_t>(result.candidate_plans))
      << "the global counter mirrors the result's statistic";
  EXPECT_EQ(prune_ms->count(), prune_before + 1);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledSpansRecordNothing) {
  ASSERT_EQ(active_session(), nullptr);
  {
    TAP_SPAN("never.recorded");
    TAP_SPAN(std::string("also.never"), "cat");
  }
  TraceSession session;
  session.start();
  session.stop();
  EXPECT_TRUE(session.events().empty());
  EXPECT_EQ(session.thread_buffer_count(), 0u)
      << "disabled spans must not even allocate a thread buffer";
}

TEST(ObsTrace, DisabledSpanOverheadNegligible) {
  ASSERT_EQ(active_session(), nullptr);
  // The guard is one relaxed atomic load; 1e6 disabled spans must be far
  // under a second even with sanitizers instrumenting the load. The bound
  // is deliberately loose (1us/span vs the ~1ns expected) — it catches a
  // clock read or allocation sneaking into the disabled path, not noise.
  constexpr int kSpans = 1000000;
  util::Stopwatch sw;
  for (int i = 0; i < kSpans; ++i) {
    TAP_SPAN("overhead.probe");
  }
  const double per_span_us = sw.elapsed_seconds() * 1e6 / kSpans;
  EXPECT_LT(per_span_us, 1.0)
      << "disabled TAP_SPAN costs " << per_span_us << "us";
}

TEST(ObsTrace, SessionExclusiveAndRestartable) {
  TraceSession a;
  a.start();
  EXPECT_TRUE(a.active());
  EXPECT_EQ(active_session(), &a);
  TraceSession b;
  EXPECT_THROW(b.start(), CheckError);
  a.stop();
  EXPECT_EQ(active_session(), nullptr);
  b.start();
  EXPECT_TRUE(b.active());
  b.stop();
}

TEST(ObsTrace, SpanNestingOnOneThread) {
  TraceSession session;
  session.start();
  {
    TAP_SPAN("outer");
    TAP_SPAN("inner");
  }
  session.stop();
  const auto events = session.events();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes (and records) first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].tid, events[1].tid);
  // Containment: outer.start <= inner.start, inner.end <= outer.end.
  EXPECT_LE(events[1].start_us, events[0].start_us);
  EXPECT_GE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
}

TEST(ObsTrace, SpanNestingAcrossThreadPoolTasks) {
  TraceSession session;
  session.start();
  constexpr std::size_t kTasks = 16;
  {
    TAP_SPAN("parallel_for");
    util::ThreadPool pool(4);
    pool.parallel_for(kTasks, [&](std::size_t i) {
      TAP_SPAN("task." + std::to_string(i), "test");
      TAP_SPAN("task." + std::to_string(i) + ".inner", "test");
    });
  }
  session.stop();
  const auto events = session.events();
  ASSERT_EQ(events.size(), 2 * kTasks + 1);

  for (std::size_t i = 0; i < kTasks; ++i) {
    const std::string task = "task." + std::to_string(i);
    const auto outer = std::find_if(events.begin(), events.end(),
                                    [&](const auto& e) { return e.name == task; });
    const auto inner =
        std::find_if(events.begin(), events.end(), [&](const auto& e) {
          return e.name == task + ".inner";
        });
    ASSERT_NE(outer, events.end()) << task;
    ASSERT_NE(inner, events.end()) << task;
    // A scoped span closes on the thread that opened it, so the pair
    // shares a lane and nests.
    EXPECT_EQ(outer->tid, inner->tid);
    EXPECT_LE(outer->start_us,
              inner->start_us + 1e-6);  // fp slack on equal clock reads
    EXPECT_GE(outer->start_us + outer->dur_us + 1e-6,
              inner->start_us + inner->dur_us);
  }
  // 4 pool threads at most (3 workers + caller), each lane registered once.
  EXPECT_GE(session.thread_buffer_count(), 1u);
  EXPECT_LE(session.thread_buffer_count(), 4u);
}

TEST(ObsTrace, AsyncBeginEndPairAcrossThreads) {
  TraceSession session;
  session.start();
  session.async_begin("req", "service", 7);
  std::thread worker([&] { session.async_end("req", "service", 7); });
  worker.join();
  session.stop();
  const auto events = session.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kAsyncBegin);
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kAsyncEnd);
  EXPECT_EQ(events[0].id, 7u);
  EXPECT_EQ(events[1].id, 7u);
  EXPECT_NE(events[0].tid, events[1].tid) << "ended on a different lane";
  const std::string json = session.to_chrome_json();
  EXPECT_NE(json.find("\"ph\":\"b\",\"id\":\"7\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"e\",\"id\":\"7\""), std::string::npos);
}

// Pulls every occurrence of a quoted string field out of a JSON document —
// enough parsing to verify the writer round-trips names and timestamps.
std::vector<std::string> extract_all(const std::string& json,
                                     const std::string& key) {
  std::vector<std::string> out;
  const std::string needle = "\"" + key + "\":";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    if (json[pos] == '"') {
      std::size_t end = pos + 1;
      while (end < json.size() &&
             (json[end] != '"' || json[end - 1] == '\\'))
        ++end;
      out.push_back(json.substr(pos + 1, end - pos - 1));
      pos = end;
    } else {
      std::size_t end = pos;
      while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
      out.push_back(json.substr(pos, end - pos));
      pos = end;
    }
  }
  return out;
}

TEST(ObsTrace, ChromeJsonRoundTripsNamesAndTimestamps) {
  TraceSession session;
  session.add_complete("alpha", "forward", 1000.0, 250.0, 1, 3);
  session.add_complete("beta \"quoted\"", "comm", 2000.0, 125.0, 1, 4);
  const std::string json = session.to_chrome_json();

  // Structurally sound: balanced braces/brackets, one traceEvents array.
  long depth = 0;
  long min_depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    min_depth = std::min(min_depth, depth);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_GE(min_depth, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  const auto names = extract_all(json, "name");
  // Two process-name metadata records contribute two "name" fields each
  // ("process_name" + the label in args), then the two events.
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[1], "planner");
  EXPECT_EQ(names[3], "simulated step");
  EXPECT_EQ(names[4], "alpha");
  EXPECT_EQ(names[5], "beta \\\"quoted\\\"");  // escaped in transport
  const auto ts = extract_all(json, "ts");
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0], "1000");
  EXPECT_EQ(ts[1], "2000");
  const auto dur = extract_all(json, "dur");
  ASSERT_EQ(dur.size(), 2u);
  EXPECT_EQ(dur[0], "250");
  EXPECT_EQ(dur[1], "125");
}

TEST(ObsTrace, SimTraceImportsOntoSessionTimeline) {
  sim::Trace trace;
  trace.add("matmul", "forward", 0.001, 0.002, 0);
  trace.add("allreduce", "comm", 0.003, 0.004, 1);

  TraceSession session;
  session.start();
  {
    TAP_SPAN("plan");
  }
  trace.append_to(session);
  session.stop();

  const auto events = session.events();
  ASSERT_EQ(events.size(), 3u);
  double plan_end = 0.0;
  int sim_events = 0;
  for (const auto& e : events) {
    if (e.name == "plan") {
      EXPECT_EQ(e.pid, 0);
      plan_end = e.start_us + e.dur_us;
    } else {
      EXPECT_EQ(e.pid, 1) << "simulated events land on their own process";
      ++sim_events;
    }
  }
  EXPECT_EQ(sim_events, 2);
  for (const auto& e : events) {
    if (e.pid == 1) {
      EXPECT_GE(e.start_us, plan_end)
          << "sim events are re-based after the planner span";
    }
  }
}

TEST(ObsTrace, ServiceRequestEmitsCacheAndServiceEvents) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  core::TapOptions opts;
  opts.num_shards = 4;
  opts.threads = 1;

  TraceSession session;
  session.start();
  {
    service::ServiceOptions sopts;
    sopts.request_threads = 1;
    service::PlannerService svc(sopts);
    svc.plan({&tg, opts, false});  // miss -> async search span
    svc.plan({&tg, opts, false});  // memory hit -> instant
  }
  session.stop();

  bool miss = false, hit = false, begin = false, end = false, pass = false;
  for (const auto& e : session.events()) {
    miss |= e.name == "cache.mem.miss";
    hit |= e.name == "cache.mem.hit";
    begin |= e.phase == TraceEvent::Phase::kAsyncBegin &&
             e.name == "service.search";
    end |= e.phase == TraceEvent::Phase::kAsyncEnd &&
           e.name == "service.search";
    pass |= e.category == "planner.pass";
  }
  EXPECT_TRUE(miss);
  EXPECT_TRUE(hit);
  EXPECT_TRUE(begin);
  EXPECT_TRUE(end);
  EXPECT_TRUE(pass) << "the search's pipeline spans share the timeline";
}

TEST(ObsTrace, SpanArgsLandInChromeJson) {
  TraceSession session;
  session.start();
  {
    ScopedSpan span("tagged.span", "test");
    span.arg("trace", "deadbeefdeadbeefdeadbeefdeadbeef");
  }
  session.instant("tagged.instant", "test", {{"k", "v"}});
  session.stop();
  const std::string json = session.to_chrome_json();
  EXPECT_NE(json.find("deadbeefdeadbeefdeadbeefdeadbeef"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\""), std::string::npos);
  bool span_args = false;
  for (const TraceEvent& e : session.events()) {
    if (e.name == "tagged.span")
      span_args = e.args.count("trace") == 1;
  }
  EXPECT_TRUE(span_args);
}

// ---------------------------------------------------------------------------
// Request context (ISSUE 9) — thread-local install/restore semantics
// (the traceparent wire format is covered in tests/test_net.cpp)
// ---------------------------------------------------------------------------

TEST(ObsRequestContext, ScopedInstallAndNestingRestore) {
  EXPECT_EQ(current_request_context(), nullptr);
  const RequestContext outer = generate_request_context();
  {
    ScopedRequestContext s1(outer);
    ASSERT_NE(current_request_context(), nullptr);
    EXPECT_EQ(current_request_context()->trace_hi, outer.trace_hi);
    RequestContext inner = outer;
    inner.span_id = next_span_id();
    inner.deadline_class = "tight";
    {
      ScopedRequestContext s2(inner);
      EXPECT_EQ(current_request_context()->span_id, inner.span_id);
      EXPECT_STREQ(current_request_context()->deadline_class, "tight");
    }
    // Nesting restores the OUTER context, not null.
    ASSERT_NE(current_request_context(), nullptr);
    EXPECT_EQ(current_request_context()->span_id, outer.span_id);
  }
  EXPECT_EQ(current_request_context(), nullptr);
}

TEST(ObsRequestContext, ContextIsThreadLocal) {
  const RequestContext ctx = generate_request_context();
  ScopedRequestContext scope(ctx);
  const RequestContext* seen = &ctx;  // anything non-null
  std::thread other([&] { seen = current_request_context(); });
  other.join();
  EXPECT_EQ(seen, nullptr)
      << "another thread must not inherit this thread's context";
}

// ---------------------------------------------------------------------------
// Flight recorder (ISSUE 9)
// ---------------------------------------------------------------------------

FlightRecord record_with(std::uint64_t trace_lo, const char* route) {
  FlightRecord rec;
  rec.trace_hi = 0x1111111111111111ull;
  rec.trace_lo = trace_lo;
  rec.status = 200;
  rec.sampled = true;
  set_record_field(rec.route, sizeof rec.route, route);
  set_record_field(rec.served, sizeof rec.served, "memory");
  set_record_field(rec.provenance, sizeof rec.provenance, "complete");
  set_record_field(rec.deadline_class, sizeof rec.deadline_class, "none");
  return rec;
}

TEST(ObsFlightRecorder, RecordFieldTruncatesSafely) {
  char buf[8];
  set_record_field(buf, sizeof buf, "short");
  EXPECT_STREQ(buf, "short");
  set_record_field(buf, sizeof buf, "definitely-longer-than-eight");
  EXPECT_EQ(std::string(buf).size(), 7u) << "always NUL-terminated";
}

TEST(ObsFlightRecorder, KeepsNewestAcrossWrap) {
  FlightRecorder rec(/*capacity=*/8, /*slow_ms=*/100.0);
  for (std::uint64_t i = 1; i <= 20; ++i)
    rec.record(record_with(i, "plan"));
  EXPECT_EQ(rec.total(), 20u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::vector<FlightRecord> snap = rec.snapshot(4);
  ASSERT_EQ(snap.size(), 4u);
  // Newest first, and only the newest survive the wrap.
  EXPECT_EQ(snap[0].trace_lo, 20u);
  EXPECT_EQ(snap[1].trace_lo, 19u);
  EXPECT_EQ(snap[2].trace_lo, 18u);
  EXPECT_EQ(snap[3].trace_lo, 17u);
  // Asking for more than capacity returns at most capacity records.
  EXPECT_LE(rec.snapshot(100).size(), 8u);
}

TEST(ObsFlightRecorder, DisabledRecordsNothing) {
  FlightRecorder rec(8, 100.0);
  rec.set_enabled(false);
  rec.record(record_with(1, "plan"));
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_TRUE(rec.snapshot(8).empty());
  rec.set_enabled(true);
  rec.record(record_with(2, "plan"));
  EXPECT_EQ(rec.total(), 1u);
}

TEST(ObsFlightRecorder, ConcurrentWritersAccountForEveryRecord) {
  FlightRecorder rec(/*capacity=*/64, /*slow_ms=*/100.0);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i)
        rec.record(record_with(static_cast<std::uint64_t>(t), "plan"));
    });
  }
  for (auto& t : threads) t.join();
  // Every admission is either in the ring's history or counted dropped.
  EXPECT_EQ(rec.total(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<FlightRecord> snap = rec.snapshot(64);
  EXPECT_FALSE(snap.empty());
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_GT(snap[i - 1].seq, snap[i].seq) << "newest-first order";
}

TEST(ObsFlightRecorder, ToJsonParsesAndSpellsTraceIds) {
  FlightRecorder rec(8, 123.5);
  FlightRecord r = record_with(0x2222222222222222ull, "plan");
  r.key_digest = 0xabcull;
  r.queue_ms = 1.25f;
  r.handle_ms = 200.0f;
  r.search_ms = 150.0f;
  r.span_count = 1;
  set_record_field(r.spans[0].name, sizeof r.spans[0].name, "FamilySearch");
  r.spans[0].ms = 149.5f;
  rec.record(r);
  rec.record(record_with(3, "healthz"));

  const util::JsonValue doc = util::JsonValue::parse(rec.to_json(8));
  EXPECT_EQ(doc.at("capacity").as_int(), 8);
  EXPECT_DOUBLE_EQ(doc.at("slow_ms").as_number(), 123.5);
  EXPECT_EQ(doc.at("total").as_int(), 2);
  const auto& reqs = doc.at("requests").items();
  ASSERT_EQ(reqs.size(), 2u);
  // Newest first: the healthz record leads.
  EXPECT_EQ(reqs[0].at("route").as_string(), "healthz");
  const util::JsonValue& plan = reqs[1];
  EXPECT_EQ(plan.at("trace").as_string(),
            "11111111111111112222222222222222");
  EXPECT_EQ(plan.at("key").as_string(), "0000000000000abc");
  EXPECT_EQ(plan.at("served").as_string(), "memory");
  ASSERT_EQ(plan.at("spans").items().size(), 1u);
  EXPECT_EQ(plan.at("spans").items()[0].at("name").as_string(),
            "FamilySearch");
}

// ---------------------------------------------------------------------------
// Access log (ISSUE 9)
// ---------------------------------------------------------------------------

TEST(ObsAccessLog, LineIsParseableJsonWithExpectedFields) {
  FlightRecord rec = record_with(0x3333333333333333ull, "plan");
  rec.queue_ms = 2.0f;
  rec.handle_ms = 5.0f;
  rec.search_ms = 3.0f;
  set_record_field(rec.reason, sizeof rec.reason, "deadline");
  const std::string line = access_log_line(rec, 1754000000123ll);
  const util::JsonValue doc = util::JsonValue::parse(line);
  EXPECT_EQ(doc.at("ts_ms").as_int(), 1754000000123ll);
  EXPECT_EQ(doc.at("trace").as_string(),
            "11111111111111113333333333333333");
  EXPECT_EQ(doc.at("route").as_string(), "plan");
  EXPECT_EQ(doc.at("status").as_int(), 200);
  EXPECT_EQ(doc.at("served").as_string(), "memory");
  EXPECT_EQ(doc.at("reason").as_string(), "deadline");
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(ObsAccessLog, SamplingAdmitsSampledEveryNth) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() /
       ("tap_obs_log_" +
        std::to_string(
            ::testing::UnitTest::GetInstance()->random_seed())))
          .string();
  fs::remove(path);
  {
    AccessLogger log(path, /*sample_every=*/2);
    ASSERT_TRUE(log.ok());
    FlightRecord rec = record_with(1, "plan");
    rec.sampled = false;
    EXPECT_FALSE(log.log(rec)) << "unsampled requests never log";
    rec.sampled = true;
    int written = 0;
    for (int i = 0; i < 6; ++i) written += log.log(rec) ? 1 : 0;
    EXPECT_EQ(written, 3) << "1-in-2 thinning";
    EXPECT_EQ(log.lines(), 3u);
  }
  // Each written line parses as standalone JSON.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int parsed = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_NO_THROW(util::JsonValue::parse(line)) << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, 3);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Prometheus label rendering (ISSUE 9)
// ---------------------------------------------------------------------------

TEST(ObsMetrics, PrometheusLabels) {
  MetricsRegistry reg;
  reg.counter("net.reqs")->add(1);
  reg.counter("net.reqs|route=plan")->add(2);
  reg.counter("net.reqs|route=explain,code=200")->add(3);
  Histogram* h = reg.histogram("net.ms|route=plan",
                               std::vector<double>{1.0});
  h->observe(0.5);
  const std::string text = reg.dump_prometheus();

  EXPECT_NE(text.find("tap_net_reqs 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("tap_net_reqs{route=\"plan\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(
                "tap_net_reqs{route=\"explain\",code=\"200\"} 3\n"),
            std::string::npos);
  // One # TYPE line covers the base family and its labeled variants.
  std::size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE tap_net_reqs counter", pos)) !=
         std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u);
  // Histogram labels merge with the le= bucket label.
  EXPECT_NE(text.find("tap_net_ms_bucket{route=\"plan\",le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tap_net_ms_bucket{route=\"plan\",le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tap_net_ms_sum{route=\"plan\"} 0.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("tap_net_ms_count{route=\"plan\"} 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace tap::obs
