// Tracing from outside the program: spans the benchmark records around
// its own calls into each layer's public functions, plus the model cache
// every part of the benchmark builds graphs through.
//
// Spans are kept in memory while a traced leg runs and written out when
// it ends. A span names its layer, the request it belongs to, and the
// span that caused it; a layer's self time is its duration minus the
// durations of the spans it caused.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "ir/lowering.h"
#include "service/wire.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Span {
  const char* name = "";    ///< static storage: a layer.call name
  const char* parent = "";  ///< name of the causing span; "" = root
  std::uint64_t request = 0;
  double start_us = 0.0;  ///< from the log's epoch
  double dur_us = 0.0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void record(const char* name, const char* parent, std::uint64_t request,
              Clock::time_point start, Clock::time_point end);

  /// Durations of every span named `name`, in microseconds.
  std::vector<double> durations_us(const std::string& name) const;

  /// Per-request self time of `name`: its duration minus the spans of the
  /// same request whose parent is `name`. Microseconds.
  std::vector<double> self_us(const std::string& name) const;

  /// The layer split of a typical request: over the requests whose
  /// `root` span lies between the 45th and 55th percentile of root
  /// durations (and that have a `require` span, when given), the mean
  /// self time of every span name, in microseconds.
  struct Split {
    std::size_t requests = 0;
    std::map<std::string, double> self_us;
  };
  Split split_near_median(const std::string& root,
                          const std::string& require) const;

  std::size_t size() const;

  /// Writes one JSON object per span per line.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records a span for the enclosing scope (a no-op without a log).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* parent,
             std::uint64_t request)
      : log_(log), name_(name), parent_(parent), request_(request),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    if (log_ != nullptr)
      log_->record(name_, parent_, request_, start_, Clock::now());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  const char* parent_;
  std::uint64_t request_;
  Clock::time_point start_;
};

/// One built and lowered zoo model (the TapGraph borrows the Graph).
struct BuiltModel {
  tap::Graph graph;
  tap::ir::TapGraph tg;
};

/// Builds each distinct architecture once, like PlanHandler's model cache
/// (keyed by the fields that shape the graph). Build and lowering are
/// timed as models.build and ir.lower spans when a log is attached.
class ModelCache {
 public:
  explicit ModelCache(SpanLog* log = nullptr) : log_(log) {}

  const BuiltModel& get(const tap::service::ModelSpec& spec);

 private:
  SpanLog* log_;
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<BuiltModel>> models_;
};

/// Builds and lowers `spec` afresh, recording models.build and ir.lower
/// spans of `request` caused by `parent` in `log` (when non-null).
std::unique_ptr<BuiltModel> build_model(const tap::service::ModelSpec& spec,
                                        SpanLog* log, std::uint64_t request,
                                        const char* parent = "");

}  // namespace perfbench
