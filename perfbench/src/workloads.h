// The benchmark's workloads: which planning problems each one asks for,
// and in which order. Everything here is a pure function of the seed, so
// the same seed gives the same requests on every machine.
//
//   serve-hot    a few dozen specs spanning the zoo, all warmed at setup,
//                requested Zipf-skewed: nearly every request is a memory
//                hit. The skew ranks are fixed; the seed deals the specs'
//                batch sizes and draws the request order.
//   serve-churn  first-seen specs keep arriving (edits of seen specs:
//                depth +-1, a new mesh, or a new cluster size) beside
//                Zipf-skewed repeats over everything seen so far (GET
//                /explain is off; see kExplainShare). The reachable key
//                space is several times the plan cache's memory tier.
//   search-cold  a fixed-shape zoo mix planned cold, one at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/wire.h"
#include "util/rng.h"

namespace perfbench {

enum class Workload { kServeHot, kServeChurn, kSearchCold };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// One request of a serve workload: POST /plan or GET /explain for
/// `spec` (an index into ServeWorkload::specs).
struct Request {
  std::uint32_t spec = 0;
  bool explain = false;

  friend bool operator==(const Request& a, const Request& b) {
    return a.spec == b.spec && a.explain == b.explain;
  }
};

struct ServeWorkload {
  /// Distinct specs, in first-request order; specs[0, warm) are planned
  /// at setup, the rest are first seen during measurement.
  std::vector<tap::service::ModelSpec> specs;
  std::size_t warm = 0;
  /// The request order. Clients take requests from it in turn and wrap
  /// around at the end.
  std::vector<Request> sequence;
};

/// The plan cache's default memory-tier capacity the churn key space is
/// sized against (service::PlanCacheOptions::capacity).
std::size_t memory_tier_capacity();

/// serve-hot: 32 warmed specs, `length` requests.
ServeWorkload make_serve_hot(std::uint64_t seed, std::size_t length);

/// serve-churn: 64 warmed specs plus first-seen specs arriving in 0.15%
/// of requests, `length` requests in all.
ServeWorkload make_serve_churn(std::uint64_t seed, std::size_t length);

/// Every spec serve-churn could ever ask for (its key space).
std::vector<tap::service::ModelSpec> churn_key_space();

/// search-cold: 48 zoo specs planned in turn.
std::vector<tap::service::ModelSpec> make_cold_mix(std::uint64_t seed);

/// GET /explain target naming `spec` (the query form of the wire spec).
std::string explain_target(const tap::service::ModelSpec& spec);

/// Zipf(s) sampler over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(tap::util::Rng& rng) const {
    return sample_below(rng, cdf_.size());
  }
  /// Sample restricted to ranks [0, n), renormalized.
  std::size_t sample_below(tap::util::Rng& rng, std::size_t n) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
