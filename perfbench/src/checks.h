// Output checks, run outside the timed loop. Every spec a workload asked
// for gets reference bytes from a direct planner call — at threads=1 and
// at threads=nproc, which must agree — and every served or planned body
// must equal its reference byte for byte. Each reference plan is parsed
// back, routed over the full graph and simulated; its simulated step
// time is the workload's plan-quality figure.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/plan_context.h"
#include "layers.h"
#include "service/wire.h"

namespace perfbench {

inline std::uint64_t body_hash(std::string_view body) {
  return std::hash<std::string_view>{}(body);
}

struct Reference {
  std::string plan_bytes;  ///< plan_response_json of the direct call
  std::uint64_t plan_hash = 0;
  std::string explain_bytes;  ///< PlanReport JSON (when asked for)
  std::uint64_t explain_hash = 0;
  double step_ms = 0.0;  ///< sim::simulate_step iteration time
  tap::core::SearchStats stats;
  std::string error;  ///< empty when every check on the reference passed
};

/// Computes references for specs[i] where want_plan[i] (and the explain
/// report where want_explain[i]); other entries stay empty. Each spec gets
/// its own freshly built model, as a tap_cli run would, so no reference
/// depends on what else was planned on a shared graph. `nproc` specs are
/// worked on at a time.
std::vector<Reference> compute_references(
    const std::vector<tap::service::ModelSpec>& specs,
    const std::vector<char>& want_plan, const std::vector<char>& want_explain,
    int nproc);

/// Compares answers with their references and counts the failures: one
/// per answer that differs or never came, one per broken reference.
class Verifier {
 public:
  /// Answers are compared with `refs` (indexed by spec) from now on.
  void bind(const std::vector<Reference>* refs) { refs_ = refs; }

  /// Checks one answer by hash; every answer goes through here.
  void check_hash(std::uint32_t spec, bool explain, std::uint64_t hash);
  /// Checks a kept answer byte for byte and explains a difference in the
  /// messages (which members differ).
  void check_bytes(std::uint32_t spec, bool explain, std::string_view body,
                   const char* where);
  /// `count` failures with no answer to compare (a request that failed,
  /// a reference that could not be made).
  void fail(const std::string& what, std::uint64_t count = 1);

  std::uint64_t failures() const { return failures_; }
  /// Answers of one kind (plan or explain bodies) that differ.
  std::uint64_t mismatches(bool explain) const {
    return mismatches_[explain ? 1 : 0];
  }
  /// The first few failures, described.
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  const std::vector<Reference>* refs_ = nullptr;
  std::uint64_t failures_ = 0;
  std::uint64_t mismatches_[2] = {0, 0};
  std::vector<std::string> messages_;
};

}  // namespace perfbench
