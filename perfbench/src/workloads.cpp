#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "service/plan_cache.h"

namespace perfbench {

using tap::service::ModelSpec;
using tap::util::Rng;

namespace {

// The traffic mix. Only the Zipf exponent has a source in the repository
// (bench_service_load's closed-loop mix, s = 1.2); the other shares are
// assumptions, unverified against real traffic, each picked for the
// behaviour named beside it.
constexpr double kZipfS = 1.2;
/// serve-churn warms as many specs as the memory tier holds (its default
/// capacity, 256), so the tier is full from the first measured request
/// and every first-seen spec evicts an entry.
constexpr std::size_t kChurnWarm = 256;
/// First-seen specs per request in serve-churn.
constexpr double kNewShare = 0.0015;
/// serve-churn's GET /explain share. Zero while a report of a cached plan
/// is wrong: PlannerService::materialize drops the search provenance and
/// re-routes some plans differently (README, "Known defect"), so every
/// explain of a warmed key fails its check. "A small share", 0.02, once
/// that is fixed.
constexpr double kExplainShare = 0.0;
/// First-seen specs sent twice back to back, so some requests coalesce
/// with an in-flight search.
constexpr double kDuplicateShare = 0.25;

struct Slot {
  const char* model;
  int layers;
  int nodes;
  int gpus;
  int dp;  ///< 0 x 0 = mesh=auto
  int tp;
};

ModelSpec spec_of(const Slot& s) {
  ModelSpec spec;
  spec.model = s.model;
  spec.layers = s.layers;
  spec.nodes = s.nodes;
  spec.gpus = s.gpus;
  spec.dp = s.dp;
  spec.tp = s.tp;
  return spec;
}

// GPT-3's zoo build has a fixed batch (build_spec_model ignores the
// field), so varying it would change the request bytes without changing
// the planning problem. (ResNet-50's depth is likewise fixed, at 8.)
bool batch_matters(const ModelSpec& s) { return s.model != "gpt3"; }

/// Deals batch sizes to the specs whose batch matters: the same multiset
/// of sizes on every seed, in a seeded order. Every seed plans new keys,
/// while the workload's total cost and geometric-mean plan quality, which
/// scale with the product of the batch sizes, stay nearly fixed. All sizes
/// divide by every data-parallel degree in use, so none changes which
/// candidates are valid and with it the cost of the search.
void deal_batches(std::vector<ModelSpec>* specs, Rng& rng) {
  static constexpr std::int64_t kBatches[] = {16, 32, 48};
  std::vector<std::int64_t> deck;
  for (const ModelSpec& s : *specs)
    if (batch_matters(s)) deck.push_back(kBatches[deck.size() % std::size(kBatches)]);
  for (std::size_t i = deck.size(); i > 1; --i)
    std::swap(deck[i - 1], deck[rng.next_below(i)]);
  std::size_t next = 0;
  for (ModelSpec& s : *specs)
    if (batch_matters(s)) s.batch = deck[next++];
}

// serve-hot: hottest first. Zipf ranks follow this order on every seed,
// so the share of traffic each model size gets is fixed.
constexpr Slot kHotSlots[] = {
    {"t5", 4, 1, 8, 2, 4},        {"t5", 8, 2, 8, 2, 8},
    {"bert", 4, 1, 8, 1, 8},      {"resnet50", 8, 1, 8, 1, 8},
    {"t5", 6, 1, 8, 0, 0},        {"moe", 2, 1, 8, 2, 4},
    {"t5", 12, 2, 8, 4, 4},       {"gpt3", 2, 2, 8, 2, 8},
    {"bert", 8, 2, 8, 0, 0},      {"t5", 4, 2, 8, 0, 0},
    {"resnet50", 8, 2, 8, 0, 0},  {"moe", 4, 2, 8, 2, 8},
    {"t5", 16, 2, 8, 2, 8},       {"bert", 12, 1, 8, 2, 4},
    {"t5", 24, 2, 8, 2, 8},       {"gpt3", 4, 2, 8, 0, 0},
    {"t5", 8, 1, 8, 4, 2},        {"moe", 4, 1, 8, 0, 0},
    {"resnet50", 8, 1, 8, 2, 4},  {"t5", 24, 2, 8, 0, 0},
    {"bert", 24, 2, 8, 4, 4},     {"t5", 12, 1, 8, 0, 0},
    {"moe", 8, 2, 8, 4, 4},       {"t5", 20, 2, 8, 8, 2},
    {"bert", 6, 1, 8, 1, 8},      {"gpt3", 3, 1, 8, 1, 8},
    {"resnet50", 8, 2, 8, 4, 4},  {"t5", 4, 1, 8, 8, 1},
    {"t5", 16, 1, 8, 0, 0},       {"moe", 6, 2, 8, 0, 0},
    {"bert", 16, 2, 8, 2, 8},     {"t5", 10, 2, 8, 1, 16},
};

// search-cold: 32 fixed meshes (what a pinned deployment asks for) and 16
// mesh sweeps, from 1-layer GPT-3 to 24-layer T5. Many specs with
// closely spaced costs keep the latency percentiles off the gaps between
// them; a 24-layer T5 sweep, the one clearly slowest spec, sets the p99.
constexpr Slot kColdSlots[] = {
    {"gpt3", 1, 2, 8, 2, 8},      {"gpt3", 2, 2, 8, 2, 8},
    {"gpt3", 3, 1, 8, 1, 8},      {"resnet50", 8, 2, 8, 2, 8},
    {"resnet50", 8, 1, 8, 1, 8},  {"resnet50", 8, 2, 8, 4, 4},
    {"moe", 1, 1, 8, 2, 4},       {"moe", 2, 2, 8, 2, 8},
    {"moe", 3, 2, 8, 4, 4},       {"moe", 4, 2, 8, 2, 8},
    {"bert", 2, 2, 8, 2, 8},      {"bert", 3, 1, 8, 1, 8},
    {"bert", 4, 2, 8, 2, 8},      {"bert", 6, 2, 8, 4, 4},
    {"bert", 8, 1, 8, 2, 4},      {"bert", 12, 1, 8, 1, 8},
    {"bert", 16, 2, 8, 2, 8},     {"bert", 24, 2, 8, 4, 4},
    {"t5", 2, 2, 8, 2, 8},        {"t5", 3, 1, 8, 2, 4},
    {"t5", 4, 2, 8, 2, 8},        {"t5", 5, 1, 8, 4, 2},
    {"t5", 6, 2, 8, 2, 8},        {"t5", 8, 1, 8, 2, 4},
    {"t5", 10, 2, 8, 4, 4},       {"t5", 12, 2, 8, 4, 4},
    {"t5", 14, 2, 8, 2, 8},       {"t5", 16, 2, 8, 8, 2},
    {"t5", 18, 2, 8, 2, 8},       {"t5", 20, 2, 8, 4, 4},
    {"t5", 22, 2, 8, 2, 8},       {"t5", 24, 2, 8, 2, 8},
    {"gpt3", 2, 2, 8, 0, 0},      {"gpt3", 4, 2, 8, 0, 0},
    {"resnet50", 8, 1, 8, 0, 0},  {"resnet50", 8, 2, 8, 0, 0},
    {"moe", 1, 1, 8, 0, 0},       {"moe", 2, 1, 8, 0, 0},
    {"bert", 4, 1, 8, 0, 0},      {"bert", 8, 2, 8, 0, 0},
    {"bert", 12, 1, 8, 0, 0},     {"t5", 4, 1, 8, 0, 0},
    {"t5", 6, 1, 8, 0, 0},        {"t5", 8, 2, 8, 0, 0},
    {"t5", 10, 1, 8, 0, 0},       {"t5", 12, 2, 8, 0, 0},
    {"t5", 16, 1, 8, 0, 0},       {"t5", 24, 2, 8, 0, 0},
};

// ---- serve-churn key space ---------------------------------------------

struct Cluster {
  int nodes;
  int gpus;
};
constexpr Cluster kClusters[] = {{1, 4}, {1, 8}, {2, 8}, {4, 8}};
constexpr std::int64_t kChurnBatches[] = {16, 24, 32};
constexpr std::int64_t kResnetClasses[] = {1000, 1024, 512};

struct Family {
  const char* model;
  int min_layers;
  int max_layers;
};
constexpr Family kChurnFamilies[] = {{"t5", 2, 10},
                                     {"bert", 2, 10},
                                     {"moe", 2, 5},
                                     {"gpt3", 1, 3},
                                     {"resnet50", 8, 8}};

/// Fixed meshes of a world: tp in {2, 4, 8}, dp = world / tp.
std::vector<std::pair<int, int>> meshes_for(int world) {
  std::vector<std::pair<int, int>> out;
  for (int tp : {2, 4, 8})
    if (tp <= world) out.emplace_back(world / tp, tp);
  return out;
}

/// Draws from a fixed multiset in seeded order: each round deals every
/// item once, so the make-up of what is drawn hardly varies by seed.
class Deck {
 public:
  explicit Deck(std::size_t n) : order_(n) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  }
  std::size_t next(Rng& rng) {
    if (pos_ == 0)
      for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng.next_below(i)]);
    const std::size_t v = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return v;
  }

 private:
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

/// Generates first-seen specs stratum by stratum. The strata (model
/// family x cluster) take turns, and within one the depth (ResNet: head
/// width), batch and mesh are dealt from decks, so every seed's specs have
/// nearly the same make-up and the workload's cost and plan quality stay
/// put from seed to seed. (Chaining each spec from the stratum's last one
/// by a depth +-1 step made a random walk whose drift moved serve-churn's
/// throughput by 37% and its plan quality by 11% between seeds.) Once
/// part of a stratum has been seen, a new spec is mostly one field from a
/// seen one — a depth +-1 edit, which the service warm-starts
/// incrementally, or a new mesh or cluster size, whose families it finds
/// in its family cache.
class ChurnGenerator {
 public:
  explicit ChurnGenerator(std::uint64_t seed)
      : rng_(seed), space_(churn_key_space()),
        batches_(std::size(kChurnBatches)),
        classes_(std::size(kResnetClasses)) {
    for (const Family& f : kChurnFamilies)
      layers_.emplace_back(static_cast<std::size_t>(f.max_layers - f.min_layers + 1));
    for (int world = 0; world <= 32; ++world)
      meshes_.emplace_back(meshes_for(world).size() + 1);
    // A seeded fallback order for when the decks keep dealing seen specs.
    for (std::size_t i = space_.size(); i > 1; --i)
      std::swap(space_[i - 1], space_[rng_.next_below(i)]);
  }

  bool exhausted() const { return seen_.size() >= space_.size(); }

  /// The next first-seen spec, appended to `order`.
  void next(std::vector<ModelSpec>* order) {
    for (std::size_t attempt = 0; attempt < 4 * kStrata; ++attempt) {
      const bool first_round = turn_ < kStrata;
      const std::size_t stratum = turn_++ % kStrata;
      if (admit(deal(stratum % kFamilies, kClusters[stratum / kFamilies],
                     first_round),
                order))
        return;
    }
    for (const ModelSpec& s : space_)
      if (admit(s, order)) return;
    throw std::logic_error("churn key space exhausted");
  }

 private:
  static constexpr std::size_t kFamilies = std::size(kChurnFamilies);
  static constexpr std::size_t kStrata = kFamilies * std::size(kClusters);

  bool admit(const ModelSpec& spec, std::vector<ModelSpec>* order) {
    if (!seen_.insert(tap::service::model_spec_to_json(spec)).second)
      return false;
    order->push_back(spec);
    return true;
  }

  /// The first round (one spec per stratum) takes the family's middle
  /// depth: repeats are Zipf-ranked in first-seen order, so those specs
  /// get about half the traffic. With a dealt depth there, the cost of a
  /// hit followed the seed: three seeds of ten ran 19-44% above the
  /// median throughput.
  ModelSpec deal(std::size_t family, const Cluster& c, bool first_round) {
    const Family& f = kChurnFamilies[family];
    ModelSpec s;
    s.model = f.model;
    s.layers = first_round
                   ? (f.min_layers + f.max_layers) / 2
                   : f.min_layers + static_cast<int>(layers_[family].next(rng_));
    if (s.model == "resnet50") s.classes = kResnetClasses[classes_.next(rng_)];
    if (batch_matters(s)) s.batch = kChurnBatches[batches_.next(rng_)];
    s.nodes = c.nodes;
    s.gpus = c.gpus;
    const int world = c.nodes * c.gpus;
    const auto meshes = meshes_for(world);
    const std::size_t pick = meshes_[static_cast<std::size_t>(world)].next(rng_);
    if (pick < meshes.size()) {
      s.dp = meshes[pick].first;
      s.tp = meshes[pick].second;
    }  // else mesh=auto
    return s;
  }

  Rng rng_;
  std::vector<ModelSpec> space_;
  Deck batches_;
  Deck classes_;
  std::vector<Deck> layers_;  ///< per family
  std::vector<Deck> meshes_;  ///< per world size: each mesh, then auto
  std::size_t turn_ = 0;
  std::set<std::string> seen_;
};

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "serve-hot") return Workload::kServeHot;
  if (name == "serve-churn") return Workload::kServeChurn;
  if (name == "search-cold") return Workload::kSearchCold;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kServeHot: return "serve-hot";
    case Workload::kServeChurn: return "serve-churn";
    case Workload::kSearchCold: return "search-cold";
  }
  return "?";
}

std::size_t memory_tier_capacity() {
  return tap::service::PlanCacheOptions{}.capacity;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
}

std::size_t Zipf::sample_below(Rng& rng, std::size_t n) const {
  n = std::min(n, cdf_.size());
  const double u = rng.next_double() * cdf_[n - 1];
  const auto it = std::upper_bound(cdf_.begin(), cdf_.begin() + n, u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               n - 1);
}

ServeWorkload make_serve_hot(std::uint64_t seed, std::size_t length) {
  Rng rng(seed ^ 0x4807u);
  ServeWorkload w;
  for (const Slot& slot : kHotSlots) w.specs.push_back(spec_of(slot));
  deal_batches(&w.specs, rng);
  w.warm = w.specs.size();
  const Zipf zipf(w.specs.size(), kZipfS);
  w.sequence.reserve(length);
  for (std::size_t i = 0; i < length; ++i)
    w.sequence.push_back({static_cast<std::uint32_t>(zipf.sample(rng)), false});
  return w;
}

std::vector<ModelSpec> churn_key_space() {
  std::vector<ModelSpec> space;
  auto add_meshes = [&](ModelSpec s) {
    for (const Cluster& c : kClusters) {
      s.nodes = c.nodes;
      s.gpus = c.gpus;
      s.dp = s.tp = 0;
      space.push_back(s);
      for (const auto& [dp, tp] : meshes_for(c.nodes * c.gpus)) {
        s.dp = dp;
        s.tp = tp;
        space.push_back(s);
      }
    }
  };
  for (const Family& f : kChurnFamilies) {
    for (int layers = f.min_layers; layers <= f.max_layers; ++layers) {
      ModelSpec s;
      s.model = f.model;
      s.layers = layers;
      for (std::int64_t classes : kResnetClasses) {
        s.classes = classes;
        if (!batch_matters(s)) {
          add_meshes(s);
        } else {
          for (std::int64_t batch : kChurnBatches) {
            s.batch = batch;
            add_meshes(s);
          }
        }
        if (s.model != "resnet50") break;  // head width is ResNet's only
      }
    }
  }
  return space;
}

ServeWorkload make_serve_churn(std::uint64_t seed, std::size_t length) {
  ChurnGenerator gen(seed ^ 0xc4u);
  Rng rng(seed ^ 0x5e9u);
  ServeWorkload w;
  while (w.specs.size() < kChurnWarm) gen.next(&w.specs);
  w.warm = w.specs.size();

  const Zipf zipf(churn_key_space().size(), kZipfS);
  auto repeat = [&](bool explain) {
    const std::size_t rank = zipf.sample_below(rng, w.specs.size());
    w.sequence.push_back({static_cast<std::uint32_t>(rank), explain});
  };
  w.sequence.reserve(length);
  while (w.sequence.size() < length) {
    const double u = rng.next_double();
    if (u < kNewShare && !gen.exhausted()) {
      gen.next(&w.specs);
      const auto id = static_cast<std::uint32_t>(w.specs.size() - 1);
      w.sequence.push_back({id, false});
      // A duplicate right behind the first request joins its in-flight
      // search (single-flight coalescing).
      if (rng.next_double() < kDuplicateShare) w.sequence.push_back({id, false});
    } else if (u < kNewShare + kExplainShare) {
      repeat(true);
    } else {
      repeat(false);
    }
  }
  w.sequence.resize(length);
  return w;
}

std::vector<ModelSpec> make_cold_mix(std::uint64_t seed) {
  Rng rng(seed ^ 0xc01du);
  std::vector<ModelSpec> mix;
  for (const Slot& slot : kColdSlots) mix.push_back(spec_of(slot));
  deal_batches(&mix, rng);
  // Seeded order, so consecutive plans differ from seed to seed.
  for (std::size_t i = mix.size(); i > 1; --i)
    std::swap(mix[i - 1], mix[rng.next_below(i)]);
  return mix;
}

std::string explain_target(const ModelSpec& spec) {
  std::string t = "/explain?model=" + spec.model +
                  "&layers=" + std::to_string(spec.layers) +
                  "&classes=" + std::to_string(spec.classes) +
                  "&batch=" + std::to_string(spec.batch) +
                  "&nodes=" + std::to_string(spec.nodes) +
                  "&gpus=" + std::to_string(spec.gpus) + "&mesh=";
  t += spec.sweep() ? std::string("auto")
                    : std::to_string(spec.dp) + "x" + std::to_string(spec.tp);
  return t;
}

}  // namespace perfbench
