#include "cost/cost_model.h"

#include <algorithm>

#include "cost/flops.h"
#include "util/check.h"

namespace tap::cost {

using sharding::Collective;
using sharding::CommEvent;

double CommLedger::exposed_seconds() const {
  double s = 0.0;
  for (const CommLedgerEntry& e : entries) s += e.exposed_seconds;
  return s;
}

double CommLedger::busy_seconds() const {
  double s = 0.0;
  for (const CommLedgerEntry& e : entries) s += e.seconds;
  return s;
}

std::int64_t CommLedger::total_bytes() const {
  std::int64_t b = 0;
  for (const CommLedgerEntry& e : entries) b += e.bytes;
  return b;
}

void CommLedger::per_node(std::size_t num_nodes,
                          std::vector<double>* exposed_s,
                          std::vector<std::int64_t>* bytes) const {
  if (exposed_s != nullptr) exposed_s->assign(num_nodes, 0.0);
  if (bytes != nullptr) bytes->assign(num_nodes, 0);
  for (const CommLedgerEntry& e : entries) {
    if (e.node == ir::kInvalidGraphNode) continue;
    const auto i = static_cast<std::size_t>(e.node);
    if (i >= num_nodes) continue;
    if (exposed_s != nullptr) (*exposed_s)[i] += e.exposed_seconds;
    if (bytes != nullptr) (*bytes)[i] += e.bytes;
  }
}

PlanCost comm_cost(const sharding::RoutedPlan& routed, int num_shards,
                   const ClusterSpec& cluster, const CostOptions& opts,
                   CommLedger* ledger) {
  TAP_CHECK(routed.valid) << "cannot cost an invalid plan: " << routed.error;
  PlanCost cost;
  if (ledger != nullptr) {
    ledger->entries.clear();
    ledger->entries.reserve(routed.comms.size());
  }
  for (const CommEvent& e : routed.comms) {
    const int group = e.group > 0 ? e.group : num_shards;
    const double t =
        collective_time(e.kind, e.bytes, group, cluster, e.cross_node) *
        e.count;
    cost.comm_bytes += e.bytes * e.count;
    if (e.overlappable) {
      cost.overlappable_comm_s += t;
    } else if (e.phase == CommEvent::Phase::kForward) {
      cost.forward_comm_s += t;
    } else {
      cost.backward_comm_s += t;
    }
    if (ledger != nullptr) {
      CommLedgerEntry le;
      le.node = e.node;
      le.kind = e.kind;
      le.phase = e.phase;
      le.overlappable = e.overlappable;
      le.cross_node = e.cross_node;
      le.count = e.count;
      le.group = group;
      le.bytes = e.bytes * e.count;
      le.seconds = t;
      // Overlappable entries get their share of the discount below.
      le.exposed_seconds = e.overlappable ? 0.0 : t;
      ledger->entries.push_back(le);
    }
  }
  double exposed_overlap;
  if (opts.overlap_window_s >= 0.0) {
    exposed_overlap =
        std::max(0.0, cost.overlappable_comm_s - opts.overlap_window_s);
  } else {
    exposed_overlap =
        cost.overlappable_comm_s * opts.exposed_overlap_fraction;
  }
  cost.backward_comm_s += exposed_overlap;
  if (ledger != nullptr) {
    const double frac = cost.overlappable_comm_s > 0.0
                            ? exposed_overlap / cost.overlappable_comm_s
                            : 0.0;
    ledger->exposed_fraction = frac;
    for (CommLedgerEntry& le : ledger->entries)
      if (le.overlappable) le.exposed_seconds = le.seconds * frac;
  }
  return cost;
}

WindowTerms::WindowTerms(const ir::TapGraph& tg, int num_shards,
                         int dp_replicas, const ClusterSpec& cluster,
                         const sharding::PatternTable* table)
    : num_shards_(num_shards), dp_replicas_(std::max(1, dp_replicas)) {
  const Graph& g = *tg.source();
  const double dp = static_cast<double>(dp_replicas_);
  const double unsplit_shrink = dp * 1.0;
  const double split_shrink = dp * static_cast<double>(num_shards);
  begin_.reserve(tg.num_nodes() + 1);
  weight_split_.reserve(tg.num_nodes());
  std::vector<sharding::ShardingPattern> storage;
  for (const auto& n : tg.nodes()) {
    begin_.push_back(static_cast<std::uint32_t>(unsplit_.size()));
    for (NodeId op : n.ops) {
      const Node& node = g.node(op);
      const double f = backward_factor(node.kind);
      const double u = op_time(node, g, cluster, unsplit_shrink) * f;
      const double s = op_time(node, g, cluster, split_shrink) * f;
      if (u == 0.0 && s == 0.0) continue;
      unsplit_.push_back(u);
      split_.push_back(s);
    }
    if (table == nullptr)
      storage = sharding::patterns_for(tg, n.id, num_shards, dp_replicas_);
    const auto& pats = table != nullptr ? table->at(n.id) : storage;
    TAP_CHECK_LE(pats.size(), 64u);
    std::uint64_t bits = 0;
    for (std::size_t c = 0; c < pats.size(); ++c)
      if (pats[c].weight.is_split()) bits |= std::uint64_t{1} << c;
    weight_split_.push_back(bits);
  }
  begin_.push_back(static_cast<std::uint32_t>(unsplit_.size()));
}

double backward_compute_window(const WindowTerms& terms,
                               const sharding::RoutedPlan& routed,
                               const std::vector<ir::GraphNodeId>* members) {
  TAP_CHECK(routed.valid);
  TAP_CHECK_EQ(std::max(1, routed.dp_replicas), terms.dp_replicas_);
  double window = 0.0;
  auto add = [&](std::size_t id) {
    const bool split =
        routed.output_spec[id].is_split() ||
        ((terms.weight_split_[id] >> routed.pattern_index[id]) & 1u) != 0;
    const std::vector<double>& addends =
        split ? terms.split_ : terms.unsplit_;
    for (std::uint32_t k = terms.begin_[id]; k < terms.begin_[id + 1]; ++k)
      window += addends[k];
  };
  if (members != nullptr) {
    for (ir::GraphNodeId id : *members) add(static_cast<std::size_t>(id));
  } else {
    for (std::size_t id = 0; id + 1 < terms.begin_.size(); ++id) add(id);
  }
  return window;
}

MemoryEstimate estimate_memory(const ir::TapGraph& tg,
                               const sharding::RoutedPlan& routed,
                               int num_shards,
                               const TrainingOptions& training) {
  TAP_CHECK(routed.valid);
  MemoryEstimate mem;
  const Graph& g = *tg.source();
  for (const auto& n : tg.nodes()) {
    // Weights: the primary weight follows the pattern's layout, secondary
    // weights stay replicated.
    if (n.has_weight()) {
      auto pats = sharding::patterns_for(tg, n.id, num_shards,
                                         routed.dp_replicas);
      const auto& pat = pats[static_cast<std::size_t>(
          routed.pattern_index[static_cast<std::size_t>(n.id)])];
      const Node* primary = nullptr;
      for (NodeId wid : n.weight_ops) {
        const Node& w = g.node(wid);
        if (!primary || w.weight_params() > primary->weight_params())
          primary = &w;
      }
      for (NodeId wid : n.weight_ops) {
        const Node& w = g.node(wid);
        std::int64_t full = w.weight->size_bytes();
        std::int64_t local = full;
        if (&w == primary && pat.weight.is_split() &&
            pat.weight.fits(w.weight->shape, num_shards)) {
          local = full / num_shards;
        }
        // AMP keeps an fp32 master copy plus the fp16 working copy
        // (6 B/param vs 4 B); gradients live in fp16.
        mem.weight_bytes +=
            training.amp ? local + local / 2 : local;
        if (w.trainable) {
          mem.gradient_bytes += training.amp ? local / 2 : local;
          mem.optimizer_bytes += 2 * local;  // Adam m + v, fp32 either way
        }
      }
    }
    // Activations: the local shard of every compute cluster's output is
    // kept for the backward pass. The batch is pre-split across the dp
    // replicas; a split layout additionally divides across the tp group.
    bool is_input = n.inputs.empty();
    if (!is_input && n.output.shape.rank() > 0) {
      const sharding::ShardSpec& spec =
          routed.output_spec[static_cast<std::size_t>(n.id)];
      std::int64_t full =
          n.output.size_bytes() / std::max(1, routed.dp_replicas);
      mem.activation_bytes +=
          spec.is_split() && spec.fits(n.output.shape, num_shards)
              ? full / num_shards
              : full;
    }
  }
  if (training.amp) mem.activation_bytes /= 2;  // fp16 activations
  if (training.recompute) {
    mem.activation_bytes = static_cast<std::int64_t>(
        static_cast<double>(mem.activation_bytes) *
        training.recompute_keep_fraction);
  }
  if (training.zero1 && routed.dp_replicas > 1) {
    mem.optimizer_bytes /= routed.dp_replicas;
  }
  return mem;
}

}  // namespace tap::cost
