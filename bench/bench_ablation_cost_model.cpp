// Ablation (DESIGN.md decision 3): is the communication-only cost model a
// good proxy for simulated step time? We enumerate all 729 encoder-block
// candidates of a T5, score each with (a) the comm cost model and (b) the
// full discrete-event simulator, and report the rank agreement (Kendall
// tau over sampled pairs) and whether the comm-cost winner is within a few
// percent of the simulation winner.
#include "bench_common.h"
#include "pruning/prune.h"
#include "sharding/enumerate.h"

int main() {
  using namespace tap;
  bench::header("Ablation — comm-only cost model vs full simulation",
                "DESIGN.md decision 3");

  cost::ClusterSpec cluster = cost::ClusterSpec::v100_cluster(2);
  bench::Workload w = bench::t5_workload(2);
  pruning::PruneResult pr = pruning::prune_graph(w.tg);
  const pruning::SubgraphFamily* block = nullptr;
  for (const auto& f : pr.families)
    if (f.representative.find("encoder/block_0") != std::string::npos)
      block = &f;
  if (block == nullptr) return 1;

  sharding::FamilyPlanEnumerator e(w.tg, *block, cluster.world());
  std::vector<double> comm, simt;
  std::vector<int> choice;
  const cost::WindowTerms terms(w.tg, cluster.world(), 1, cluster);
  while (e.next(&choice)) {
    sharding::ShardingPlan plan =
        sharding::default_plan(w.tg, cluster.world());
    sharding::apply_family_choice(*block, choice, &plan);
    auto routed = sharding::route_plan(w.tg, plan);
    if (!routed.valid) continue;
    cost::CostOptions copts;
    copts.overlap_window_s =
        cost::backward_compute_window(terms, routed, nullptr);
    comm.push_back(
        cost::comm_cost(routed, cluster.world(), cluster, copts).total());
    simt.push_back(
        sim::simulate_step(w.tg, routed, cluster.world(), cluster)
            .iteration_s);
  }

  // Kendall tau over a deterministic pair sample.
  std::size_t n = comm.size();
  long long concordant = 0, discordant = 0;
  for (std::size_t i = 0; i < n; i += 3) {
    for (std::size_t j = i + 1; j < n; j += 7) {
      double dc = comm[i] - comm[j];
      double ds = simt[i] - simt[j];
      if (dc * ds > 0) {
        ++concordant;
      } else if (dc * ds < 0) {
        ++discordant;
      }
    }
  }
  double tau = static_cast<double>(concordant - discordant) /
               std::max(1.0, static_cast<double>(concordant + discordant));

  std::size_t best_comm = 0, best_sim = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (comm[i] < comm[best_comm]) best_comm = i;
    if (simt[i] < simt[best_sim]) best_sim = i;
  }
  double regret =
      (simt[best_comm] - simt[best_sim]) / simt[best_sim] * 100.0;

  std::printf("plans scored: %zu\n", n);
  std::printf("Kendall tau (comm cost vs simulated step): %.3f\n", tau);
  std::printf("regret of comm-cost winner vs simulation winner: %.2f%%\n",
              regret);
  std::printf("verdict: the comm-only model is a %s proxy (paper uses it "
              "because communication dominates once groups span nodes)\n",
              tau > 0.5 && regret < 10.0 ? "good" : "rough");
  return 0;
}
