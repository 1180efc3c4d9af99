#include "placement/search.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "topology/flow_graph.hpp"
#include "util/thread_pool.hpp"

namespace moment::placement {

using topology::MachineSpec;
using topology::Placement;

namespace {

/// Applies a slot-group permutation to a placement's count vectors.
Placement permute(const Placement& p, const std::vector<int>& perm) {
  Placement out = p;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    out.gpus_per_group[static_cast<std::size_t>(perm[i])] = p.gpus_per_group[i];
    out.ssds_per_group[static_cast<std::size_t>(perm[i])] = p.ssds_per_group[i];
  }
  return out;
}

/// Lexicographic comparison on (gpus, ssds).
bool lex_less(const Placement& a, const Placement& b) {
  if (a.gpus_per_group != b.gpus_per_group) {
    return a.gpus_per_group < b.gpus_per_group;
  }
  return a.ssds_per_group < b.ssds_per_group;
}

void enumerate_counts(const MachineSpec& spec, std::size_t group_idx,
                      int remaining, bool is_gpu,
                      std::vector<int>& counts,
                      const std::vector<int>& gpu_counts,
                      const std::function<void(const std::vector<int>&)>& emit) {
  if (group_idx == spec.slot_groups.size()) {
    if (remaining == 0) emit(counts);
    return;
  }
  const auto& g = spec.slot_groups[group_idx];
  const bool allowed = is_gpu ? g.allows_gpu : g.allows_ssd;
  int max_here = 0;
  if (allowed) {
    const int used_by_gpus =
        is_gpu ? 0 : gpu_counts[group_idx] * topology::kGpuUnits;
    const int free_units = g.units - used_by_gpus;
    const int per_unit = is_gpu ? topology::kGpuUnits : topology::kSsdUnits;
    max_here = std::min(remaining, free_units / per_unit);
  }
  for (int k = 0; k <= max_here; ++k) {
    counts[group_idx] = k;
    enumerate_counts(spec, group_idx + 1, remaining - k, is_gpu, counts,
                     gpu_counts, emit);
  }
  counts[group_idx] = 0;
}

}  // namespace

std::vector<std::vector<int>> automorphism_group(const MachineSpec& spec) {
  // Closes the declared generator set under composition (the machines we
  // model have tiny groups, so fixpoint iteration is fine).
  const auto n = spec.slot_groups.size();
  std::vector<int> identity(n);
  for (std::size_t i = 0; i < n; ++i) identity[i] = static_cast<int>(i);
  std::set<std::vector<int>> group{identity};
  for (const auto& g : spec.automorphisms) group.insert(g);
  bool grew = true;
  while (grew) {
    grew = false;
    std::vector<std::vector<int>> members(group.begin(), group.end());
    for (const auto& a : members) {
      for (const auto& b : members) {
        std::vector<int> c(n);
        for (std::size_t i = 0; i < n; ++i) {
          c[i] = a[static_cast<std::size_t>(b[i])];
        }
        if (group.insert(c).second) grew = true;
      }
    }
  }
  return {group.begin(), group.end()};
}

Placement canonicalize(const Placement& p,
                       const std::vector<std::vector<int>>& group) {
  Placement best = p;
  for (const auto& perm : group) {
    const Placement candidate = permute(p, perm);
    if (lex_less(candidate, best)) best = candidate;
  }
  return best;
}

Placement canonicalize(const MachineSpec& spec, const Placement& p) {
  return canonicalize(p, automorphism_group(spec));
}

std::string describe(const MachineSpec& spec, const Placement& p) {
  std::ostringstream out;
  out << "GPUs:";
  for (std::size_t i = 0; i < spec.slot_groups.size(); ++i) {
    if (p.gpus_per_group[i] > 0) {
      out << ' ' << spec.slot_groups[i].name << '=' << p.gpus_per_group[i];
    }
  }
  out << " | SSDs:";
  for (std::size_t i = 0; i < spec.slot_groups.size(); ++i) {
    if (p.ssds_per_group[i] > 0) {
      out << ' ' << spec.slot_groups[i].name << '=' << p.ssds_per_group[i];
    }
  }
  if (p.nvlink) out << " | NVLink";
  return out.str();
}

CandidateResult evaluate_placement(const MachineSpec& spec, const Placement& p,
                                   const SearchOptions& options) {
  CandidateResult result;
  result.placement = p;
  const topology::Topology topo = topology::instantiate(spec, p);
  const topology::FlowGraph fg = topology::compile_flow_graph(topo);
  topology::WorkloadDemand demand;
  demand.per_gpu_bytes.assign(fg.gpus.size(), options.per_gpu_demand_bytes);
  demand.per_tier_bytes = options.per_tier_bytes;
  if (options.gpu_hbm_bytes >= 0.0) {
    demand.per_storage_bytes.assign(fg.storage.size(), -1.0);
    for (std::size_t i = 0; i < fg.storage.size(); ++i) {
      if (fg.storage[i].tier == topology::StorageTier::kGpuHbm) {
        demand.per_storage_bytes[i] = options.gpu_hbm_bytes;
      }
    }
  }
  result.prediction = topology::predict(fg, demand);
  result.score = result.prediction.feasible ? result.prediction.throughput : 0.0;
  topology::FlowGraphOptions no_cache;
  no_cache.gpu_cache = false;
  const topology::FlowGraph fabric = topology::compile_flow_graph(topo, no_cache);
  result.fabric_rate_bound = topology::predict_rate_bound(fabric);
  return result;
}

const CandidateResult& SearchResult::best() const {
  if (top.empty()) {
    throw std::out_of_range("SearchResult::best: no feasible placement");
  }
  return top.front();
}

SearchResult search_placements(const MachineSpec& spec,
                               const SearchOptions& options) {
  if (options.num_gpus < 1 || options.num_ssds < 0) {
    throw std::invalid_argument(
        "search_placements: need num_gpus >= 1 and num_ssds >= 0");
  }
  SearchResult result;
  result.spec = &spec;

  const auto n = spec.slot_groups.size();
  const auto group = automorphism_group(spec);  // once, not per candidate
  std::set<std::pair<std::vector<int>, std::vector<int>>> seen;

  std::vector<int> gpu_counts(n, 0);
  std::vector<int> ssd_counts(n, 0);

  // Phase 1 (serial): enumerate and dedup orbit-canonical placements.
  std::vector<Placement> candidates;
  enumerate_counts(
      spec, 0, options.num_gpus, /*is_gpu=*/true, gpu_counts, gpu_counts,
      [&](const std::vector<int>& gpus) {
        std::vector<int> gpus_copy = gpus;  // frozen for the SSD recursion
        enumerate_counts(
            spec, 0, options.num_ssds, /*is_gpu=*/false, ssd_counts, gpus_copy,
            [&](const std::vector<int>& ssds) {
              ++result.total_combinations;
              Placement p;
              p.gpus_per_group = gpus_copy;
              p.ssds_per_group = ssds;
              p.nvlink = options.nvlink;
              if (options.use_symmetry_reduction) {
                p = canonicalize(p, group);
              }
              if (!seen.insert({p.gpus_per_group, p.ssds_per_group}).second) {
                return;  // orbit already evaluated
              }
              ++result.evaluated;
              candidates.push_back(std::move(p));
            });
      });

  // Phase 2: evaluate the independent max-flow predictions in parallel,
  // each candidate writing its own slot; ranking below stays deterministic
  // regardless of thread count.
  std::vector<CandidateResult> all(candidates.size());
  util::parallel_for(0, candidates.size(), 1,
                     [&](std::size_t b, std::size_t e) {
                       for (std::size_t i = b; i < e; ++i) {
                         all[i] = evaluate_placement(spec, candidates[i],
                                                     options);
                       }
                     });

  std::sort(all.begin(), all.end(),
            [](const CandidateResult& a, const CandidateResult& b) {
              // Scores within solver tolerance count as ties; fall through to
              // raw fabric headroom, then to a deterministic ordering.
              if (std::abs(a.score - b.score) >
                  1e-3 * std::max(a.score, b.score)) {
                return a.score > b.score;
              }
              if (std::abs(a.fabric_rate_bound - b.fabric_rate_bound) >
                  1e-6 * std::max(a.fabric_rate_bound, b.fabric_rate_bound)) {
                return a.fabric_rate_bound > b.fabric_rate_bound;
              }
              if (a.placement.gpus_per_group != b.placement.gpus_per_group) {
                return a.placement.gpus_per_group < b.placement.gpus_per_group;
              }
              return a.placement.ssds_per_group < b.placement.ssds_per_group;
            });
  if (all.size() > options.keep_top) all.resize(options.keep_top);
  result.top = std::move(all);
  return result;
}

}  // namespace moment::placement
