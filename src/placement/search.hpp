#pragma once
// Hardware placement search (paper Section 3.2, "Problem Solving"):
//   1. enumerate all assignments of G GPUs and S SSDs to slot groups that
//      respect unit budgets and device-kind constraints;
//   2. eliminate equivalent variants via the machine's automorphism group
//      (topological symmetry, switch symmetry, rotation invariance) by
//      keeping only orbit-canonical placements;
//   3. evaluate each survivor with the time-bisection max-flow predictor
//      under equal per-GPU demands;
//   4. return candidates ranked by predicted throughput.

#include <cstddef>
#include <string>
#include <vector>

#include "topology/machine.hpp"
#include "topology/predictor.hpp"

namespace moment::placement {

struct CandidateResult {
  topology::Placement placement;
  topology::Prediction prediction;
  /// Predicted aggregate throughput (bytes/s) in demand mode — the ranking key.
  double score = 0.0;
  /// Aggregate fabric max-flow with the GPU cache disabled (bytes/s): the
  /// placement's raw IO headroom, used to break ties between candidates that
  /// all hit the SSD-aggregate bound.
  double fabric_rate_bound = 0.0;
};

struct SearchOptions {
  int num_gpus = 4;
  int num_ssds = 8;
  bool nvlink = false;
  bool use_symmetry_reduction = true;
  /// Bytes each GPU must pull per epoch. Only the ratio matters for ranking;
  /// the default keeps min_time in a well-conditioned range.
  double per_gpu_demand_bytes = 64.0 * 1024 * 1024 * 1024;
  /// Byte budget per storage tier (indexed by topology::StorageTier; empty or
  /// negative entries = rate-limited). Without these, the GPU-HBM tier can
  /// absorb the whole demand and every placement scores identically — always
  /// pass workload-derived budgets for meaningful searches (see
  /// core::AutoModule, which wires ddak::EpochWorkload in).
  std::vector<double> per_tier_bytes;
  /// Per-GPU-HBM byte supply (cache-hit bytes); negative = rate-limited.
  double gpu_hbm_bytes = -1.0;
  std::size_t keep_top = 8;
};

struct SearchResult {
  std::vector<CandidateResult> top;     // descending by score
  std::size_t total_combinations = 0;   // feasible placements before reduction
  std::size_t evaluated = 0;            // after symmetry reduction
  const topology::MachineSpec* spec = nullptr;

  /// The top-ranked candidate; throws std::out_of_range when no placement
  /// fits (e.g. more GPUs than the machine has slots for).
  const CandidateResult& best() const;
};

/// Throws std::invalid_argument for num_gpus < 1 or num_ssds < 0.
SearchResult search_placements(const topology::MachineSpec& spec,
                               const SearchOptions& options);

/// The machine's slot-group automorphism group: the declared generators
/// closed under composition, identity included. O(|group|^2) fixpoint
/// iteration — compute it once per search, not per candidate.
std::vector<std::vector<int>> automorphism_group(
    const topology::MachineSpec& spec);

/// Canonical representative of a placement under the machine's automorphism
/// group (lexicographically smallest orbit member). The (spec, p) overload
/// recomputes the group; batch callers should hoist automorphism_group() and
/// use the second form.
topology::Placement canonicalize(const topology::MachineSpec& spec,
                                 const topology::Placement& p);
topology::Placement canonicalize(const topology::Placement& p,
                                 const std::vector<std::vector<int>>& group);

/// One-line description, e.g. "GPUs: PLX0=2 PLX1=2 | SSDs: RC0=2 ...".
std::string describe(const topology::MachineSpec& spec,
                     const topology::Placement& p);

/// Evaluates a single placement with the demand-mode predictor under the
/// options' demand and byte budgets.
CandidateResult evaluate_placement(const topology::MachineSpec& spec,
                                   const topology::Placement& p,
                                   const SearchOptions& options);

}  // namespace moment::placement
