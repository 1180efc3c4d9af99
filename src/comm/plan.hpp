#pragma once
// Compiled communication plans: the runtime-facing half of the comm layer.
//
// A CommPlan is a schedule of modeled transfers over the *physical* link
// graph — which GPUs exchange which fraction of the payload, in which order,
// over which concrete links. Plans are compiled once per machine by
// comm::CommPlanner (planner.hpp) from the topology's flow graph (max-flow
// pair bandwidths and flow-graph routes), then consumed by
//   - runtime::DataParallelTrainer (gradient all-reduce),
//   - iostack::TieredFeatureClient (peer-HBM gather routing).
//
// The functional substrate of this repo reduces gradients in shared host
// memory, so a plan never changes *values* — it changes the modeled
// transport: per-link byte counters, predicted comm seconds, and the
// chunk->owner map used to size per-hop transfers. Bit-identity between
// flat and planned all-reduce follows from the shared fixed-order
// elementwise reduction kernel (see DESIGN.md §5f).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "topology/device.hpp"

namespace moment::comm {

/// Gradient-reduction chunk boundaries fall on multiples of this many bytes
/// so two workers reducing adjacent chunks never touch the same cache line
/// (the flat path's historical false-sharing hazard).
inline constexpr std::size_t kGradChunkAlignBytes = 64;
inline constexpr std::size_t kGradChunkAlignFloats =
    kGradChunkAlignBytes / sizeof(float);

/// Grain (in floats) for fanning the elementwise reduction over the compute
/// pool; a multiple of kGradChunkAlignFloats. Shared by the flat path and
/// every CommPlan-scheduled path so chunk geometry — and therefore summation
/// order — is identical across algorithms.
inline constexpr std::size_t kAllReduceGrainFloats = 4096;
static_assert(kAllReduceGrainFloats % kGradChunkAlignFloats == 0);

enum class AllReduceAlgo : std::uint8_t {
  kFlat,  // hub-and-spoke: every worker -> GPU0, then broadcast back
  kRing,  // bandwidth-ordered ring reduce-scatter + all-gather
  kTree,  // recursive halving/doubling (Rabenseifner), power-of-two N
  kAuto,  // planner picks the algorithm with the lowest predicted time
};

const char* to_string(AllReduceAlgo algo) noexcept;

/// Parses the `--comm-plan=flat|ring|tree|auto` knob value.
/// Throws std::invalid_argument on anything else.
AllReduceAlgo parse_algo(const std::string& text);

/// One directed traversal of a physical link along a route.
struct RouteLink {
  topology::LinkId link = -1;
  bool forward = true;    // true: traversed in the link's a->b direction
  double capacity = 0.0;  // bytes/s in the traversed direction
};

/// A concrete path between two GPUs through switches/root complexes (or a
/// direct NVLink bridge), plus the predictor's bandwidth bound for the pair.
struct PeerRoute {
  int src_gpu = -1;
  int dst_gpu = -1;
  std::vector<RouteLink> links;  // in traversal order, src -> dst
  /// Max-flow bandwidth src HBM -> dst compute (bytes/s). May exceed the
  /// route's bottleneck when the fabric offers parallel paths.
  double max_flow_bw = 0.0;

  bool valid() const noexcept { return !links.empty(); }
  /// Narrowest traversed-direction capacity along the route (bytes/s).
  double bottleneck_bw() const noexcept;
};

/// One transfer within a schedule step: `fraction` of the all-reduce payload
/// moved src -> dst over `CommPlan::routes[route]`.
struct Transfer {
  int src_gpu = -1;
  int dst_gpu = -1;
  double fraction = 0.0;
  int route = -1;  // index into CommPlan::routes
};

/// Transfers inside one step run concurrently; steps run back-to-back.
struct Step {
  std::vector<Transfer> transfers;
};

/// Metadata for every physical link any plan route touches.
struct PlanLinkInfo {
  topology::LinkId link = -1;
  std::string label;
  topology::LinkKind kind = topology::LinkKind::kPcie;
  double cap_ab = 0.0;  // bytes/s
  double cap_ba = 0.0;
};

/// Modeled bytes crossing one link in each direction.
struct LinkVolume {
  topology::LinkId link = -1;
  std::uint64_t ab = 0;
  std::uint64_t ba = 0;
};

/// Thread-safe per-link byte counters (one slot per topology link, both
/// directions). Shared by the engine's all-reduce accounting and every
/// TieredFeatureClient's peer-gather path; relaxed atomics — counters are
/// telemetry, not synchronisation.
class LinkCounters {
 public:
  explicit LinkCounters(std::size_t num_links) : counters_(num_links) {}

  std::size_t size() const noexcept { return counters_.size(); }

  void add(topology::LinkId link, bool forward, std::uint64_t bytes) noexcept {
    auto& slot = counters_[static_cast<std::size_t>(link)];
    (forward ? slot.ab : slot.ba).fetch_add(bytes, std::memory_order_relaxed);
  }

  std::uint64_t ab(topology::LinkId link) const noexcept {
    return counters_[static_cast<std::size_t>(link)].ab.load(
        std::memory_order_relaxed);
  }
  std::uint64_t ba(topology::LinkId link) const noexcept {
    return counters_[static_cast<std::size_t>(link)].ba.load(
        std::memory_order_relaxed);
  }

  /// Flat snapshot [ab0, ba0, ab1, ba1, ...] for delta accounting.
  std::vector<std::uint64_t> snapshot() const;

  void reset() noexcept;

 private:
  struct Pair {
    std::atomic<std::uint64_t> ab{0};
    std::atomic<std::uint64_t> ba{0};
  };
  std::vector<Pair> counters_;
};

/// A compiled per-machine communication plan. Immutable after compilation;
/// safe to share across engine workers and feature clients.
struct CommPlan {
  AllReduceAlgo algo = AllReduceAlgo::kFlat;
  int num_gpus = 0;
  /// Total links in the source topology (sizes LinkCounters).
  std::size_t num_links = 0;

  /// GPU ordinals in schedule order; position p's successor is position
  /// (p+1) % N. ring_order[0] == 0 always (deterministic anchor).
  std::vector<int> ring_order;
  /// Fraction of the payload owned by each ring *position* (sums to 1).
  /// Proportional to the predicted bandwidth of the hop each chunk is
  /// injected on; uniform for flat/tree.
  std::vector<double> chunk_share;

  /// Unique routes referenced by steps and peer lookups.
  std::vector<PeerRoute> routes;
  /// route_of[src * num_gpus + dst] -> index into routes, -1 if none.
  std::vector<int> route_of;
  /// The all-reduce schedule: reduce-scatter steps then all-gather steps
  /// (flat: gather step then broadcast step).
  std::vector<Step> steps;
  /// Metadata for every link used by at least one route.
  std::vector<PlanLinkInfo> links;

  /// Route between two GPU ordinals; nullptr when none exists (or src==dst).
  const PeerRoute* peer_route(int src_gpu, int dst_gpu) const noexcept;

  /// Contention-costed model of one all-reduce of `payload_bytes`: each
  /// step costs its most-loaded (link, direction)'s load/capacity; steps
  /// are sequential. This is the quantity the planner minimises and the
  /// simulator charges per training round.
  double predicted_seconds(double payload_bytes) const;

  /// Modeled per-link bytes of one all-reduce of `payload_bytes`.
  /// Per-transfer bytes are llround(fraction * payload) — the exact figure
  /// `account` adds to counters, so test-side conservation checks can
  /// demand equality, not approximation.
  std::vector<LinkVolume> link_volume(double payload_bytes) const;

  /// Adds one all-reduce's modeled per-link bytes to `counters`.
  void account(double payload_bytes, LinkCounters& counters) const;

  /// Total bytes entering hops across the whole schedule (the analytic
  /// 2*B*(N-1)/N * N figure for ring; 2*B*(N-1) for flat through the hub).
  double schedule_payload_bytes(double payload_bytes) const;
};

}  // namespace moment::comm
