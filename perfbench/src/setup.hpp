#pragma once
// Workload definitions and the set-up path of the benchmark: everything from
// graph generation to a trainer whose first round is ready to run, built
// through the library's public path (core::AutoModule::plan ->
// iostack::TieredFeatureStore / TieredFeatureClient ->
// runtime::DataParallelTrainer).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/plan.hpp"
#include "core/auto_module.hpp"
#include "gnn/features.hpp"
#include "gnn/model.hpp"
#include "gnn/synthetic.hpp"
#include "iostack/feature_store.hpp"
#include "runtime/parallel_trainer.hpp"
#include "runtime/systems.hpp"
#include "trace.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  moment::gnn::ModelKind model = moment::gnn::ModelKind::kGraphSage;
  std::size_t hidden = 64;
  std::size_t heads = 1;
  int workers = 1;
  bool ssd = true;        // features behind the simulated SSD array
  bool comm_plan = false;  // CommPlanner auto plan + LinkCounters

  // Settings shared by every workload (the small self-test shrinks them).
  int scale_shift = 0;  // IG preset
  std::size_t num_classes = 16;
  std::size_t feature_dim = 128;  // one 4 KiB SSD page per row
  double train_fraction = 0.10;
  std::vector<int> fanouts = {25, 10};
  std::size_t batch_size = 256;
  std::size_t pipeline_depth = 2;
  std::size_t num_ssds = 2;
  double ssd_bytes_per_s = 200e6;
  std::size_t queue_depth = 256;
  float learning_rate = 0.01f;
};

/// The benchmark's workloads by name; throws std::invalid_argument for an
/// unknown one. `tiny` shrinks the graph for the self-test.
WorkloadSpec workload_by_name(const std::string& name, bool tiny);
std::vector<std::string> workload_names();

/// Every generator seed of a run, derived from the one --seed argument.
struct Seeds {
  std::uint64_t graph, task, train, model;
  static Seeds derive(std::uint64_t seed);
};

/// Decorator around a worker's FeatureProvider. Always records when each
/// gather completes (the round clock of the end-to-end round metrics). With
/// a tracer it also records a span per gather_begin / gather_wait call, and
/// with a reference tensor it byte-compares every gathered row against it.
///
/// A synchronous gather (ticket kSyncTicket) completes inside gather_begin,
/// so for it the return of gather_begin is the completion.
class ObservedProvider final : public moment::gnn::FeatureProvider {
 public:
  ObservedProvider(moment::gnn::FeatureProvider& inner, int worker,
                   Tracer* tracer, const moment::gnn::Tensor* reference)
      : inner_(inner), worker_(worker), tracer_(tracer),
        reference_(reference) {}

  std::size_t dim() const override { return inner_.dim(); }
  void gather(std::span<const moment::graph::VertexId> vertices,
              moment::gnn::Tensor& out) override;
  GatherTicket gather_begin(std::span<const moment::graph::VertexId> vertices,
                            moment::gnn::Tensor& out) override;
  void gather_wait(GatherTicket ticket) override;
  IoResilience io_resilience() const override {
    return inner_.io_resilience();
  }

  /// Rows gathered from now on are byte-compared against `reference`
  /// (null stops checking).
  void set_reference(const moment::gnn::Tensor* reference) {
    reference_ = reference;
  }
  /// Resets the per-epoch round counter and completion times.
  void begin_epoch() {
    next_round_ = 0;
    completions_.clear();
  }
  const std::vector<Clock::time_point>& completions() const {
    return completions_;
  }
  std::uint64_t rows_checked() const { return rows_checked_; }
  std::uint64_t rows_mismatched() const { return rows_mismatched_; }

 private:
  struct InFlight {
    GatherTicket ticket;
    long round;
    moment::gnn::Tensor* out;
    std::vector<moment::graph::VertexId> vertices;  // kept only to verify
  };
  void verify(std::span<const moment::graph::VertexId> vertices,
              const moment::gnn::Tensor& out);

  moment::gnn::FeatureProvider& inner_;
  int worker_;
  Tracer* tracer_;
  const moment::gnn::Tensor* reference_;
  long next_round_ = 0;
  std::vector<InFlight> in_flight_;
  std::vector<Clock::time_point> completions_;
  std::uint64_t rows_checked_ = 0;
  std::uint64_t rows_mismatched_ = 0;
};

/// Wall seconds of each set-up step (0 for steps a workload does not have).
struct SetupTimes {
  double workbench_s = 0, plan_s = 0, search_s = 0, ddak_s = 0, task_s = 0,
         store_build_s = 0, cache_warm_s = 0, trainer_s = 0, total_s = 0;
};

/// One fully set-up training session. Destruction stops the SSD service
/// threads before anything else is torn down.
struct Rig {
  WorkloadSpec spec;
  std::unique_ptr<moment::runtime::Workbench> bench;
  std::unique_ptr<moment::core::Plan> plan;
  moment::gnn::SyntheticTask task;
  std::vector<moment::graph::VertexId> train;
  std::unique_ptr<moment::iostack::SsdArray> array;
  std::unique_ptr<moment::iostack::TieredFeatureStore> store;
  std::unique_ptr<moment::comm::CommPlan> comm_plan;
  std::unique_ptr<moment::comm::LinkCounters> link_counters;
  std::vector<std::unique_ptr<moment::iostack::TieredFeatureClient>> clients;
  std::unique_ptr<moment::gnn::InMemoryFeatures> memory;
  std::vector<std::unique_ptr<ObservedProvider>> observed;
  std::unique_ptr<moment::runtime::DataParallelTrainer> trainer;
  SetupTimes times;

  ~Rig();
  const moment::graph::CsrGraph& graph() const { return bench->dataset.csr; }
  moment::gnn::ModelConfig model_config() const;
  /// Training seeds one epoch of `rounds` rounds covers.
  std::size_t seeds_per_epoch(std::size_t rounds) const;
};

/// Builds a Rig. With a tracer, each step is a span and every gathered row is
/// byte-compared against the source features.
std::unique_ptr<Rig> build_rig(const WorkloadSpec& spec, const Seeds& seeds,
                               Tracer* tracer);

}  // namespace perfbench
