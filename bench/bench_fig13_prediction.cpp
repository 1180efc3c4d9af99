// Figure 13 — prediction accuracy of the automatic module: predicted
// (max-flow) vs measured (fluid-simulated) throughput for Moment's plans
// across the four datasets, 2- and 4-GPU settings, on both machines.
// Paper: max error 8.61%.

#include "common.hpp"
#include "sim/machine_sim.hpp"

using namespace moment;

namespace {

/// Trace-driven measurement of a Moment plan: real sampled batches against
/// the run's own bins, data placement and simulator settings, per-round
/// fluid simulation.
double traced_epoch_time(const topology::MachineSpec& spec,
                         const runtime::Workbench& wb,
                         const runtime::SystemResult& r) {
  const auto topo = topology::instantiate(spec, r.placement);
  topology::FlowGraphOptions fopts;
  fopts.use_nvlink = r.placement.nvlink;
  const auto fg = topology::compile_flow_graph(topo, fopts);
  sampling::NeighborSampler sampler(wb.dataset.csr, {25, 10});
  const auto train = sampling::select_train_vertices(
      wb.dataset.csr, wb.dataset.train_fraction, 42);
  sim::TraceSimOptions topts;
  topts.base = r.sim_options;
  topts.trace_rounds = 8;
  topts.scaled_batch_size = wb.profile.batch_size;
  return sim::simulate_epoch_traced(topo, fg, r.workload, r.bins,
                                    r.data_placement, sampler, train, topts)
      .epoch.epoch_time_s;
}

}  // namespace

int main() {
  bench::header("Figure 13: automatic-module prediction accuracy",
                "paper Fig. 13 (max error 8.61% across datasets/machines)");

  double max_err = 0.0;
  double max_trace_err = 0.0;
  for (const auto& spec :
       {topology::make_machine_a(), topology::make_machine_b()}) {
    util::Table t({"dataset", "GPUs", "predicted epoch (s)",
                   "measured epoch (s)", "error", "traced epoch (s)",
                   "error vs traced"});
    for (auto dataset : graph::kAllDatasets) {
      const runtime::Workbench wb =
          runtime::Workbench::make(dataset, bench::kScaleShift, 42);
      for (int gpus : {2, 4}) {
        runtime::ExperimentConfig c = bench::machine_config(
            &spec, dataset, gnn::ModelKind::kGraphSage, gpus);
        const auto r =
            runtime::run_system(runtime::SystemKind::kMoment, c, wb);
        const double err =
            std::abs(r.predicted_epoch_time_s - r.epoch_time_s) /
            r.epoch_time_s;
        max_err = std::max(max_err, err);
        const double traced = traced_epoch_time(spec, wb, r);
        const double terr =
            std::abs(r.predicted_epoch_time_s - traced) / traced;
        max_trace_err = std::max(max_trace_err, terr);
        t.add_row({graph::dataset_name(dataset), std::to_string(gpus),
                   util::Table::num(r.predicted_epoch_time_s, 2),
                   util::Table::num(r.epoch_time_s, 2),
                   util::Table::percent(err),
                   util::Table::num(traced, 2),
                   util::Table::percent(terr)});
      }
    }
    std::printf("\n%s\n", spec.name.c_str());
    t.print(std::cout);
  }
  std::printf("\nmax prediction error vs expectation sim: %s; vs traced "
              "rounds: %s (paper: 8.61%%)\n",
              util::Table::percent(max_err).c_str(),
              util::Table::percent(max_trace_err).c_str());
  return 0;
}
