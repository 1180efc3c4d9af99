#include "setup.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "comm/planner.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "topology/machine.hpp"

namespace perfbench {

using namespace moment;

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"sage-ssd-1gpu", "sage-ssd-2gpu", "gat-mem-2gpu"};
}

WorkloadSpec workload_by_name(const std::string& name, bool tiny) {
  WorkloadSpec w;
  w.name = name;
  if (name == "sage-ssd-1gpu") {
    w.workers = 1;
  } else if (name == "sage-ssd-2gpu") {
    w.workers = 2;
    w.comm_plan = true;
  } else if (name == "gat-mem-2gpu") {
    // The paper's GAT configuration: 8 heads of 64.
    w.model = gnn::ModelKind::kGat;
    w.heads = 8;
    w.workers = 2;
    w.ssd = false;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (tiny) {
    w.scale_shift = 6;
    w.feature_dim = 16;
    w.fanouts = {5, 3};
    w.batch_size = 32;
  }
  return w;
}

Seeds Seeds::derive(std::uint64_t seed) {
  std::uint64_t state = seed;
  Seeds s{};
  s.graph = splitmix64(state);
  s.task = splitmix64(state);
  s.train = splitmix64(state);
  s.model = splitmix64(state);
  return s;
}

// --- ObservedProvider -------------------------------------------------------

void ObservedProvider::verify(std::span<const graph::VertexId> vertices,
                              const gnn::Tensor& out) {
  if (reference_ == nullptr) return;
  const std::size_t bytes = reference_->cols() * sizeof(float);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    ++rows_checked_;
    if (std::memcmp(out.row(i).data(),
                    reference_->row(static_cast<std::size_t>(vertices[i]))
                        .data(),
                    bytes) != 0) {
      ++rows_mismatched_;
    }
  }
}

void ObservedProvider::gather(std::span<const graph::VertexId> vertices,
                              gnn::Tensor& out) {
  {
    ScopedSpan span(tracer_, "iostack.gather", worker_);
    inner_.gather(vertices, out);
  }
  verify(vertices, out);
}

gnn::FeatureProvider::GatherTicket ObservedProvider::gather_begin(
    std::span<const graph::VertexId> vertices, gnn::Tensor& out) {
  const long round = next_round_++;
  GatherTicket ticket;
  {
    ScopedSpan span(tracer_, "iostack.gather_begin", worker_, round);
    ticket = inner_.gather_begin(vertices, out);
  }
  if (ticket == kSyncTicket) {
    completions_.push_back(Clock::now());
    verify(vertices, out);
    return ticket;
  }
  InFlight f{ticket, round, &out, {}};
  if (reference_ != nullptr) f.vertices.assign(vertices.begin(), vertices.end());
  in_flight_.push_back(std::move(f));
  return ticket;
}

void ObservedProvider::gather_wait(GatherTicket ticket) {
  auto it = std::find_if(in_flight_.begin(), in_flight_.end(),
                         [&](const InFlight& f) { return f.ticket == ticket; });
  const long round = it != in_flight_.end() ? it->round : -1;
  {
    ScopedSpan span(tracer_, "iostack.gather_wait", worker_, round);
    inner_.gather_wait(ticket);
  }
  completions_.push_back(Clock::now());
  if (it != in_flight_.end()) {
    verify(it->vertices, *it->out);
    in_flight_.erase(it);
  }
}

// --- Rig --------------------------------------------------------------------

Rig::~Rig() {
  trainer.reset();
  if (array) array->stop_all();
}

gnn::ModelConfig Rig::model_config() const {
  gnn::ModelConfig m;
  m.kind = spec.model;
  m.in_dim = spec.feature_dim;
  m.hidden_dim = spec.hidden;
  m.gat_heads = spec.heads;
  m.num_classes = spec.num_classes;
  m.num_hops = spec.fanouts.size();
  return m;
}

std::size_t Rig::seeds_per_epoch(std::size_t rounds) const {
  // The trainer deals training vertices round-robin to the workers.
  const std::size_t workers = static_cast<std::size_t>(spec.workers);
  std::size_t seeds = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t part = train.size() / workers +
                             (w < train.size() % workers ? 1 : 0);
    seeds += std::min(part, rounds * spec.batch_size);
  }
  return seeds;
}

std::unique_ptr<Rig> build_rig(const WorkloadSpec& spec, const Seeds& seeds,
                               Tracer* tracer) {
  const auto t_start = Clock::now();
  auto rig = std::make_unique<Rig>();
  rig->spec = spec;
  ScopedSpan setup_span(tracer, "setup");
  static const topology::MachineSpec machine = topology::make_machine_a();

  {
    ScopedSpan span(tracer, "setup.workbench");
    const auto t0 = Clock::now();
    rig->bench = std::make_unique<runtime::Workbench>(runtime::Workbench::make(
        graph::DatasetId::kIG, spec.scale_shift, seeds.graph));
    rig->times.workbench_s = seconds_since(t0);
  }
  const graph::CsrGraph& g = rig->graph();

  if (spec.ssd) {
    ScopedSpan span(tracer, "setup.plan");
    const auto t0 = Clock::now();
    core::AutoModuleConfig cfg;
    cfg.machine = &machine;
    cfg.dataset = graph::DatasetId::kIG;
    cfg.dataset_scale_shift = spec.scale_shift;
    cfg.model = spec.model;
    cfg.num_gpus = spec.workers;
    cfg.num_ssds = static_cast<int>(spec.num_ssds);
    cfg.seed = seeds.graph;
    rig->plan = std::make_unique<core::Plan>(
        core::AutoModule::plan(cfg, *rig->bench));
    rig->times.plan_s = seconds_since(t0);
    rig->times.search_s = rig->plan->search_time_s;
    rig->times.ddak_s = rig->plan->ddak_time_s;
  }

  {
    ScopedSpan span(tracer, "setup.task");
    const auto t0 = Clock::now();
    rig->task = gnn::make_synthetic_task(g, spec.num_classes, spec.feature_dim,
                                         0.4, seeds.task);
    rig->train =
        sampling::select_train_vertices(g, spec.train_fraction, seeds.train);
    rig->times.task_s = seconds_since(t0);
  }

  const gnn::Tensor* reference = tracer != nullptr ? &rig->task.features
                                                   : nullptr;
  std::vector<gnn::FeatureProvider*> inner;
  if (spec.ssd) {
    {
      ScopedSpan span(tracer, "iostack.store_build");
      const auto t0 = Clock::now();
      std::vector<iostack::BinBacking> backings;
      std::vector<std::size_t> rows_per_ssd;
      for (const auto& bin : rig->plan->bins) {
        switch (bin.tier) {
          case topology::StorageTier::kGpuHbm:
            backings.push_back({iostack::BinBacking::Kind::kGpuCache, -1});
            break;
          case topology::StorageTier::kCpuDram:
            backings.push_back({iostack::BinBacking::Kind::kCpuCache, -1});
            break;
          case topology::StorageTier::kSsd:
            backings.push_back({iostack::BinBacking::Kind::kSsd,
                                static_cast<int>(rows_per_ssd.size())});
            rows_per_ssd.push_back(0);
            break;
        }
      }
      if (rows_per_ssd.empty()) {
        throw std::runtime_error("plan placed no bin on an SSD");
      }
      for (const std::int32_t b : rig->plan->data_placement.bin_of_vertex) {
        const auto& backing = backings[static_cast<std::size_t>(b)];
        if (backing.kind == iostack::BinBacking::Kind::kSsd) {
          ++rows_per_ssd[static_cast<std::size_t>(backing.ssd)];
        }
      }
      const std::size_t row_bytes =
          (spec.feature_dim * sizeof(float) + iostack::kPageBytes - 1) /
          iostack::kPageBytes * iostack::kPageBytes;
      // Each SSD holds exactly the rows the plan places on it, with no spare
      // slots: a failed device's rows are then served from the store's host
      // copy rather than re-placed onto the survivor.
      iostack::SsdOptions sopts;
      sopts.capacity_bytes =
          std::max<std::size_t>(1, *std::max_element(rows_per_ssd.begin(),
                                                     rows_per_ssd.end())) *
          row_bytes;
      sopts.max_bytes_per_s = spec.ssd_bytes_per_s;
      rig->array =
          std::make_unique<iostack::SsdArray>(rows_per_ssd.size(), sopts);
      rig->store = std::make_unique<iostack::TieredFeatureStore>(
          rig->task.features, rig->plan->data_placement.bin_of_vertex,
          backings, *rig->array);
      rig->times.store_build_s = seconds_since(t0);
    }
    {
      ScopedSpan span(tracer, "iostack.cache_warm");
      const auto t0 = Clock::now();
      iostack::RowCacheOptions cache_opts;
      cache_opts.capacity_rows = g.num_vertices() / 16;
      rig->store->enable_row_cache(cache_opts);
      rig->store->warm_row_cache(rig->bench->profile.by_hotness_desc());
      rig->times.cache_warm_s = seconds_since(t0);
    }
  }

  {
    ScopedSpan span(tracer, "setup.trainer");
    const auto t0 = Clock::now();
    runtime::EngineOptions engine_opts;
    engine_opts.pipeline_depth = spec.pipeline_depth;
    if (spec.ssd) {
      if (spec.comm_plan) {
        const auto topo = topology::instantiate(
            machine, rig->plan->hardware_placement);
        const comm::CommPlanner planner(topo);
        rig->comm_plan = std::make_unique<comm::CommPlan>(
            planner.plan(comm::AllReduceAlgo::kAuto));
        rig->link_counters =
            std::make_unique<comm::LinkCounters>(rig->comm_plan->num_links);
        engine_opts.comm_plan = rig->comm_plan.get();
        engine_opts.link_counters = rig->link_counters.get();
      }
      for (int w = 0; w < spec.workers; ++w) {
        iostack::PeerConfig peer;
        peer.gpu = w;
        peer.plan = rig->comm_plan.get();
        peer.counters = rig->link_counters.get();
        rig->clients.push_back(std::make_unique<iostack::TieredFeatureClient>(
            *rig->store, spec.queue_depth, iostack::IoEngineOptions{},
            iostack::GatherOptions{}, peer));
        inner.push_back(rig->clients.back().get());
      }
    } else {
      rig->memory =
          std::make_unique<gnn::InMemoryFeatures>(rig->task.features);
      for (int w = 0; w < spec.workers; ++w) inner.push_back(rig->memory.get());
    }
    std::vector<gnn::FeatureProvider*> providers;
    for (int w = 0; w < spec.workers; ++w) {
      rig->observed.push_back(std::make_unique<ObservedProvider>(
          *inner[static_cast<std::size_t>(w)], w, tracer, reference));
      providers.push_back(rig->observed.back().get());
    }
    gnn::ModelConfig mcfg = rig->model_config();
    rig->trainer = std::make_unique<runtime::DataParallelTrainer>(
        g, providers, mcfg, spec.fanouts, rig->train, spec.learning_rate,
        seeds.model, engine_opts);
    if (rig->array) rig->array->start_all();
    rig->times.trainer_s = seconds_since(t0);
  }
  rig->times.total_s = seconds_since(t_start);
  return rig;
}

}  // namespace perfbench
