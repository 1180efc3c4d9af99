// Benchmark for the topology-aware communication layer.
//
// Part 1 — all-reduce planning: for each multi-GPU preset (2/4/8 GPUs on
// Machine A, placement c) compile the flat hub-and-spoke baseline and the
// planner's bandwidth-aware schedules, compare their contention-costed
// predicted comm time, and run a small data-parallel training job under both
// plans to confirm the schedules are pure transport models: bit-identical
// loss and per-link byte counters that conserve the plan's analytic volume
// exactly.
//
// Part 2 — peer-HBM gather: a Zipf batch stream whose hot band lives in the
// two GPUs' HBM (half owned by each GPU) gathered through the peer-HBM route
// and through the host storage path, four passes each. Both must be byte-identical
// to the source tensor; the peer leg must serve every remote-owned row over
// the planned route and account its bytes on the traversed links.
//
// Exit status is the verdict: >= 1.3x predicted comm-time reduction on at
// least one preset, bit-identical losses, byte-identical gathers, and exact
// link-byte conservation. Every check and JSON field is a count or a modeled
// figure; perfbench measures gather and all-reduce wall time.
//
// Usage:
//   bench_comm [--out FILE]   full run, writes BENCH_comm.json
//   bench_comm --smoke        2/4-GPU presets, fewer rounds, no JSON

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/plan.hpp"
#include "comm/planner.hpp"
#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "iostack/feature_store.hpp"
#include "runtime/parallel_trainer.hpp"
#include "topology/machine.hpp"
#include "util/rng.hpp"

namespace {

using namespace moment;
using comm::AllReduceAlgo;
using comm::CommPlan;
using comm::CommPlanner;
using comm::LinkCounters;

topology::Topology make_topo(int gpus) {
  const auto spec = topology::make_machine_a();
  return topology::instantiate(
      spec, topology::classic_placement(spec, 'c', gpus, 8));
}

// ---------------------------------------------------------------------------
// Part 1: flat vs planned all-reduce.

struct TrainLeg {
  float final_loss = 0.0f;
  std::uint64_t payload_bytes = 0;
  std::uint64_t modeled_bytes = 0;
  std::size_t rounds = 0;
  double predicted_comm_s = 0.0;
  bool conserved = true;
};

struct PresetResult {
  int gpus = 0;
  std::string planned_algo;   // what kAuto picked
  double flat_predicted_s = 0.0;
  double planned_predicted_s = 0.0;
  double ratio = 0.0;  // flat / planned, the simulated comm-time reduction
  TrainLeg flat;
  TrainLeg planned;
  bool bit_identical = false;
};

struct TrainerRig {
  graph::CsrGraph g;
  gnn::SyntheticTask task;
  std::vector<std::unique_ptr<gnn::InMemoryFeatures>> features;
  std::vector<gnn::FeatureProvider*> providers;

  static TrainerRig make(int workers) {
    TrainerRig r;
    graph::RmatParams gp;
    gp.num_vertices = 2048;
    gp.num_edges = 16000;
    r.g = graph::generate_rmat(gp);
    r.task = gnn::make_synthetic_task(r.g, 4, 16, 0.3, 9);
    for (int w = 0; w < workers; ++w) {
      r.features.push_back(
          std::make_unique<gnn::InMemoryFeatures>(r.task.features));
      r.providers.push_back(r.features.back().get());
    }
    return r;
  }

  gnn::ModelConfig model_config() const {
    gnn::ModelConfig cfg;
    cfg.kind = gnn::ModelKind::kGraphSage;
    cfg.in_dim = 16;
    cfg.hidden_dim = 32;
    cfg.num_classes = 4;
    return cfg;
  }
};

TrainLeg run_training(int gpus, const CommPlan& plan, int epochs) {
  TrainerRig rig = TrainerRig::make(gpus);
  auto train = sampling::select_train_vertices(rig.g, 0.3, 5);
  LinkCounters counters(plan.num_links);
  runtime::EngineOptions opts;
  opts.comm_plan = &plan;
  opts.link_counters = &counters;
  runtime::DataParallelTrainer trainer(rig.g, rig.providers,
                                       rig.model_config(), {5, 5}, train,
                                       0.01f, 11, opts);
  TrainLeg leg;
  runtime::EpochStats stats;
  for (int e = 0; e < epochs; ++e) {
    stats = trainer.train_epoch(rig.task.labels, 64);
    leg.rounds += stats.rounds;
    leg.modeled_bytes += stats.comm.modeled_bytes;
    leg.predicted_comm_s += stats.comm.predicted_comm_s;
    // Conservation: the epoch's per-link deltas must equal rounds x the
    // plan's per-all-reduce volume, byte for byte.
    const auto vols =
        plan.link_volume(static_cast<double>(stats.comm.payload_bytes));
    std::uint64_t per_round = 0;
    for (const auto& v : vols) per_round += v.ab + v.ba;
    if (stats.comm.modeled_bytes != per_round * stats.rounds) {
      leg.conserved = false;
    }
  }
  leg.final_loss = stats.mean_loss;
  leg.payload_bytes = stats.comm.payload_bytes;
  return leg;
}

PresetResult run_preset(int gpus, int epochs) {
  PresetResult r;
  r.gpus = gpus;
  const auto topo = make_topo(gpus);
  const CommPlanner planner(topo);
  const CommPlan flat = planner.plan(AllReduceAlgo::kFlat);
  const CommPlan planned = planner.plan(AllReduceAlgo::kAuto);
  r.planned_algo = comm::to_string(planned.algo);

  r.flat = run_training(gpus, flat, epochs);
  r.planned = run_training(gpus, planned, epochs);
  r.bit_identical = r.flat.final_loss == r.planned.final_loss;

  // Rank the schedules on the training job's real gradient payload.
  const auto payload = static_cast<double>(r.planned.payload_bytes);
  r.flat_predicted_s = flat.predicted_seconds(payload);
  r.planned_predicted_s = planned.predicted_seconds(payload);
  r.ratio = r.planned_predicted_s > 0.0
                ? r.flat_predicted_s / r.planned_predicted_s
                : 0.0;
  return r;
}

void print_preset(const PresetResult& r) {
  std::printf(
      "  %d GPUs: auto=%-4s  predicted %8.3f us flat vs %8.3f us planned "
      "(%.2fx)  loss %s  bytes %s\n",
      r.gpus, r.planned_algo.c_str(), r.flat_predicted_s * 1e6,
      r.planned_predicted_s * 1e6, r.ratio,
      r.bit_identical ? "bit-identical" : "DIVERGED",
      r.flat.conserved && r.planned.conserved ? "conserved" : "NOT CONSERVED");
}

// ---------------------------------------------------------------------------
// Part 2: peer-HBM vs storage-path gather.

struct GatherLeg {
  std::string name;
  std::uint64_t peer_rows = 0;
  std::uint64_t peer_bytes = 0;
  std::uint64_t host_fallback_rows = 0;
  std::uint64_t link_bytes = 0;
  bool byte_identical = true;
  bool counters_conserved = true;
};

struct GatherShape {
  std::size_t num_vertices = 8192;
  std::size_t dim = 64;
  std::size_t hbm_rows = 2048;  // hottest band, split across two GPUs
  std::size_t cpu_rows = 512;
  std::size_t batches = 48;
  std::size_t batch_size = 1024;
};

GatherLeg run_gather(const GatherShape& shape, bool use_peer_path) {
  graph::RmatParams gp;
  gp.num_vertices = shape.num_vertices;
  gp.num_edges = shape.num_vertices * 8;
  const auto g = graph::generate_rmat(gp);
  const auto task = gnn::make_synthetic_task(g, 8, shape.dim, 0.3, 17);

  // Hottest band in HBM (half owned by each GPU), next band in CPU DRAM,
  // the tail striped over two SSDs. Vertex id == hotness rank.
  std::vector<iostack::BinBacking> bins = {
      {iostack::BinBacking::Kind::kGpuCache, -1, 0},
      {iostack::BinBacking::Kind::kGpuCache, -1, 1},
      {iostack::BinBacking::Kind::kCpuCache, -1, -1},
      {iostack::BinBacking::Kind::kSsd, 0, -1},
      {iostack::BinBacking::Kind::kSsd, 1, -1}};
  std::vector<std::int32_t> bov(shape.num_vertices);
  for (std::size_t v = 0; v < shape.num_vertices; ++v) {
    if (v < shape.hbm_rows / 2) bov[v] = 0;
    else if (v < shape.hbm_rows) bov[v] = 1;
    else if (v < shape.hbm_rows + shape.cpu_rows) bov[v] = 2;
    else bov[v] = 3 + static_cast<std::int32_t>(v % 2);
  }
  iostack::SsdOptions ssd_opts;
  ssd_opts.capacity_bytes = 64ull << 20;
  iostack::SsdArray array(2, ssd_opts);
  iostack::TieredFeatureStore store(task.features, bov, bins, array);

  const auto topo = make_topo(2);
  const CommPlan plan = CommPlanner(topo).plan(AllReduceAlgo::kAuto);
  LinkCounters counters(plan.num_links);
  iostack::PeerConfig peer;
  peer.gpu = 0;
  if (use_peer_path) {
    peer.plan = &plan;
    peer.counters = &counters;
  }
  iostack::TieredFeatureClient client(store, 256, {}, {}, peer);
  array.start_all();

  // Zipf batches concentrated on the HBM band: the regime where remote-HBM
  // rows dominate and the peer route pays off.
  const util::ZipfSampler zipf(shape.num_vertices, 1.2);
  util::Pcg32 rng(41);
  std::vector<std::vector<graph::VertexId>> batches(shape.batches);
  for (auto& batch : batches) {
    batch.resize(shape.batch_size);
    for (auto& v : batch) v = static_cast<graph::VertexId>(zipf.sample(rng));
  }

  GatherLeg leg;
  leg.name = use_peer_path ? "peer-hbm" : "storage-path";
  gnn::Tensor out(shape.batch_size, shape.dim);
  for (int pass = 0; pass < 4; ++pass) {
    for (const auto& batch : batches) {
      client.gather(batch, out);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (std::memcmp(out.row(i).data(),
                        task.features.row(batch[i]).data(),
                        shape.dim * sizeof(float)) != 0) {
          leg.byte_identical = false;
        }
      }
    }
  }
  array.stop_all();

  leg.peer_rows = client.stats().peer_hits;
  leg.peer_bytes = client.stats().peer_bytes;
  leg.host_fallback_rows = client.stats().remote_hbm_host_reads;
  for (const auto v : counters.snapshot()) leg.link_bytes += v;
  if (use_peer_path) {
    const comm::PeerRoute* route = plan.peer_route(1, 0);
    const std::uint64_t expected =
        route != nullptr ? leg.peer_bytes * route->links.size() : 0;
    leg.counters_conserved = leg.link_bytes == expected;
  }
  return leg;
}

void print_gather(const GatherLeg& leg) {
  std::printf(
      "  %-12s peer rows %8llu (%.1f MiB)  host-fallback %8llu  "
      "link bytes %.1f MiB  %s%s\n",
      leg.name.c_str(),
      static_cast<unsigned long long>(leg.peer_rows),
      static_cast<double>(leg.peer_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(leg.host_fallback_rows),
      static_cast<double>(leg.link_bytes) / (1024.0 * 1024.0),
      leg.byte_identical ? "bytes OK" : "BYTE MISMATCH",
      leg.counters_conserved ? "" : "  COUNTERS NOT CONSERVED");
}

// ---------------------------------------------------------------------------

int run(bool smoke, const std::string& out_path) {
  std::printf("bench_comm: flat vs planned all-reduce, peer-HBM gather%s\n",
              smoke ? " [smoke]" : "");
  std::vector<int> presets = smoke ? std::vector<int>{2, 4}
                                   : std::vector<int>{2, 4, 8};
  const int epochs = smoke ? 1 : 3;

  std::printf("\nall-reduce (Machine A, placement c):\n");
  std::vector<PresetResult> results;
  for (int gpus : presets) {
    results.push_back(run_preset(gpus, epochs));
    print_preset(results.back());
  }

  std::printf("\npeer-HBM gather (2 GPUs, Zipf 1.2 over the HBM band):\n");
  GatherShape gshape;
  if (smoke) {
    gshape.num_vertices = 1024;
    gshape.dim = 16;
    gshape.hbm_rows = 256;
    gshape.cpu_rows = 128;
    gshape.batches = 8;
    gshape.batch_size = 256;
  }
  const GatherLeg storage = run_gather(gshape, false);
  const GatherLeg peer = run_gather(gshape, true);
  print_gather(storage);
  print_gather(peer);

  double best_ratio = 0.0;
  bool pass = true;
  for (const auto& r : results) {
    best_ratio = std::max(best_ratio, r.ratio);
    if (!r.bit_identical) {
      std::printf("FAIL: %d-GPU loss diverged between flat and planned\n",
                  r.gpus);
      pass = false;
    }
    if (!r.flat.conserved || !r.planned.conserved) {
      std::printf("FAIL: %d-GPU link bytes not conserved\n", r.gpus);
      pass = false;
    }
  }
  if (best_ratio < 1.3) {
    std::printf("FAIL: best predicted comm-time reduction %.2fx < 1.3x\n",
                best_ratio);
    pass = false;
  }
  if (!storage.byte_identical || !peer.byte_identical) {
    std::printf("FAIL: gather not byte-identical\n");
    pass = false;
  }
  if (peer.peer_rows == 0 || !peer.counters_conserved) {
    std::printf("FAIL: peer path unused or counters not conserved\n");
    pass = false;
  }
  if (storage.peer_rows != 0 || storage.host_fallback_rows == 0) {
    std::printf("FAIL: storage path unexpectedly used the peer route\n");
    pass = false;
  }
  std::printf("\n  best predicted comm-time reduction: %.2fx (>= 1.3x %s)\n",
              best_ratio, best_ratio >= 1.3 ? "ok" : "MISSED");

  if (!smoke) {
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"presets\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(
          f,
          "    {\"gpus\": %d, \"planned_algo\": \"%s\", "
          "\"payload_bytes\": %llu, \"flat_predicted_s\": %.9f, "
          "\"planned_predicted_s\": %.9f, \"predicted_reduction\": %.3f, "
          "\"rounds\": %zu, \"modeled_bytes_flat\": %llu, "
          "\"modeled_bytes_planned\": %llu, \"bit_identical_loss\": %s, "
          "\"link_bytes_conserved\": %s}%s\n",
          r.gpus, r.planned_algo.c_str(),
          static_cast<unsigned long long>(r.planned.payload_bytes),
          r.flat_predicted_s, r.planned_predicted_s, r.ratio, r.planned.rounds,
          static_cast<unsigned long long>(r.flat.modeled_bytes),
          static_cast<unsigned long long>(r.planned.modeled_bytes),
          r.bit_identical ? "true" : "false",
          r.flat.conserved && r.planned.conserved ? "true" : "false",
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(
        f,
        "  ],\n  \"peer_gather\": [\n"
        "    {\"name\": \"%s\", \"peer_rows\": %llu, "
        "\"peer_bytes\": %llu, \"host_fallback_rows\": %llu, "
        "\"link_bytes\": %llu, \"byte_identical\": %s},\n"
        "    {\"name\": \"%s\", \"peer_rows\": %llu, "
        "\"peer_bytes\": %llu, \"host_fallback_rows\": %llu, "
        "\"link_bytes\": %llu, \"byte_identical\": %s, "
        "\"counters_conserved\": %s}\n  ],\n",
        storage.name.c_str(),
        static_cast<unsigned long long>(storage.peer_rows),
        static_cast<unsigned long long>(storage.peer_bytes),
        static_cast<unsigned long long>(storage.host_fallback_rows),
        static_cast<unsigned long long>(storage.link_bytes),
        storage.byte_identical ? "true" : "false", peer.name.c_str(),
        static_cast<unsigned long long>(peer.peer_rows),
        static_cast<unsigned long long>(peer.peer_bytes),
        static_cast<unsigned long long>(peer.host_fallback_rows),
        static_cast<unsigned long long>(peer.link_bytes),
        peer.byte_identical ? "true" : "false",
        peer.counters_conserved ? "true" : "false");
    std::fprintf(f,
                 "  \"summary\": {\"best_predicted_reduction\": %.3f, "
                 "\"pass\": %s}\n}\n",
                 best_ratio, pass ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_comm.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  return run(smoke, out_path);
}
