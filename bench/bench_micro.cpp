// Micro-benchmarks (google-benchmark): the hot kernels of the automatic
// module and the runtime substrates. These are not paper figures; they are
// the engineering numbers a user of the library cares about (planner cost,
// sampler rate, IO stack throughput, GNN kernel cost).

#include <benchmark/benchmark.h>

#include "ddak/ddak.hpp"
#include "ddak/workload.hpp"
#include "gnn/block.hpp"
#include "gnn/loss.hpp"
#include "gnn/model.hpp"
#include "gnn/optimizer.hpp"
#include "maxflow/time_bisection.hpp"
#include "graph/generators.hpp"
#include "iostack/ssd.hpp"
#include "maxflow/dinic.hpp"
#include "maxflow/edmonds_karp.hpp"
#include "placement/search.hpp"
#include "runtime/systems.hpp"
#include "sim/machine_sim.hpp"

namespace {

using namespace moment;

topology::FlowGraph machine_flow_graph(char placement) {
  static const auto spec = topology::make_machine_b();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, placement, 4, 8));
  return topology::compile_flow_graph(topo);
}

void BM_DinicMachineB(benchmark::State& state) {
  const auto fg = machine_flow_graph('c');
  for (auto _ : state) {
    maxflow::FlowNetwork net = fg.net;
    benchmark::DoNotOptimize(
        maxflow::Dinic::solve(net, fg.source, fg.sink).total_flow);
  }
}
BENCHMARK(BM_DinicMachineB);

void BM_EdmondsKarpMachineB(benchmark::State& state) {
  const auto fg = machine_flow_graph('c');
  for (auto _ : state) {
    maxflow::FlowNetwork net = fg.net;
    benchmark::DoNotOptimize(
        maxflow::EdmondsKarp::solve(net, fg.source, fg.sink).total_flow);
  }
}
BENCHMARK(BM_EdmondsKarpMachineB);

void BM_TimeBisection(benchmark::State& state) {
  const auto fg = machine_flow_graph('c');
  std::vector<maxflow::ByteConstraint> demands;
  for (const auto& g : fg.gpus) {
    demands.push_back({g.demand_edge, 100.0 * 1024 * 1024 * 1024});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        maxflow::solve_time_bisection(fg.net, fg.source, fg.sink, demands, {})
            .min_time_s);
  }
}
BENCHMARK(BM_TimeBisection);

void BM_CompileFlowGraph(benchmark::State& state) {
  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 4, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::compile_flow_graph(topo).storage.size());
  }
}
BENCHMARK(BM_CompileFlowGraph);

void BM_PlacementSearch(benchmark::State& state) {
  const auto spec = state.range(0) == 0 ? topology::make_machine_a()
                                        : topology::make_machine_b();
  placement::SearchOptions o;
  o.num_gpus = 4;
  o.num_ssds = 8;
  o.per_tier_bytes = {50e9, 60e9, 250e9};
  o.gpu_hbm_bytes = 15e9;
  o.per_gpu_demand_bytes = 90e9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::search_placements(spec, o).evaluated);
  }
}
BENCHMARK(BM_PlacementSearch)->Arg(0)->Arg(1);

graph::CsrGraph bench_graph() {
  graph::RmatParams p;
  p.num_vertices = 1 << 14;
  p.num_edges = 200000;
  return graph::generate_rmat(p);
}

// The trainer's sample stage: sample() plus build_blocks().
void BM_NeighborSample(benchmark::State& state) {
  const auto g = bench_graph();
  sampling::NeighborSampler sampler(g, {25, 10});
  auto train = sampling::select_train_vertices(g, 0.05, 3);
  util::Pcg32 rng(1);
  const std::span<const graph::VertexId> seeds{train.data(), 64};
  std::size_t fetched = 0;
  for (auto _ : state) {
    const auto blocks = gnn::build_blocks(sampler.sample(seeds, rng));
    fetched += blocks.front().num_src();
    benchmark::DoNotOptimize(blocks.front().src_of.data());
  }
  state.counters["fetched/s"] = benchmark::Counter(
      static_cast<double>(fetched), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NeighborSample);

void BM_DdakPlace(benchmark::State& state) {
  const auto bench = runtime::Workbench::make(graph::DatasetId::kIG, 3, 42);
  const auto spec = topology::make_machine_a();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 4, 8));
  const auto fg = topology::compile_flow_graph(topo);
  const auto w = ddak::make_epoch_workload(bench.dataset, bench.profile,
                                           ddak::CacheConfig{}, 4);
  const auto pred = topology::predict(fg, ddak::to_flow_demand(w, fg));
  const auto bins = ddak::make_bins(topo, fg, pred.per_storage_bytes,
                                    bench.dataset.scaled.vertices, 0.005,
                                    0.01);
  const auto merged = sim::merge_replicated_gpu_bins(bins);
  ddak::DdakOptions opt;
  opt.pool_size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ddak::ddak_place(merged, bench.profile, opt).traffic_share_error);
  }
}
BENCHMARK(BM_DdakPlace)->Arg(4)->Arg(100)->Arg(1024);

void BM_FluidRoundSim(benchmark::State& state) {
  const auto bench = runtime::Workbench::make(graph::DatasetId::kIG, 3, 42);
  const auto spec = topology::make_machine_b();
  const auto topo = topology::instantiate(
      spec, topology::classic_placement(spec, 'c', 4, 8));
  const auto fg = topology::compile_flow_graph(topo);
  const auto w = ddak::make_epoch_workload(bench.dataset, bench.profile,
                                           ddak::CacheConfig{}, 4);
  const auto pred = topology::predict(fg, ddak::to_flow_demand(w, fg));
  const auto bins = ddak::make_bins(topo, fg, pred.per_storage_bytes,
                                    bench.dataset.scaled.vertices, 0.005,
                                    0.01);
  const auto merged = sim::merge_replicated_gpu_bins(bins);
  const auto place = ddak::ddak_place(merged, bench.profile);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate_epoch(topo, fg, w, merged, place).epoch_time_s);
  }
}
BENCHMARK(BM_FluidRoundSim);

void BM_IoStackRead4K(benchmark::State& state) {
  iostack::SsdOptions opts;
  opts.capacity_bytes = 16ull << 20;
  iostack::SsdArray array(4, opts);
  iostack::IoEngine engine(array);
  array.start_all();
  std::vector<std::byte> buf(64 * iostack::kPageBytes);
  std::vector<iostack::ReadRequest> reqs(64);
  std::vector<std::size_t> failed;
  util::Pcg32 rng(7);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      reqs[i] = {rng.next_below(4),
                 rng.next_below(4000) * iostack::kPageBytes,
                 static_cast<std::uint32_t>(iostack::kPageBytes),
                 buf.data() + i * iostack::kPageBytes};
    }
    engine.wait(engine.submit(reqs), failed);
    bytes += 64 * iostack::kPageBytes;
  }
  array.stop_all();
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IoStackRead4K);

void BM_GnnTrainStep(benchmark::State& state) {
  const auto g = bench_graph();
  sampling::NeighborSampler sampler(g, {10, 5});
  auto train = sampling::select_train_vertices(g, 0.05, 3);
  util::Pcg32 rng(2);
  gnn::ModelConfig cfg;
  cfg.kind = state.range(0) == 0 ? gnn::ModelKind::kGraphSage
                                 : gnn::ModelKind::kGat;
  cfg.in_dim = 32;
  cfg.hidden_dim = 32;
  cfg.num_classes = 8;
  cfg.gat_heads = 4;
  gnn::GnnModel model(cfg);
  gnn::Adam opt(model.parameters(), 0.01f);
  std::vector<std::int32_t> labels(g.num_vertices());
  for (std::size_t v = 0; v < labels.size(); ++v) {
    labels[v] = static_cast<std::int32_t>(v % 8);
  }
  const std::span<const graph::VertexId> seeds{train.data(), 32};
  for (auto _ : state) {
    const auto sg = sampler.sample(seeds, rng);
    const auto blocks = gnn::build_blocks(sg);
    gnn::Tensor x0 = gnn::Tensor::glorot(blocks[0].num_src(), 32, rng);
    gnn::Tensor logits = model.forward(blocks, x0);
    std::vector<std::int32_t> seed_labels;
    for (auto v : blocks.back().dst_ids) seed_labels.push_back(labels[v]);
    const auto loss = gnn::softmax_cross_entropy(logits, seed_labels);
    opt.zero_grad();
    model.backward(blocks, loss.grad_logits);
    opt.step();
    benchmark::DoNotOptimize(loss.loss);
  }
}
BENCHMARK(BM_GnnTrainStep)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
