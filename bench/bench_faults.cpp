// Chaos harness for the fault-tolerant IO stack. Trains the same model twice
// through the tiered NVMe feature path — once fault-free, once under 1%
// injected transient read errors on every SSD plus one hard device failure
// mid-training — and asserts:
//
//   1. every epoch completes (all waits are deadline-bounded);
//   2. the loss trajectory is BIT-IDENTICAL to the fault-free run: retries
//      and host-copy failover return exactly the bytes the device would
//      have, so fault timing never perturbs training;
//   3. the faulted run reports nonzero retries/failovers and one failed
//      device with its bins remapped; the fault-free run reports all zeros.
//
// Exit status is the verdict (0 = pass), so this runs as a CTest entry
// (label: faults).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "iostack/feature_store.hpp"
#include "runtime/parallel_trainer.hpp"
#include "sampling/neighbor_sampler.hpp"

namespace {

using namespace moment;

constexpr int kWorkers = 2;
constexpr int kEpochs = 4;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kVertices = 512;

int failures = 0;

#define CHECK(cond, msg)                                  \
  do {                                                    \
    if (!(cond)) {                                        \
      std::printf("FAIL: %s (%s)\n", msg, #cond);         \
      ++failures;                                         \
    }                                                     \
  } while (0)

struct Rig {
  graph::CsrGraph g;
  gnn::SyntheticTask task;
  std::unique_ptr<iostack::SsdArray> array;
  std::unique_ptr<iostack::TieredFeatureStore> store;
  std::vector<std::unique_ptr<iostack::TieredFeatureClient>> clients;
  std::vector<gnn::FeatureProvider*> providers;

  /// Three SSDs with 2x capacity slack so failover re-placement always fits.
  static Rig make(bool faulted) {
    Rig r;
    graph::RmatParams gp;
    gp.num_vertices = kVertices;
    gp.num_edges = 4000;
    r.g = graph::generate_rmat(gp);
    r.task = gnn::make_synthetic_task(r.g, 4, 12, 0.3, 9);
    std::vector<iostack::BinBacking> bins = {
        {iostack::BinBacking::Kind::kGpuCache, -1},
        {iostack::BinBacking::Kind::kCpuCache, -1},
        {iostack::BinBacking::Kind::kSsd, 0},
        {iostack::BinBacking::Kind::kSsd, 1},
        {iostack::BinBacking::Kind::kSsd, 2},
    };
    std::vector<std::int32_t> bov(kVertices);
    for (std::size_t v = 0; v < kVertices; ++v) {
      if (v < 32) bov[v] = 0;
      else if (v < 64) bov[v] = 1;
      else bov[v] = 2 + static_cast<std::int32_t>(v % 3);
    }
    iostack::SsdOptions opts;
    opts.capacity_bytes = 2ull << 20;
    r.array = std::make_unique<iostack::SsdArray>(3, opts);
    r.store = std::make_unique<iostack::TieredFeatureStore>(
        r.task.features, bov, bins, *r.array);
    if (faulted) {
      for (std::size_t s = 0; s < 3; ++s) {
        iostack::FaultProfile fp;
        fp.read_error_prob = 0.01;  // 1% transient errors everywhere
        fp.seed = 0x5eedf001 + s;
        if (s == 2) fp.fail_after_reads = 150;  // hard failure mid-training
        r.array->ssd(s).inject_faults(fp);
      }
    }
    for (int w = 0; w < kWorkers; ++w) {
      iostack::IoEngineOptions io;
      io.max_retries = 8;  // transient 1% errors must never exhaust retries
      r.clients.push_back(std::make_unique<iostack::TieredFeatureClient>(
          *r.store, 256, io));
      r.providers.push_back(r.clients.back().get());
    }
    r.array->start_all();
    return r;
  }

  gnn::ModelConfig model_config() const {
    gnn::ModelConfig cfg;
    cfg.kind = gnn::ModelKind::kGraphSage;
    cfg.in_dim = 12;
    cfg.hidden_dim = 16;
    cfg.num_classes = 4;
    return cfg;
  }
};

struct RunResult {
  std::vector<float> losses;
  std::vector<float> accuracies;
  gnn::FeatureProvider::IoResilience io;  // summed epoch deltas, max gauges
};

RunResult run(bool faulted) {
  Rig rig = Rig::make(faulted);
  auto train = sampling::select_train_vertices(rig.g, 0.3, 5);
  runtime::DataParallelTrainer trainer(rig.g, rig.providers,
                                       rig.model_config(), {5, 5}, train,
                                       0.01f, 31);
  RunResult res;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const auto stats = trainer.train_epoch(rig.task.labels, kBatch);
    res.losses.push_back(stats.mean_loss);
    res.accuracies.push_back(stats.mean_accuracy);
    for_each_field(res.io, stats.io, [](auto& acc, auto v, bool gauge) {
      acc = gauge ? std::max(acc, v) : acc + v;
    });
  }
  rig.array->stop_all();
  return res;
}

}  // namespace

int main() {
  std::printf("chaos harness: %d epochs fault-free vs faulted "
              "(1%% transient errors + device 2 hard-fails)\n",
              kEpochs);
  const RunResult clean = run(/*faulted=*/false);
  const RunResult chaos = run(/*faulted=*/true);

  CHECK(clean.losses.size() == static_cast<std::size_t>(kEpochs),
        "fault-free run completed all epochs");
  CHECK(chaos.losses.size() == static_cast<std::size_t>(kEpochs),
        "faulted run completed all epochs (bounded waits)");

  // Bit-identical loss trajectory: retries/failover return the same bytes.
  for (int e = 0; e < kEpochs; ++e) {
    const bool loss_same =
        std::memcmp(&clean.losses[e], &chaos.losses[e], sizeof(float)) == 0;
    const bool acc_same = std::memcmp(&clean.accuracies[e],
                                      &chaos.accuracies[e],
                                      sizeof(float)) == 0;
    CHECK(loss_same, "per-epoch loss bit-identical under faults");
    CHECK(acc_same, "per-epoch accuracy bit-identical under faults");
    std::printf("  epoch %d: loss %.6f vs %.6f %s\n", e, clean.losses[e],
                chaos.losses[e], loss_same ? "(identical)" : "(DIVERGED)");
  }

  // The faulted run must actually have exercised the resilience machinery.
  CHECK(chaos.io.retries > 0, "faulted run reports retries");
  CHECK(chaos.io.failovers + chaos.io.device_remaps > 0,
        "faulted run reports failover activity");
  CHECK(chaos.io.devices_failed == 1, "exactly one device hard-failed");
  CHECK(chaos.io.device_remaps == 1, "failed device's bins were remapped once");

  // And the fault-free run must be silent.
  CHECK(clean.io.retries == 0, "fault-free run reports zero retries");
  CHECK(clean.io.timeouts == 0, "fault-free run reports zero timeouts");
  CHECK(clean.io.permanent_failures == 0,
        "fault-free run reports zero permanent failures");
  CHECK(clean.io.failovers == 0, "fault-free run reports zero failovers");
  CHECK(clean.io.devices_failed == 0, "fault-free run has no failed devices");

  std::printf("faulted telemetry: retries=%llu timeouts=%llu perm=%llu "
              "failovers=%llu remaps=%llu failed_devices=%u\n",
              static_cast<unsigned long long>(chaos.io.retries),
              static_cast<unsigned long long>(chaos.io.timeouts),
              static_cast<unsigned long long>(chaos.io.permanent_failures),
              static_cast<unsigned long long>(chaos.io.failovers),
              static_cast<unsigned long long>(chaos.io.device_remaps),
              chaos.io.devices_failed);
  std::printf(failures == 0 ? "chaos harness PASSED\n"
                            : "chaos harness FAILED (%d checks)\n",
              failures);
  return failures == 0 ? 0 : 1;
}
