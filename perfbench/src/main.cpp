// End-to-end out-of-core GNN training benchmark.
//
//   moment_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--tiny] [--trace-out PATH]
//
// --trace 0: one untraced run. Set-up is repeated kSetupRepeats times (median
//   reported),
//   then one untimed warm-up epoch, then whole epochs for at least S seconds.
//   Prints the end-to-end metrics.
// --trace 1: the untraced run once more (one set-up), then a traced run of
//   the same workload and seed over the same epochs, then a short sequential
//   replay of batches that splits compute into forward / loss / backward /
//   optimizer. Prints the per-layer metrics and writes the spans as Chrome
//   trace-event JSON.
//
// Every run checks its outputs (finite loss, replicas in sync after every
// epoch, stage times that add up to the epoch, gathered rows byte-identical
// to the source features; with --trace 1 also per-epoch loss bit-identical
// between the two runs) and exits 1 when a check fails. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted counts training batches and failed the batches of epochs
// that failed a check.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gnn/block.hpp"
#include "gnn/loss.hpp"
#include "gnn/optimizer.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "setup.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace moment;
using namespace perfbench;

namespace {

// Round p90 needs at least ten samples beyond it.
constexpr std::size_t kMinRoundSamples = 100;
// Parts add up: per worker, the stage sum may exceed the epoch wall time by
// at most this share plus kPartsSlackS (clock reads at stage boundaries).
constexpr double kPartsTolerance = 1e-3;
constexpr double kPartsSlackS = 5e-4;
// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;
// Rows re-gathered and byte-compared after an untraced run.
constexpr std::size_t kFinalCheckRows = 4096;
// Batches in the traced run's sequential replay.
constexpr std::size_t kReplayBatches = 8;
// Kernels run inline on each worker thread (no compute pool). With the
// default pool (one thread per core) a workload's workers, the SSD service
// threads and the pool oversubscribe the cores: on a 4-vCPU virtual machine
// that doubled run-to-run spread and let the hypervisor steal 12-34% of CPU
// time, while inline kernels ran as fast or faster.
constexpr std::size_t kComputeThreads = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool tiny = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "moment_perfbench: %s\nusage: moment_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--tiny] [--trace-out PATH]\nworkloads:",
               why.c_str());
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--workload") {
        a.workload = value(i);
      } else if (flag == "--seed") {
        a.seed = std::stoull(value(i));
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value(i));
      } else if (flag == "--trace") {
        a.trace = std::stoi(value(i));
      } else if (flag == "--tiny") {
        a.tiny = true;
      } else if (flag == "--trace-out") {
        a.trace_out = value(i);
      } else {
        usage("unknown argument " + flag);
      }
    }
  } catch (const std::logic_error&) {
    usage("malformed number");
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0) ||
      (a.trace != 0 && a.trace != 1)) {
    usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
  }
  if (a.trace_out.empty()) {
    a.trace_out = ".bench_out/trace-" + a.workload + "-seed" +
                  std::to_string(a.seed) + ".json";
  }
  return a;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Host CPU time stolen from this machine (hypervisor steal) as a share of
/// all CPU time, from /proc/stat; provenance for a noisy host.
struct CpuTicks {
  std::uint64_t steal = 0, total = 0;
  static CpuTicks read() {
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    std::uint64_t v = 0;
    for (int i = 0; i < 10 && (in >> v); ++i) {
      t.total += v;
      if (i == 7) t.steal = v;
    }
    return t;
  }
};

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  return ratio(static_cast<double>(b.steal - a.steal),
               static_cast<double>(b.total - a.total));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::vector<std::pair<std::string, std::string>> provenance(const Args& a) {
  const char* rev = std::getenv("PERFBENCH_SOURCE_REV");
  return {
      {"workload", a.workload},
      {"seed", std::to_string(a.seed)},
      {"cpu_model", cpu_model()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"cxx_flags", PERFBENCH_CXX_FLAGS},
      {"compute_pool_threads", std::to_string(util::compute_pool_threads())},
      {"source_rev", rev != nullptr ? rev : "unknown"},
      {"tiny", a.tiny ? "1" : "0"},
  };
}

// --- One measured training run ---------------------------------------------

/// Counters read before and after the timed epochs.
struct IoSnapshot {
  iostack::SsdStats ssd;  // summed over devices
  std::uint64_t lat_count = 0;
  double lat_sum_ns = 0.0;
  double lat_max_ns = 0.0;
  std::uint64_t gpu_hits = 0, cpu_hits = 0;
  double cpu_s = 0.0;
  CpuTicks ticks;

  static IoSnapshot take(const Rig& rig) {
    IoSnapshot s;
    if (rig.array) {
      for (std::size_t i = 0; i < rig.array->size(); ++i) {
        const auto st = rig.array->ssd(i).stats();
        s.ssd.bytes_read += st.bytes_read;
        s.ssd.dropped_completions += st.dropped_completions;
      }
    }
    for (const auto& c : rig.clients) {
      const auto lat = c->engine().latency();
      s.lat_count += lat.count;
      s.lat_sum_ns += lat.mean_ns * static_cast<double>(lat.count);
      s.lat_max_ns = std::max(s.lat_max_ns, lat.max_ns);
      s.gpu_hits += c->stats().gpu_hits;
      s.cpu_hits += c->stats().cpu_hits;
    }
    s.cpu_s = cpu_seconds();
    s.ticks = CpuTicks::read();
    return s;
  }
};

struct EpochRecord {
  runtime::EpochStats stats;
  double wall_s = 0.0;  // around train_epoch, as the caller sees it
  std::size_t seeds = 0;
};

struct RunResult {
  std::vector<float> losses;  // every epoch, warm-up first
  std::vector<std::size_t> epoch_batches;  // likewise
  std::vector<EpochRecord> timed;
  std::vector<double> round_ms;  // pooled over workers and timed epochs
  double timed_wall_s = 0.0;
  std::size_t seeds = 0;
  std::size_t batches = 0;         // all epochs
  std::size_t failed_batches = 0;  // batches of epochs that failed a check
  IoSnapshot before, after;
  std::vector<std::string> failures;
  double max_parts_excess_s = 0.0;  // largest stage-sum overshoot seen
};

/// Checks one finished epoch; returns false (and notes why) on failure.
bool check_epoch(const Rig& rig, const runtime::EpochStats& st,
                 std::uint64_t mismatched_before, RunResult& r,
                 const char* label) {
  bool ok = true;
  auto fail = [&](const std::string& why) {
    r.failures.push_back(std::string(label) + " epoch " +
                         std::to_string(r.losses.size()) + ": " + why);
    ok = false;
  };
  if (!std::isfinite(st.mean_loss)) fail("non-finite loss");
  if (!rig.trainer->replicas_in_sync()) fail("replicas out of sync");
  for (std::size_t w = 0; w < st.per_worker.size(); ++w) {
    const auto& t = st.per_worker[w];
    const double sum = t.sample_s + t.gather_issue_s + t.gather_wait_s +
                       t.compute_s + t.optimizer_s;
    const double excess = sum - st.wall_time_s;
    r.max_parts_excess_s = std::max(r.max_parts_excess_s, excess);
    if (excess > kPartsTolerance * st.wall_time_s + kPartsSlackS) {
      fail("worker " + std::to_string(w) + " stage sum " +
           std::to_string(sum) + " s exceeds epoch wall " +
           std::to_string(st.wall_time_s) + " s");
    }
  }
  std::uint64_t mismatched = 0;
  for (const auto& o : rig.observed) mismatched += o->rows_mismatched();
  if (mismatched != mismatched_before) {
    fail(std::to_string(mismatched - mismatched_before) +
         " gathered rows differ from the source features");
  }
  return ok;
}

/// Warm-up epoch, then timed epochs: until `seconds` have passed and enough
/// round samples exist, or exactly `epochs` when nonzero (the traced run
/// replays the untraced run's epoch count).
RunResult train_and_measure(Rig& rig, Tracer* tracer, double seconds,
                            std::size_t epochs, bool tiny, const char* label) {
  RunResult r;
  auto mismatched = [&] {
    std::uint64_t m = 0;
    for (const auto& o : rig.observed) m += o->rows_mismatched();
    return m;
  };
  auto one_epoch = [&](bool timed) {
    for (auto& o : rig.observed) o->begin_epoch();
    const std::uint64_t mm = mismatched();
    ScopedSpan span(tracer, timed ? "runtime.epoch" : "runtime.warmup_epoch");
    if (tracer != nullptr) tracer->set_context(span.id());
    const auto t0 = Clock::now();
    EpochRecord rec;
    rec.stats = rig.trainer->train_epoch(rig.task.labels, rig.spec.batch_size);
    rec.wall_s = seconds_since(t0);
    if (tracer != nullptr) tracer->set_context(0);
    rec.seeds = rig.seeds_per_epoch(rec.stats.rounds);
    r.losses.push_back(rec.stats.mean_loss);
    r.epoch_batches.push_back(rec.stats.batches);
    r.batches += rec.stats.batches;
    if (!check_epoch(rig, rec.stats, mm, r, label)) {
      r.failed_batches += rec.stats.batches;
    }
    if (timed) {
      for (const auto& o : rig.observed) {
        const auto& c = o->completions();
        for (std::size_t i = 1; i < c.size(); ++i) {
          r.round_ms.push_back(
              std::chrono::duration<double, std::milli>(c[i] - c[i - 1])
                  .count());
        }
      }
      r.timed_wall_s += rec.wall_s;
      r.seeds += rec.seeds;
      r.timed.push_back(std::move(rec));
    }
  };

  one_epoch(false);
  r.before = IoSnapshot::take(rig);
  const auto t0 = Clock::now();
  const std::size_t min_samples = tiny ? 0 : kMinRoundSamples;
  for (;;) {
    one_epoch(true);
    if (epochs > 0) {
      if (r.timed.size() >= epochs) break;
    } else if (seconds_since(t0) >= seconds &&
               r.round_ms.size() >= min_samples) {
      break;
    }
  }
  r.after = IoSnapshot::take(rig);
  return r;
}

/// Re-gathers random rows through worker 0's provider and byte-compares them
/// (the untraced run's output check; the traced run checks every row).
void final_gather_check(Rig& rig, std::uint64_t seed, RunResult& r) {
  const auto n = static_cast<std::uint32_t>(rig.graph().num_vertices());
  util::Pcg32 rng(seed, 0x43484b);  // "CHK"
  std::vector<graph::VertexId> vs(std::min<std::size_t>(kFinalCheckRows, n));
  for (auto& v : vs) v = static_cast<graph::VertexId>(rng.next_below(n));
  gnn::Tensor out(vs.size(), rig.spec.feature_dim);
  ObservedProvider& p = *rig.observed[0];
  const std::uint64_t before = p.rows_mismatched();
  p.set_reference(&rig.task.features);
  p.gather(vs, out);
  p.set_reference(nullptr);
  if (p.rows_mismatched() != before) {
    r.failures.push_back("final gather check: " +
                         std::to_string(p.rows_mismatched() - before) +
                         " rows differ from the source features");
  }
}

// --- Traced replay -----------------------------------------------------------

/// Sequential replay of a few batches through the layers the engine calls,
/// one span per call, on a fresh replica.
void replay(Rig& rig, Tracer* tracer, std::uint64_t seed) {
  ScopedSpan top(tracer, "replay");
  gnn::ModelConfig cfg = rig.model_config();
  cfg.seed = seed;
  gnn::GnnModel model(cfg);
  gnn::Adam opt(model.parameters(), rig.spec.learning_rate);
  sampling::NeighborSampler sampler(rig.graph(), rig.spec.fanouts);
  sampling::BatchIterator batches(rig.train, rig.spec.batch_size, seed);
  util::Pcg32 rng(seed, 0x52504c59);  // "RPLY"
  ObservedProvider& provider = *rig.observed[0];
  for (std::size_t b = 0; b < kReplayBatches; ++b) {
    const auto round = static_cast<long>(b);
    const auto batch = batches.next();
    if (batch.empty()) break;
    std::vector<gnn::Block> blocks;
    {
      ScopedSpan s(tracer, "sampling.sample", -1, round);
      blocks = gnn::build_blocks(sampler.sample(batch, rng));
    }
    gnn::Tensor x0(blocks[0].num_src(), provider.dim());
    provider.gather(blocks[0].src_ids, x0);
    gnn::Tensor logits;
    {
      ScopedSpan s(tracer, "gnn.forward", -1, round);
      logits = model.forward(blocks, x0);
    }
    std::vector<std::int32_t> labels;
    for (graph::VertexId v : blocks.back().dst_ids) {
      labels.push_back(rig.task.labels[static_cast<std::size_t>(v)]);
    }
    model.zero_grad();
    gnn::LossResult loss;
    {
      ScopedSpan s(tracer, "gnn.loss", -1, round);
      loss = gnn::softmax_cross_entropy(logits, labels);
    }
    {
      ScopedSpan s(tracer, "gnn.backward", -1, round);
      model.backward(blocks, loss.grad_logits);
    }
    {
      ScopedSpan s(tracer, "gnn.optimizer", -1, round);
      opt.step();
    }
  }
}

// --- Metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// SSD commands issued over the timed epochs, and the attempts among them
/// that timed out or failed for good.
struct IoFailures {
  std::uint64_t commands = 0, failed = 0;
};

IoFailures io_failures(const RunResult& r) {
  IoFailures f;
  for (const auto& e : r.timed) {
    f.commands += e.stats.io.ssd_commands;
    f.failed += e.stats.io.timeouts + e.stats.io.permanent_failures;
  }
  return f;
}

std::vector<Metric> end_to_end_metrics(const RunResult& r,
                                       const std::vector<double>& setup_s) {
  // Median over the timed epochs of seeds trained per wall second, so one
  // epoch slowed by the host does not move the figure.
  std::vector<double> epoch_rates;
  for (const auto& e : r.timed) epoch_rates.push_back(ratio(e.seeds, e.wall_s));
  const IoFailures iof = io_failures(r);
  return {
      {"seeds_per_s", "seeds/s", quantile(epoch_rates, 0.5)},
      {"round_p50_ms", "ms", quantile(r.round_ms, 0.5)},
      {"round_p90_ms", "ms", quantile(r.round_ms, 0.9)},
      {"setup_s", "s", quantile(setup_s, 0.5)},
      {"peak_rss_mb", "MiB", peak_rss_mib()},
      // Share of SSD command attempts that did not fail: 1 when no command
      // timed out or failed (and for a run with no SSD traffic).
      {"io_ok_frac", "ratio",
       iof.commands + iof.failed > 0
           ? static_cast<double>(iof.commands) /
                 static_cast<double>(iof.commands + iof.failed)
           : 1.0},
  };
}

std::vector<Metric> per_layer_metrics(const Rig& rig, const RunResult& r,
                                      const RunResult& untraced,
                                      const Tracer& tracer) {
  const double epochs = static_cast<double>(r.timed.size());
  const double workers = static_cast<double>(rig.spec.workers);
  double rounds = 0, sample = 0, compute = 0, allreduce = 0, idle = 0,
         hidden = 0, exposed = 0, modeled = 0, predicted = 0, fetched = 0;
  gnn::FeatureProvider::IoResilience io;
  for (const auto& e : r.timed) {
    const auto& st = e.stats;
    rounds += static_cast<double>(st.rounds);
    allreduce += st.allreduce_s;
    fetched += static_cast<double>(st.fetched_vertices);
    modeled += static_cast<double>(st.comm.modeled_bytes);
    predicted += st.comm.predicted_comm_s;
    for (const auto& t : st.per_worker) {
      sample += t.sample_s;
      compute += t.compute_s;
      hidden += t.hidden_io_s;
      exposed += t.gather_wait_s;
      idle += st.wall_time_s - (t.sample_s + t.gather_issue_s +
                                t.gather_wait_s + t.compute_s + t.optimizer_s);
    }
    io.retries += st.io.retries;
    io.timeouts += st.io.timeouts;
    io.permanent_failures += st.io.permanent_failures;
    io.failovers += st.io.failovers;
    io.device_remaps += st.io.device_remaps;
    io.dedup_saved_reads += st.io.dedup_saved_reads;
    io.ssd_rows += st.io.ssd_rows;
    io.ssd_commands += st.io.ssd_commands;
    io.cache_hits += st.io.cache_hits;
    io.cache_misses += st.io.cache_misses;
    io.cache_evictions += st.io.cache_evictions;
  }
  const double worker_rounds = rounds * workers;
  auto per_epoch = [&](double v) { return ratio(v, epochs); };
  auto ms_per_worker_round = [&](double s) {
    return 1e3 * ratio(s, worker_rounds);
  };
  const auto& b = r.before;
  const auto& a = r.after;
  const IoFailures iof = io_failures(r);
  const auto issue = tracer.durations_ms("iostack.gather_begin");
  const auto wait = tracer.durations_ms("iostack.gather_wait");
  auto median_of = [&](const char* name) {
    return quantile(tracer.durations_ms(name), 0.5);
  };
  const auto& t = rig.times;
  return {
      {"setup.workbench_s", "s", t.workbench_s},
      {"setup.plan_s", "s", t.plan_s},
      {"core.search_s", "s", t.search_s},
      {"core.ddak_s", "s", t.ddak_s},
      {"setup.task_s", "s", t.task_s},
      {"iostack.store_build_s", "s", t.store_build_s},
      {"iostack.cache_warm_s", "s", t.cache_warm_s},
      {"setup.trainer_s", "s", t.trainer_s},
      {"sampling.sample_ms", "ms", ms_per_worker_round(sample)},
      {"iostack.gather_issue_ms.p50", "ms", quantile(issue, 0.5)},
      {"iostack.gather_issue_ms.p90", "ms", quantile(issue, 0.9)},
      {"iostack.gather_wait_ms.p50", "ms", quantile(wait, 0.5)},
      {"iostack.gather_wait_ms.p90", "ms", quantile(wait, 0.9)},
      {"iostack.ssd_cmds", "count/epoch", per_epoch(io.ssd_commands)},
      {"iostack.ssd_rows", "count/epoch", per_epoch(io.ssd_rows)},
      {"iostack.rows_per_cmd", "rows/cmd", io.coalesce_rows_per_cmd()},
      {"iostack.ssd_bytes", "B/epoch",
       per_epoch(a.ssd.bytes_read - b.ssd.bytes_read)},
      {"iostack.dedup_saved", "count/epoch", per_epoch(io.dedup_saved_reads)},
      {"iostack.cache_hit_rate", "ratio",
       ratio(io.cache_hits, io.cache_hits + io.cache_misses)},
      {"iostack.cache_evictions", "count/epoch", per_epoch(io.cache_evictions)},
      {"iostack.gpu_tier_frac", "ratio", ratio(a.gpu_hits - b.gpu_hits, fetched)},
      {"iostack.cpu_tier_frac", "ratio", ratio(a.cpu_hits - b.cpu_hits, fetched)},
      {"iostack.cmd_latency_mean_us", "us",
       1e-3 * ratio(a.lat_sum_ns - b.lat_sum_ns,
                    static_cast<double>(a.lat_count - b.lat_count))},
      {"iostack.cmd_latency_max_us", "us", 1e-3 * a.lat_max_ns},
      {"iostack.retries", "count/epoch", per_epoch(io.retries)},
      {"iostack.timeouts", "count/epoch", per_epoch(io.timeouts)},
      {"iostack.permanent_failures", "count/epoch",
       per_epoch(io.permanent_failures)},
      {"iostack.failovers", "count/epoch", per_epoch(io.failovers)},
      {"iostack.device_remaps", "count/epoch", per_epoch(io.device_remaps)},
      {"iostack.dropped_completions", "count/epoch",
       per_epoch(a.ssd.dropped_completions - b.ssd.dropped_completions)},
      {"io_failed_frac", "ratio", ratio(iof.failed, iof.commands)},
      {"gnn.compute_ms", "ms", ms_per_worker_round(compute)},
      {"gnn.forward_ms", "ms", median_of("gnn.forward")},
      {"gnn.backward_ms", "ms", median_of("gnn.backward")},
      {"gnn.loss_ms", "ms", median_of("gnn.loss")},
      {"gnn.optimizer_ms", "ms", median_of("gnn.optimizer")},
      {"runtime.overlap_ratio", "ratio", ratio(hidden, hidden + exposed)},
      {"runtime.allreduce_ms", "ms", 1e3 * ratio(allreduce, rounds)},
      {"runtime.idle_ms", "ms", ms_per_worker_round(idle)},
      {"comm.modeled_bytes", "B/round", ratio(modeled, rounds)},
      {"comm.predicted_ms", "ms", 1e3 * ratio(predicted, rounds)},
      {"proc.cpu_s_per_kseed", "s/kseed",
       ratio(a.cpu_s - b.cpu_s, static_cast<double>(r.seeds) / 1000.0)},
      {"trace.overhead_ratio", "ratio",
       ratio(r.timed_wall_s, untraced.timed_wall_s)},
  };
}

// --- Output ------------------------------------------------------------------

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_epochs(const char* label, const RunResult& r) {
  for (std::size_t i = 0; i < r.timed.size(); ++i) {
    const auto& e = r.timed[i];
    std::printf("  %s epoch %zu: loss %.6f  rounds %zu  wall %.3f s  "
                "timeouts %llu  overlap %.2f\n",
                label, i + 1, e.stats.mean_loss, e.stats.rounds, e.wall_s,
                static_cast<unsigned long long>(e.stats.io.timeouts),
                e.stats.overlap_ratio);
    std::printf("    %s\n", runtime::io_report(e.stats).c_str());
  }
  std::printf("  %s parts add up: per-worker stage sum + idle = epoch wall; "
              "largest stage-sum excess over wall %.3f ms (tolerance %.1f%% "
              "of wall + %.1f ms)\n",
              label, 1e3 * r.max_parts_excess_s, 100.0 * kPartsTolerance,
              1e3 * kPartsSlackS);
}

/// IO failure counters over the whole run, warm-up epoch included: the
/// per-epoch metrics cover only the timed epochs, and a device can fail
/// during warm-up.
void print_run_io(const char* label, const Rig& rig) {
  if (!rig.array) return;
  std::uint64_t timeouts = 0, permanent = 0, failovers = 0, dropped = 0;
  for (const auto& o : rig.observed) {
    const auto io = o->io_resilience();
    timeouts += io.timeouts;
    permanent += io.permanent_failures;
    failovers += io.failovers;
  }
  for (std::size_t i = 0; i < rig.array->size(); ++i) {
    dropped += rig.array->ssd(i).stats().dropped_completions;
  }
  std::printf("  %s run IO, warm-up included: timeouts %llu  permanent "
              "failures %llu  dropped completions %llu  failovers %llu  "
              "devices failed %zu of %zu\n",
              label, static_cast<unsigned long long>(timeouts),
              static_cast<unsigned long long>(permanent),
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(failovers),
              rig.array->num_failed(), rig.array->size());
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms) {
    const bool modeled = m.name.rfind("comm.", 0) == 0;
    std::printf("  %-30s %16.6g %-12s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), modeled ? " [modeled]" : "");
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& ms) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::string("\"") + ms[i].name +
           "\": {\"value\": " + fmt_number(ms[i].value) + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Checks the trace's shape: every span closed after it opened, and every
/// parent id names a recorded span.
bool trace_well_formed(const Tracer& tracer, std::string& why) {
  const auto spans = tracer.spans();
  std::vector<std::uint64_t> ids;
  for (const auto& s : spans) ids.push_back(s.id);
  std::sort(ids.begin(), ids.end());
  for (const auto& s : spans) {
    if (s.end < s.start) {
      why = "span " + s.name + " ends before it starts";
      return false;
    }
    if (s.parent != 0 &&
        !std::binary_search(ids.begin(), ids.end(), s.parent)) {
      why = "span " + s.name + " has an unknown parent";
      return false;
    }
  }
  if (spans.empty()) why = "no spans recorded";
  return !spans.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  util::set_compute_pool_threads(kComputeThreads);
  WorkloadSpec spec;
  try {
    spec = workload_by_name(args.workload, args.tiny);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const Seeds seeds = Seeds::derive(args.seed);
  const auto prov = provenance(args);
  std::string prov_json = "{";
  for (std::size_t i = 0; i < prov.size(); ++i) {
    prov_json += (i > 0 ? ", \"" : "\"") + json_escape(prov[i].first) +
                 "\": \"" + json_escape(prov[i].second) + "\"";
  }
  prov_json += "}";
  std::printf("provenance %s\n", prov_json.c_str());
  std::printf("workload %s: %s, %d worker(s), %s features, IG scale shift "
              "%d, fan-outs",
              spec.name.c_str(),
              spec.model == gnn::ModelKind::kGat ? "GAT" : "GraphSAGE",
              spec.workers, spec.ssd ? "SSD-backed" : "in-memory",
              spec.scale_shift);
  for (int f : spec.fanouts) std::printf(" %d", f);
  std::printf(", batch %zu\n", spec.batch_size);

  try {
    // Untraced run. With --trace 0 set-up is repeated and its median kept.
    const std::size_t setups = args.trace == 0 ? kSetupRepeats : 1;
    std::vector<double> setup_s;
    std::unique_ptr<Rig> rig;
    for (std::size_t i = 0; i < setups; ++i) {
      rig.reset();
      rig = build_rig(spec, seeds, nullptr);
      setup_s.push_back(rig->times.total_s);
      std::printf("setup %zu: %.3f s (workbench %.3f, plan %.3f, task %.3f, "
                  "store %.3f, cache %.3f, trainer %.3f)\n",
                  i + 1, rig->times.total_s, rig->times.workbench_s,
                  rig->times.plan_s, rig->times.task_s,
                  rig->times.store_build_s, rig->times.cache_warm_s,
                  rig->times.trainer_s);
    }
    if (rig->array) {
      std::printf("graph %zu vertices, %zu training seeds, %zu SSD(s)\n",
                  static_cast<std::size_t>(rig->graph().num_vertices()),
                  rig->train.size(), rig->array->size());
    }
    RunResult untraced = train_and_measure(*rig, nullptr, args.seconds, 0,
                                           args.tiny, "untraced");
    final_gather_check(*rig, seeds.task, untraced);
    print_epochs("untraced", untraced);
    print_run_io("untraced", *rig);
    rig.reset();

    std::vector<std::string> failures = untraced.failures;
    std::size_t attempted = untraced.batches;
    std::size_t failed = untraced.failed_batches;
    if (!args.tiny && untraced.round_ms.size() < kMinRoundSamples) {
      failures.push_back("too few round samples for p90");
    }

    std::vector<Metric> metrics = end_to_end_metrics(untraced, setup_s);
    std::printf("round samples: %zu over %zu timed epochs; host steal "
                "%.1f%% of CPU time\n",
                untraced.round_ms.size(), untraced.timed.size(),
                100.0 * steal_share(untraced.before.ticks,
                                    untraced.after.ticks));
    const IoFailures iof = io_failures(untraced);
    std::printf("io_failed_frac: %llu failed (timeouts + permanent) of %llu "
                "SSD commands = %.6g\n",
                static_cast<unsigned long long>(iof.failed),
                static_cast<unsigned long long>(iof.commands),
                ratio(iof.failed, iof.commands));
    print_table(args.trace == 0 ? "end-to-end metrics (untraced):"
                                : "end-to-end metrics (untraced, one set-up):",
                metrics);
    if (args.trace == 1) {
      Tracer tracer;
      auto traced_rig = build_rig(spec, seeds, &tracer);
      RunResult traced =
          train_and_measure(*traced_rig, &tracer, args.seconds,
                            untraced.timed.size(), args.tiny, "traced");
      print_epochs("traced", traced);
      print_run_io("traced", *traced_rig);
      replay(*traced_rig, &tracer, seeds.model);
      failures.insert(failures.end(), traced.failures.begin(),
                      traced.failures.end());
      attempted += traced.batches;
      failed += traced.failed_batches;

      // Per-epoch loss must be bit-identical between the two runs.
      if (traced.losses.size() != untraced.losses.size()) {
        failures.push_back("traced and untraced runs differ in epoch count");
      } else {
        for (std::size_t i = 0; i < traced.losses.size(); ++i) {
          if (std::memcmp(&traced.losses[i], &untraced.losses[i],
                          sizeof(float)) != 0) {
            failures.push_back("epoch " + std::to_string(i) +
                               " loss differs between traced and untraced");
            failed += traced.epoch_batches[i];
          }
        }
      }
      std::uint64_t checked = 0, mismatched = 0;
      for (const auto& o : traced_rig->observed) {
        checked += o->rows_checked();
        mismatched += o->rows_mismatched();
      }
      std::printf("traced run byte-compared %llu gathered rows, %llu "
                  "mismatched\n",
                  static_cast<unsigned long long>(checked),
                  static_cast<unsigned long long>(mismatched));
      if (checked == 0) failures.push_back("traced run checked no rows");
      if (mismatched > 0) {
        failures.push_back("traced run gathered rows that differ from the "
                           "source features");
      }

      metrics = per_layer_metrics(*traced_rig, traced, untraced, tracer);
      print_table("per-layer metrics (traced run):", metrics);
      std::printf("tracing overhead: traced %.3f s vs untraced %.3f s over "
                  "%zu timed epochs\n",
                  traced.timed_wall_s, untraced.timed_wall_s,
                  traced.timed.size());
      traced_rig.reset();

      std::string why;
      if (!trace_well_formed(tracer, why)) failures.push_back("trace: " + why);
      std::error_code ec;
      const auto dir = std::filesystem::path(args.trace_out).parent_path();
      if (!dir.empty()) std::filesystem::create_directories(dir, ec);
      if (!tracer.write_chrome_json(args.trace_out, prov)) {
        failures.push_back("could not write " + args.trace_out);
      } else {
        std::printf("trace: %zu spans written to %s\n",
                    tracer.spans().size(), args.trace_out.c_str());
      }
    }

    for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("checks: %s\n", failures.empty() ? "all passed" : "FAILED");
    print_result(failures.empty(), attempted, failed, metrics);
    return failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "moment_perfbench: %s\n", e.what());
    return 1;
  }
}
