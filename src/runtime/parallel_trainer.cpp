#include "runtime/parallel_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "gnn/block.hpp"
#include "util/thread_pool.hpp"

namespace moment::runtime {

namespace {

using Clock = std::chrono::steady_clock;
using IoResilience = gnn::FeatureProvider::IoResilience;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

DataParallelTrainer::Replica::Replica(const graph::CsrGraph& graph,
                                      gnn::FeatureProvider& provider,
                                      const gnn::ModelConfig& model_config,
                                      const std::vector<int>& fanouts,
                                      float learning_rate)
    : provider(provider),
      model(model_config),
      optimizer(model.parameters(), learning_rate),
      sampler(graph, fanouts),
      params(model.parameters()) {}

DataParallelTrainer::DataParallelTrainer(
    const graph::CsrGraph& graph,
    std::vector<gnn::FeatureProvider*> providers,
    const gnn::ModelConfig& model_config, std::vector<int> fanouts,
    std::vector<graph::VertexId> train_vertices, float learning_rate,
    std::uint64_t seed, EngineOptions options)
    : seed_(seed),
      options_(options),
      barrier_(static_cast<std::ptrdiff_t>(providers.size() + 1)) {
  if (providers.empty()) {
    throw std::invalid_argument("DataParallelTrainer: no workers");
  }
  gnn::ModelConfig cfg = model_config;
  cfg.seed = seed;
  for (gnn::FeatureProvider* p : providers) {
    replicas_.push_back(
        std::make_unique<Replica>(graph, *p, cfg, fanouts, learning_rate));
  }
  // Even partition of the training vertices (paper Section 3.1).
  for (std::size_t i = 0; i < train_vertices.size(); ++i) {
    replicas_[i % replicas_.size()]->partition.push_back(train_vertices[i]);
  }

  // Flat element space over the replica-0 gradients: the all-reduce chunks
  // over [0, total) with 64-byte-aligned boundaries instead of per-parameter
  // granularity (comm::kAllReduceGrainFloats).
  const auto& params = replicas_[0]->params;
  grad_offsets_.reserve(params.size() + 1);
  grad_offsets_.push_back(0);
  for (const gnn::Param* p : params) {
    grad_offsets_.push_back(grad_offsets_.back() + p->grad.size());
  }

  workers_.reserve(replicas_.size());
  for (std::size_t w = 0; w < replicas_.size(); ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

DataParallelTrainer::~DataParallelTrainer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void DataParallelTrainer::worker_main(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return shutdown_ || epoch_seq_ != seen; });
      if (shutdown_) return;
      seen = epoch_seq_;
    }
    run_worker_epoch(w);
  }
}

void DataParallelTrainer::fetch_batch(std::size_t w,
                                      sampling::BatchIterator& iter,
                                      Prefetch& slot, std::size_t round) {
  Replica& r = *replicas_[w];
  StageTimes& times = r.state.times;
  slot.valid = true;
  slot.ticket = gnn::FeatureProvider::kSyncTicket;
  const auto t0 = Clock::now();
  slot.batch = iter.next();
  if (slot.batch.empty()) {
    times.sample_s += seconds_since(t0);
    return;
  }
  // Per-round sampling stream, keyed by the batch's round (not the round
  // the prefetch was issued in), so prefetching never perturbs the RNG
  // sequence relative to the sequential reference.
  util::Pcg32 rng(seed_ ^ (ctx_.epoch * 7919 + round * 13 + w),
                  0x57524b52);  // "WRKR"
  const auto sg = r.sampler.sample(slot.batch, rng);
  slot.blocks = gnn::build_blocks(sg);
  times.sample_s += seconds_since(t0);

  const auto t1 = Clock::now();
  // The gather writes every row, so x0 is reshaped, not zero-filled.
  slot.x0.reshape(slot.blocks[0].num_src(), r.provider.dim());
  slot.ticket = r.provider.gather_begin(slot.blocks[0].src_ids, slot.x0);
  slot.issued_at = Clock::now();
  times.gather_issue_s += seconds_since(t1);
}

void DataParallelTrainer::run_worker_epoch(std::size_t w) {
  Replica& r = *replicas_[w];
  WorkerState& ws = r.state;
  const bool pipelined = options_.pipeline_depth >= 2;

  sampling::BatchIterator iter(r.partition, ctx_.batch_size,
                               seed_ + ctx_.epoch * 1000 + w);

  for (std::size_t round = 0;; ++round) {
    Prefetch& cur = r.slots[round & 1];
    try {
      if (!cur.valid) fetch_batch(w, iter, cur, round);
      // Issue the next batch's sample + gather before completing the
      // current one: its IO overlaps this round's wait and compute.
      if (pipelined && round + 1 < ctx_.max_rounds) {
        fetch_batch(w, iter, r.slots[(round + 1) & 1], round + 1);
      }
      ws.has_batch = !cur.batch.empty();

      if (!cur.batch.empty()) {
        const auto tw = Clock::now();
        if (cur.ticket != gnn::FeatureProvider::kSyncTicket) {
          ws.times.hidden_io_s +=
              std::chrono::duration<double>(tw - cur.issued_at).count();
          r.provider.gather_wait(cur.ticket);
          cur.ticket = gnn::FeatureProvider::kSyncTicket;
        }
        ws.times.gather_wait_s += seconds_since(tw);

        const auto tc = Clock::now();
        const gnn::LossResult& loss =
            gnn::train_step(r.model, cur.blocks, cur.x0, ctx_.labels);
        ws.times.compute_s += seconds_since(tc);

        ws.loss_sum += loss.loss;
        ws.acc_sum += loss.accuracy;
        ++ws.batches;
        ws.fetched += cur.blocks[0].num_src();
      } else {
        // Empty tail batch: contribute zero gradients to the average.
        r.model.zero_grad();
      }
    } catch (...) {
      if (!ws.error) ws.error = std::current_exception();
      ws.has_batch = false;
      r.model.zero_grad();
    }
    cur.valid = false;

    barrier_.arrive_and_wait();  // grads + has_batch published
    barrier_.arrive_and_wait();  // coordinator all-reduced / decided control
    if (ctx_.control == RoundControl::kStopNow) break;

    const auto ts = Clock::now();
    r.optimizer.step();
    ws.times.optimizer_s += seconds_since(ts);
    if (ctx_.control == RoundControl::kStopAfterStep) break;
  }

  // Drain any prefetched-but-never-computed gather (max_rounds truncation)
  // before the epoch-exit barrier, so the caller may tear down providers.
  for (Prefetch& slot : r.slots) {
    if (slot.valid && slot.ticket != gnn::FeatureProvider::kSyncTicket) {
      try {
        r.provider.gather_wait(slot.ticket);
      } catch (...) {
        if (!ws.error) ws.error = std::current_exception();
      }
    }
    slot.valid = false;
  }
  barrier_.arrive_and_wait();  // epoch drained
}

void DataParallelTrainer::all_reduce_grads() {
  // Average gradients across replicas and write the average back into every
  // replica. The elementwise accumulation order (worker 0, then 1, ... then
  // scale by 1/N) matches the historical sequential implementation, and the
  // chunk geometry — boundaries at multiples of comm::kAllReduceGrainFloats,
  // i.e. 64-byte aligned so concurrent chunks never share a cache line — is
  // the same for the flat path and every CommPlan algorithm. A plan therefore
  // never changes values, only the modeled transport accounted below.
  const std::size_t workers = replicas_.size();
  const float inv = 1.0f / static_cast<float>(workers);
  const std::size_t total = grad_offsets_.back();

  auto reduce_span = [&](std::size_t gbegin, std::size_t gend) {
    std::size_t p = static_cast<std::size_t>(
                        std::upper_bound(grad_offsets_.begin(),
                                         grad_offsets_.end(), gbegin) -
                        grad_offsets_.begin()) -
                    1;
    std::size_t pos = gbegin;
    while (pos < gend) {
      const std::size_t stop = std::min(gend, grad_offsets_[p + 1]);
      const std::size_t off = pos - grad_offsets_[p];
      const std::size_t len = stop - pos;
      float* acc = replicas_[0]->params[p]->grad.data() + off;
      for (std::size_t w = 1; w < workers; ++w) {
        const float* g = replicas_[w]->params[p]->grad.data() + off;
        for (std::size_t i = 0; i < len; ++i) acc[i] += g[i];
      }
      for (std::size_t i = 0; i < len; ++i) acc[i] *= inv;
      for (std::size_t w = 1; w < workers; ++w) {
        std::copy(acc, acc + len, replicas_[w]->params[p]->grad.data() + off);
      }
      pos = stop;
      ++p;
    }
  };

  const std::size_t chunks =
      (total + comm::kAllReduceGrainFloats - 1) / comm::kAllReduceGrainFloats;
  util::parallel_for(0, chunks, 1, [&](std::size_t cb, std::size_t ce) {
    reduce_span(cb * comm::kAllReduceGrainFloats,
                std::min(total, ce * comm::kAllReduceGrainFloats));
  });

  if (options_.comm_plan != nullptr && options_.link_counters != nullptr) {
    options_.comm_plan->account(static_cast<double>(total) * sizeof(float),
                                *options_.link_counters);
  }
}

IoResilience DataParallelTrainer::io_totals() const {
  IoResilience total;
  for (const auto& r : replicas_) {
    for_each_field(total, r->provider.io_resilience(),
                   [](auto& acc, auto v, bool gauge) {
                     acc = gauge ? std::max(acc, v) : acc + v;
                   });
  }
  return total;
}

EpochStats DataParallelTrainer::train_epoch(
    std::span<const std::int32_t> labels, std::size_t batch_size,
    std::size_t max_rounds) {
  const auto t0 = Clock::now();
  const IoResilience io_before = io_totals();
  std::vector<std::uint64_t> links_before;
  if (options_.link_counters != nullptr) {
    links_before = options_.link_counters->snapshot();
  }

  for (auto& r : replicas_) r->state = WorkerState{};
  ctx_.labels = labels;
  ctx_.batch_size = batch_size;
  ctx_.max_rounds = max_rounds;
  ctx_.epoch = ++epoch_counter_;
  ctx_.control = RoundControl::kContinue;

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++epoch_seq_;
  }
  cv_.notify_all();

  EpochStats stats;
  double allreduce_s = 0.0;
  for (std::size_t round = 0;; ++round) {
    barrier_.arrive_and_wait();  // workers computed; grads + flags ready
    bool any = false;
    bool failed = false;
    for (const auto& r : replicas_) {
      any |= r->state.has_batch;
      failed |= static_cast<bool>(r->state.error);
    }
    if (!any || failed) {
      ctx_.control = RoundControl::kStopNow;
    } else {
      const auto ta = Clock::now();
      all_reduce_grads();
      allreduce_s += seconds_since(ta);
      ++stats.rounds;
      ctx_.control = round + 1 >= max_rounds ? RoundControl::kStopAfterStep
                                             : RoundControl::kContinue;
    }
    barrier_.arrive_and_wait();  // control + averaged grads published
    if (ctx_.control != RoundControl::kContinue) break;
  }
  barrier_.arrive_and_wait();  // epoch drained: workers fully idle

  double loss_sum = 0.0, acc_sum = 0.0, hidden = 0.0, exposed = 0.0;
  stats.per_worker.reserve(replicas_.size());
  for (const auto& r : replicas_) {
    const WorkerState& ws = r->state;
    if (ws.error) std::rethrow_exception(ws.error);
    loss_sum += ws.loss_sum;
    acc_sum += ws.acc_sum;
    stats.batches += ws.batches;
    stats.fetched_vertices += ws.fetched;
    stats.per_worker.push_back(ws.times);
    auto& mx = stats.stage_max;
    mx.sample_s = std::max(mx.sample_s, ws.times.sample_s);
    mx.gather_issue_s = std::max(mx.gather_issue_s, ws.times.gather_issue_s);
    mx.gather_wait_s = std::max(mx.gather_wait_s, ws.times.gather_wait_s);
    mx.compute_s = std::max(mx.compute_s, ws.times.compute_s);
    mx.optimizer_s = std::max(mx.optimizer_s, ws.times.optimizer_s);
    mx.hidden_io_s = std::max(mx.hidden_io_s, ws.times.hidden_io_s);
    hidden += ws.times.hidden_io_s;
    exposed += ws.times.gather_wait_s;
  }
  if (stats.batches > 0) {
    stats.mean_loss = static_cast<float>(loss_sum / stats.batches);
    stats.mean_accuracy = static_cast<float>(acc_sum / stats.batches);
  }
  stats.allreduce_s = allreduce_s;
  if (hidden + exposed > 0.0) {
    stats.overlap_ratio = hidden / (hidden + exposed);
  }

  stats.io = io_totals();
  for_each_field(stats.io, io_before, [](auto& after, auto before, bool gauge) {
    if (!gauge) after -= before;
  });

  if (const comm::CommPlan* plan = options_.comm_plan) {
    stats.comm.algorithm = comm::to_string(plan->algo);
    stats.comm.payload_bytes = grad_offsets_.back() * sizeof(float);
    stats.comm.predicted_comm_s =
        static_cast<double>(stats.rounds) *
        plan->predicted_seconds(static_cast<double>(stats.comm.payload_bytes));
    if (options_.link_counters != nullptr) {
      const auto links_after = options_.link_counters->snapshot();
      for (std::size_t l = 0; l * 2 < links_after.size(); ++l) {
        const std::uint64_t ab = links_after[2 * l] - links_before[2 * l];
        const std::uint64_t ba =
            links_after[2 * l + 1] - links_before[2 * l + 1];
        if (ab == 0 && ba == 0) continue;
        CommLinkBytes entry;
        entry.link = static_cast<topology::LinkId>(l);
        entry.ab = ab;
        entry.ba = ba;
        for (const comm::PlanLinkInfo& info : plan->links) {
          if (info.link == entry.link) {
            entry.label = info.label;
            break;
          }
        }
        if (entry.label.empty()) {
          entry.label = "link" + std::to_string(l);
        }
        stats.comm.modeled_bytes += ab + ba;
        stats.comm.links.push_back(std::move(entry));
      }
    }
  }

  stats.wall_time_s = seconds_since(t0);
  return stats;
}

bool DataParallelTrainer::replicas_in_sync(float tolerance) const {
  const auto& ref = replicas_[0]->params;
  for (std::size_t w = 1; w < replicas_.size(); ++w) {
    const auto& params = replicas_[w]->params;
    for (std::size_t p = 0; p < ref.size(); ++p) {
      const auto& a = ref[p]->value;
      const auto& b = params[p]->value;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::abs(a.data()[i] - b.data()[i]) > tolerance) return false;
      }
    }
  }
  return true;
}

std::string io_report(const EpochStats& stats) {
  const auto& io = stats.io;
  char buf[256];
  std::string out = "io:";
  // Share of the epoch's gathered rows each source served; elided for
  // providers that count none (e.g. in-memory features).
  const std::uint64_t sourced = io.gpu_hits + io.peer_rows + io.cpu_hits +
                                io.remote_hbm_host_rows + io.cache_hits +
                                io.dedup_saved_reads + io.ssd_rows;
  if (sourced > 0 && stats.fetched_vertices > 0) {
    const auto pct = [&](std::uint64_t n) {
      return 100.0 * static_cast<double>(n) /
             static_cast<double>(stats.fetched_vertices);
    };
    std::snprintf(buf, sizeof(buf),
                  " rows GPU %.1f%% peer %.1f%% CPU %.1f%% host %.1f%% "
                  "cache %.1f%% reuse %.1f%% SSD %.1f%% |",
                  pct(io.gpu_hits), pct(io.peer_rows), pct(io.cpu_hits),
                  pct(io.remote_hbm_host_rows), pct(io.cache_hits),
                  pct(io.dedup_saved_reads), pct(io.ssd_rows));
    out += buf;
  }
  // Naive = one read per SSD-resident row that reached the cache, an idle
  // slot's pages or the SSDs.
  const std::uint64_t naive =
      io.ssd_rows + io.cache_hits + io.dedup_saved_reads;
  std::snprintf(buf, sizeof(buf),
                " cmds %llu (rows %llu, %.2f rows/cmd, cache -%llu)",
                static_cast<unsigned long long>(io.ssd_commands),
                static_cast<unsigned long long>(io.ssd_rows),
                io.coalesce_rows_per_cmd(),
                static_cast<unsigned long long>(io.cache_hits));
  out += buf;
  if (io.cache_hits + io.cache_misses > 0) {
    std::snprintf(buf, sizeof(buf), "  cache %.1f%% hit",
                  100.0 * static_cast<double>(io.cache_hits) /
                      static_cast<double>(io.cache_hits + io.cache_misses));
    out += buf;
  }
  if (naive > 0 && io.ssd_commands < naive) {
    std::snprintf(buf, sizeof(buf), "  (%.1f%% fewer commands than naive)",
                  100.0 * (1.0 - static_cast<double>(io.ssd_commands) /
                                     static_cast<double>(naive)));
    out += buf;
  }
  // Resilience (RetryStats-derived) — elided when the epoch was fault-free.
  if (io.retries + io.timeouts + io.permanent_failures + io.failovers +
          io.device_remaps + io.devices_degraded + io.devices_failed >
      0) {
    std::snprintf(
        buf, sizeof(buf),
        "  faults: retries %llu timeouts %llu perm %llu failovers %llu "
        "remaps %llu degraded %u failed %u",
        static_cast<unsigned long long>(io.retries),
        static_cast<unsigned long long>(io.timeouts),
        static_cast<unsigned long long>(io.permanent_failures),
        static_cast<unsigned long long>(io.failovers),
        static_cast<unsigned long long>(io.device_remaps),
        io.devices_degraded, io.devices_failed);
    out += buf;
  }
  return out;
}

std::string comm_report(const EpochStats& stats) {
  const auto& c = stats.comm;
  if (c.algorithm.empty()) return {};
  char buf[256];
  std::string out = "comm: " + c.algorithm;
  std::snprintf(buf, sizeof(buf),
                " allreduce %.2f MiB/round, predicted %.3f ms/epoch",
                static_cast<double>(c.payload_bytes) / (1024.0 * 1024.0),
                c.predicted_comm_s * 1e3);
  out += buf;
  if (stats.io.peer_rows + stats.io.remote_hbm_host_rows > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  peer rows %llu (%.2f MiB), remote-host rows %llu",
                  static_cast<unsigned long long>(stats.io.peer_rows),
                  static_cast<double>(stats.io.peer_bytes) / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(
                      stats.io.remote_hbm_host_rows));
    out += buf;
  }
  if (!c.links.empty()) {
    out += "  links:";
    for (const CommLinkBytes& l : c.links) {
      std::snprintf(buf, sizeof(buf), " %s %.1f/%.1f MiB", l.label.c_str(),
                    static_cast<double>(l.ab) / (1024.0 * 1024.0),
                    static_cast<double>(l.ba) / (1024.0 * 1024.0));
      out += buf;
    }
  }
  return out;
}

}  // namespace moment::runtime
