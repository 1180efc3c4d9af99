// Benchmark for the gather pipeline's IO reduction — run coalescing plus
// the shared hot-row cache — on a power-law (Zipf alpha = 1.2) workload, the
// skew regime the Moment paper's IOPS argument assumes.
//
// Three legs run the identical batch stream against fresh stores:
//   no-cache             a store without a row cache (coalescing and
//                        idle-slot page reuse only); its SSD rows plus the
//                        rows it reused are the naive one-command-per-
//                        occurrence count
//   cache                a hotness-warmed static row cache
//   cache+device-failure the cache leg with a mid-run hard device failure,
//                        asserting the failover path stays byte-identical
// Two more legs run the same stream with vertex ids scattered by a fixed
// permutation, so the hot vertices are not the low ids:
//   scattered            no warm: each SSD keeps its rows in id order
//   scattered+packed     warmed at cache capacity 0, which only repacks
//                        each SSD's pages in hotness order
//
// The exit status is the verdict: byte-identity on every leg, the cache
// leg's rows conserved against the naive count, >= 30% fewer SSD commands
// than naive, fewer device reads with the cache than without, one remap
// in the chaos leg with exactly the cache leg's cache hits (a remap moves
// rows between devices; the cache, keyed by vertex, keeps serving), and no
// more device bytes packed than scattered. Every check counts; none times.
// Gather wall time is perfbench's to measure.
//
// Usage:
//   bench_cache [--out FILE]   full run, writes BENCH_cache.json
//   bench_cache --smoke        small shapes, same checks, no JSON

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "gnn/synthetic.hpp"
#include "graph/generators.hpp"
#include "iostack/fault_injector.hpp"
#include "iostack/feature_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace moment;
using iostack::BinBacking;
using iostack::TieredFeatureClient;
using iostack::TieredFeatureStore;

struct Shape {
  std::size_t num_vertices = 8192;
  std::size_t num_edges = 60000;
  std::size_t dim = 64;
  std::size_t gpu_rows = 256;  // hottest ranks, statically placed (DDAK)
  std::size_t cpu_rows = 256;  // next-hottest band
  /// Covers the hottest quarter of the SSD-resident tail: under Zipf 1.2
  /// that band absorbs roughly two thirds of the SSD-tier draws.
  std::size_t cache_rows = 2048;
  std::size_t batches = 64;
  std::size_t batch_size = 1024;
};

/// 256 B rows, 16 to a page: the SSD tier spans 57 pages, more than two
/// batches touch, so the cache leg still reads fewer pages than no-cache.
Shape smoke_shape() {
  Shape s;
  s.num_vertices = 1024;
  s.num_edges = 6000;
  s.dim = 64;
  s.gpu_rows = 64;
  s.cpu_rows = 64;
  s.cache_rows = 384;
  s.batches = 8;
  s.batch_size = 256;
  return s;
}

/// The shared workload: features plus a power-law batch stream. Vertex id
/// equals hotness rank (DDAK places by descending hotness), so the GPU/CPU
/// tiers hold the hottest bands and the cache competes for the SSD tail.
struct Workload {
  gnn::SyntheticTask task;
  std::vector<std::int32_t> bov;
  std::vector<BinBacking> bins;
  std::vector<graph::VertexId> hot_order;  // ascending id = descending rank
  std::vector<std::vector<graph::VertexId>> batches;
};

Workload make_workload(const Shape& shape) {
  graph::RmatParams gp;
  gp.num_vertices = shape.num_vertices;
  gp.num_edges = shape.num_edges;
  const auto g = graph::generate_rmat(gp);

  Workload w{gnn::make_synthetic_task(g, 8, shape.dim, 0.3, 17), {}, {}, {}, {}};
  w.bins = {{BinBacking::Kind::kGpuCache, -1},
            {BinBacking::Kind::kCpuCache, -1},
            {BinBacking::Kind::kSsd, 0},
            {BinBacking::Kind::kSsd, 1},
            {BinBacking::Kind::kSsd, 2}};
  w.bov.resize(shape.num_vertices);
  for (std::size_t v = 0; v < shape.num_vertices; ++v) {
    if (v < shape.gpu_rows) {
      w.bov[v] = 0;
    } else if (v < shape.gpu_rows + shape.cpu_rows) {
      w.bov[v] = 1;
    } else {
      w.bov[v] = static_cast<std::int32_t>(2 + v % 3);
    }
  }
  w.hot_order.resize(shape.num_vertices);
  for (std::size_t v = 0; v < shape.num_vertices; ++v) {
    w.hot_order[v] = static_cast<graph::VertexId>(v);
  }

  const util::ZipfSampler zipf(shape.num_vertices, 1.2);
  util::Pcg32 rng(41);
  w.batches.resize(shape.batches);
  for (auto& batch : w.batches) {
    batch.resize(shape.batch_size);
    for (auto& v : batch) {
      v = static_cast<graph::VertexId>(zipf.sample(rng));
    }
  }
  return w;
}

/// `w` with rank r moved to vertex perm[r] for a fixed random permutation:
/// the same placement by rank and the same batch stream, relabelled. Rows
/// keep their features, so gathers still compare against `task.features`.
Workload scatter(const Workload& w) {
  std::vector<graph::VertexId> perm(w.bov.size());
  std::iota(perm.begin(), perm.end(), graph::VertexId{0});
  util::Pcg32 rng(43);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1],
              perm[rng.next_below(static_cast<std::uint32_t>(i))]);
  }
  Workload out{w.task, std::vector<std::int32_t>(w.bov.size()), w.bins,
               perm, w.batches};
  for (std::size_t r = 0; r < perm.size(); ++r) out.bov[perm[r]] = w.bov[r];
  for (auto& batch : out.batches) {
    for (auto& v : batch) v = perm[v];
  }
  return out;
}

struct ConfigResult {
  std::string name;
  gnn::FeatureProvider::IoResilience stats;
  std::uint64_t device_reads = 0;
  std::uint64_t device_bytes = 0;
  std::uint64_t ssd1_reads = 0;  // reads SSD 1 served
  bool byte_identical = true;
};

/// Runs the batch stream on a fresh store, warmed from `w.hot_order` with
/// a cache of `warm_cache_rows` rows unless that is empty. SSD 1 hard-fails
/// after `ssd1_fail_after` served reads.
ConfigResult run_config(const Shape& shape, const Workload& w,
                        const std::string& name,
                        std::optional<std::size_t> warm_cache_rows,
                        std::uint64_t ssd1_fail_after = UINT64_MAX) {
  iostack::SsdOptions ssd_opts;
  ssd_opts.capacity_bytes = 64ull << 20;
  iostack::SsdArray array(3, ssd_opts);
  TieredFeatureStore store(w.task.features, w.bov, w.bins, array);
  if (warm_cache_rows) {
    store.enable_row_cache({*warm_cache_rows});
    store.warm_row_cache(w.hot_order);
  }
  if (ssd1_fail_after != UINT64_MAX) {
    iostack::FaultProfile fp;
    fp.fail_after_reads = ssd1_fail_after;
    array.ssd(1).inject_faults(fp);
  }

  iostack::IoEngineOptions io;
  io.max_retries = 2;
  TieredFeatureClient client(store, 256, io);
  array.start_all();

  ConfigResult result;
  result.name = name;
  gnn::Tensor out(shape.batch_size, shape.dim);

  // One pass over the batch stream, byte-identity checked on every row.
  for (const auto& batch : w.batches) {
    client.gather(batch, out);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto got = out.row(i);
      const auto want = w.task.features.row(batch[i]);
      if (std::memcmp(got.data(), want.data(),
                      got.size() * sizeof(float)) != 0) {
        result.byte_identical = false;
      }
    }
  }
  result.stats = client.io_resilience();
  for (std::size_t s = 0; s < array.size(); ++s) {
    result.device_reads += array.ssd(s).stats().reads;
    result.device_bytes += array.ssd(s).stats().bytes_read;
  }
  result.ssd1_reads = array.ssd(1).stats().reads;
  array.stop_all();
  return result;
}

void print_result(const ConfigResult& r) {
  const auto& s = r.stats;
  std::printf(
      "  %-20s cmds %8llu  rows %8llu (%.2f rows/cmd)  reused %8llu  "
      "device reads %8llu  cache %llu/%llu  pages %llu (%.1f MiB)  %s\n",
      r.name.c_str(),
      static_cast<unsigned long long>(s.ssd_commands),
      static_cast<unsigned long long>(s.ssd_rows), s.coalesce_rows_per_cmd(),
      static_cast<unsigned long long>(s.dedup_saved_reads),
      static_cast<unsigned long long>(r.device_reads),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_hits + s.cache_misses),
      static_cast<unsigned long long>(r.device_bytes / iostack::kPageBytes),
      static_cast<double>(r.device_bytes) / (1024.0 * 1024.0),
      r.byte_identical ? "bytes OK" : "BYTE MISMATCH");
}

void emit_json_config(FILE* f, const ConfigResult& r, bool last) {
  const auto& s = r.stats;
  const double denom = static_cast<double>(s.cache_hits + s.cache_misses);
  std::fprintf(
      f,
      "    {\"name\": \"%s\", \"ssd_commands\": %llu, "
      "\"ssd_rows\": %llu, \"rows_per_cmd\": %.3f, "
      "\"coalesced_commands\": %llu, \"dedup_saved_reads\": %llu, "
      "\"cache_hits\": %llu, \"cache_misses\": %llu, \"cache_hit_rate\": "
      "%.4f, \"device_reads\": %llu, \"device_bytes\": %llu, "
      "\"byte_identical\": %s}%s\n",
      r.name.c_str(), static_cast<unsigned long long>(s.ssd_commands),
      static_cast<unsigned long long>(s.ssd_rows), s.coalesce_rows_per_cmd(),
      static_cast<unsigned long long>(s.coalesced_commands),
      static_cast<unsigned long long>(s.dedup_saved_reads),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses),
      denom > 0.0 ? static_cast<double>(s.cache_hits) / denom : 0.0,
      static_cast<unsigned long long>(r.device_reads),
      static_cast<unsigned long long>(r.device_bytes),
      r.byte_identical ? "true" : "false", last ? "" : ",");
}

int run(const Shape& shape, bool smoke, const std::string& out_path) {
  const Workload w = make_workload(shape);
  // A client's two staging slots keep every page the last two reading
  // batches touched, so the SSD tier must span more pages than that for
  // the legs to differ in what they read.
  std::uint64_t tier_pages = 0;
  for (std::int32_t bin = 2; bin < 5; ++bin) {
    tier_pages += TieredFeatureStore::pages_for_rows(
        shape.dim, static_cast<std::uint64_t>(
                       std::count(w.bov.begin(), w.bov.end(), bin)));
  }
  std::printf("bench_cache: %zu vertices, dim %zu, SSD tier %llu pages, %zu "
              "batches x %zu (Zipf 1.2)%s\n",
              shape.num_vertices, shape.dim,
              static_cast<unsigned long long>(tier_pages), shape.batches,
              shape.batch_size, smoke ? " [smoke]" : "");

  const ConfigResult base = run_config(shape, w, "no-cache", std::nullopt);
  const ConfigResult best = run_config(shape, w, "cache", shape.cache_rows);
  // SSD 1 fails halfway through the reads it serves in the cache leg, so
  // the failure lands mid-run whatever the leg's read count.
  const ConfigResult fault = run_config(shape, w, "cache+device-failure",
                                        shape.cache_rows, best.ssd1_reads / 2);
  const Workload scattered = scatter(w);
  const ConfigResult by_id =
      run_config(shape, scattered, "scattered", std::nullopt);
  const ConfigResult packed = run_config(shape, scattered, "scattered+packed", 0);
  for (const ConfigResult* r : {&base, &best, &fault, &by_id, &packed}) {
    print_result(*r);
  }

  // Without a cache every SSD-resident occurrence is read or copied from
  // an idle slot's pages, so those two counts of the no-cache leg add up to
  // the naive command count.
  const std::uint64_t naive =
      base.stats.ssd_rows + base.stats.dedup_saved_reads;
  const double cmd_reduction =
      naive > 0 ? 1.0 - static_cast<double>(best.stats.ssd_commands) /
                            static_cast<double>(naive)
                : 0.0;
  std::printf("\n  cache leg: %.1f%% fewer SSD commands than naive, %llu "
              "device reads vs %llu without the cache\n",
              cmd_reduction * 100.0,
              static_cast<unsigned long long>(best.device_reads),
              static_cast<unsigned long long>(base.device_reads));
  std::printf("  chaos leg: SSD 1 fails after %llu of its %llu reads, %s, "
              "%llu remap(s), %llu cache hits (cache leg %llu)\n",
              static_cast<unsigned long long>(best.ssd1_reads / 2),
              static_cast<unsigned long long>(best.ssd1_reads),
              fault.byte_identical ? "byte-identical" : "BYTE MISMATCH",
              static_cast<unsigned long long>(fault.stats.device_remaps),
              static_cast<unsigned long long>(fault.stats.cache_hits),
              static_cast<unsigned long long>(best.stats.cache_hits));
  const double packed_byte_reduction =
      by_id.device_bytes > 0
          ? 1.0 - static_cast<double>(packed.device_bytes) /
                      static_cast<double>(by_id.device_bytes)
          : 0.0;
  std::printf("  packing: %.1f%% fewer device bytes packed in hotness order "
              "than in id order on scattered ids\n",
              packed_byte_reduction * 100.0);

  bool pass = base.byte_identical && best.byte_identical &&
              fault.byte_identical && by_id.byte_identical &&
              packed.byte_identical;
  if (!pass) std::printf("FAIL: a leg returned wrong bytes\n");
  if (best.stats.ssd_rows + best.stats.cache_hits +
          best.stats.dedup_saved_reads !=
      naive) {
    std::printf("FAIL: cache leg rows do not add up to the naive count\n");
    pass = false;
  }
  if (cmd_reduction < 0.30) {
    std::printf("FAIL: command reduction below 30%%\n");
    pass = false;
  }
  if (best.device_reads >= base.device_reads) {
    std::printf("FAIL: the cache leg reads the devices no less than "
                "no-cache\n");
    pass = false;
  }
  if (fault.stats.device_remaps != 1) {
    std::printf("FAIL: chaos leg did not remap exactly one device\n");
    pass = false;
  }
  if (fault.stats.cache_hits != best.stats.cache_hits) {
    std::printf("FAIL: the failover changed what the cache serves\n");
    pass = false;
  }
  if (packed.device_bytes > by_id.device_bytes) {
    std::printf("FAIL: hotness packing reads more device bytes than id "
                "order\n");
    pass = false;
  }

  if (!smoke) {
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"workload\": {\"num_vertices\": %zu, \"dim\": %zu, "
                 "\"batches\": %zu, \"batch_size\": %zu, \"zipf_alpha\": 1.2, "
                 "\"cache_rows\": %zu},\n  \"configs\": [\n",
                 shape.num_vertices, shape.dim, shape.batches,
                 shape.batch_size, shape.cache_rows);
    emit_json_config(f, base, false);
    emit_json_config(f, best, false);
    emit_json_config(f, fault, false);
    emit_json_config(f, by_id, false);
    emit_json_config(f, packed, true);
    std::fprintf(
        f,
        "  ],\n  \"summary\": {\"command_reduction_vs_naive\": %.4f, "
        "\"fault_run_byte_identical\": %s, "
        "\"fault_device_remaps\": %llu, "
        "\"packed_byte_reduction\": %.4f, \"pass\": %s}\n}\n",
        cmd_reduction, fault.byte_identical ? "true" : "false",
        static_cast<unsigned long long>(fault.stats.device_remaps),
        packed_byte_reduction, pass ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_cache.json";
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
  return run(smoke ? smoke_shape() : Shape{}, smoke, out_path);
}
