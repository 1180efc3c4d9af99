#include "iostack/feature_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "ddak/ddak.hpp"

namespace moment::iostack {
namespace {

/// Copies `src` into output row `out_row` and counts it in `counter`.
void serve(std::span<const float> src, gnn::Tensor& out, std::size_t out_row,
           std::uint64_t& counter) {
  std::copy(src.begin(), src.end(), out.row(out_row).begin());
  ++counter;
}

}  // namespace

std::uint64_t TieredFeatureStore::pack(const Location& loc) noexcept {
  return static_cast<std::uint64_t>(loc.index) |
         (static_cast<std::uint64_t>(
              static_cast<std::uint16_t>(loc.ssd + 1))
          << 32) |
         (static_cast<std::uint64_t>(static_cast<int>(loc.kind)) << 48);
}

TieredFeatureStore::Location TieredFeatureStore::unpack(
    std::uint64_t bits) noexcept {
  Location loc;
  loc.index = static_cast<std::uint32_t>(bits & 0xffffffffu);
  loc.ssd = static_cast<std::int32_t>((bits >> 32) & 0xffffu) - 1;
  loc.kind = static_cast<BinBacking::Kind>(static_cast<int>(bits >> 48));
  return loc;
}

TieredFeatureStore::Location TieredFeatureStore::location(
    graph::VertexId v) const noexcept {
  return unpack(loc_[v].load(std::memory_order_acquire));
}

TieredFeatureStore::TieredFeatureStore(
    const gnn::Tensor& features, std::span<const std::int32_t> bin_of_vertex,
    std::span<const BinBacking> bins, SsdArray& array)
    : dim_(features.cols()), array_(&array),
      bins_(bins.begin(), bins.end()),
      bin_of_vertex_(bin_of_vertex.begin(), bin_of_vertex.end()) {
  const std::size_t n = features.rows();
  if (bin_of_vertex.size() != n) {
    throw std::invalid_argument("TieredFeatureStore: placement size mismatch");
  }
  row_bytes_ = dim_ * sizeof(float);
  pages_per_row_ =
      std::max<std::size_t>(1, (row_bytes_ + kPageBytes - 1) / kPageBytes);
  rows_per_page_ = pages_per_row_ > 1
                       ? 1
                       : kPageBytes / std::max<std::size_t>(row_bytes_, 1);
  for (const BinBacking& b : bins) {  // a gather reads a row in one command
    if (b.kind == BinBacking::Kind::kSsd &&
        pages_per_row_ * kPageBytes > kMaxTransferBytes) {
      throw std::invalid_argument(
          "TieredFeatureStore: row wider than one SSD transfer");
    }
  }

  // First pass: count rows per tier / per SSD. Rows in owned GPU-HBM bins
  // (BinBacking::gpu >= 0) also get a host authoritative copy: it is the
  // storage-path fallback remote clients use when peer routing is off.
  std::size_t gpu_rows = 0, cpu_rows = 0, host_total = 0;
  std::vector<std::uint32_t> ssd_rows(array.size(), 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto b = static_cast<std::size_t>(bin_of_vertex[v]);
    if (b >= bins.size()) {
      throw std::out_of_range("TieredFeatureStore: bin index");
    }
    switch (bins[b].kind) {
      case BinBacking::Kind::kGpuCache:
        ++gpu_rows;
        if (bins[b].gpu >= 0) ++host_total;
        break;
      case BinBacking::Kind::kCpuCache: ++cpu_rows; break;
      case BinBacking::Kind::kSsd: {
        const auto s = static_cast<std::size_t>(bins[b].ssd);
        if (s >= array.size()) {
          throw std::out_of_range("TieredFeatureStore: ssd index");
        }
        ++ssd_rows[s];
        ++host_total;
        break;
      }
    }
  }
  for (std::size_t s = 0; s < array.size(); ++s) {
    if (ssd_rows[s] > slot_capacity(s)) {
      throw std::invalid_argument(
          "TieredFeatureStore: SSD capacity too small for placement");
    }
  }

  gpu_cache_ = gnn::Tensor(gpu_rows, dim_);
  cpu_cache_ = gnn::Tensor(cpu_rows, dim_);
  host_copy_ = gnn::Tensor(host_total, dim_);
  host_index_.assign(n, -1);
  loc_ = std::vector<std::atomic<std::uint64_t>>(n);
  ssd_next_slot_.assign(array.size(), 0);
  device_remapped_.assign(array.size(), false);

  std::uint32_t gpu_cursor = 0, cpu_cursor = 0;
  std::size_t host_cursor = 0;
  std::vector<std::uint32_t> ssd_cursor(array.size(), 0);
  for (std::size_t v = 0; v < n; ++v) {
    const BinBacking& bin = bins[static_cast<std::size_t>(bin_of_vertex[v])];
    Location loc;
    loc.kind = bin.kind;
    loc.ssd = bin.ssd;
    loc.index = 0;
    const auto src = features.row(v);
    switch (bin.kind) {
      case BinBacking::Kind::kGpuCache:
        loc.index = gpu_cursor;
        loc.ssd = bin.gpu;  // owning GPU ordinal (-1 = replicated)
        std::copy(src.begin(), src.end(), gpu_cache_.row(gpu_cursor).begin());
        ++gpu_cursor;
        if (bin.gpu >= 0) {
          host_index_[v] = static_cast<std::int64_t>(host_cursor);
          std::copy(src.begin(), src.end(),
                    host_copy_.row(host_cursor).begin());
          ++host_cursor;
        }
        break;
      case BinBacking::Kind::kCpuCache:
        loc.index = cpu_cursor;
        std::copy(src.begin(), src.end(), cpu_cache_.row(cpu_cursor).begin());
        ++cpu_cursor;
        break;
      case BinBacking::Kind::kSsd: {
        const auto s = static_cast<std::size_t>(bin.ssd);
        loc.index = ssd_cursor[s];
        write_slot(s, loc.index, src);
        ++ssd_cursor[s];
        host_index_[v] = static_cast<std::int64_t>(host_cursor);
        std::copy(src.begin(), src.end(),
                  host_copy_.row(host_cursor).begin());
        ++host_cursor;
        break;
      }
    }
    loc_[v].store(pack(loc), std::memory_order_relaxed);
  }
  for (std::size_t s = 0; s < array.size(); ++s) {
    ssd_next_slot_[s] = ssd_cursor[s];
  }
}

std::uint64_t TieredFeatureStore::slot_capacity(
    std::size_t ssd) const noexcept {
  return array_->ssd(ssd).capacity() / (pages_per_row_ * kPageBytes) *
         rows_per_page_;
}

void TieredFeatureStore::write_slot(std::size_t ssd, std::uint64_t slot,
                                    std::span<const float> row) {
  array_->ssd(ssd).write(slot_offset(slot),
                         reinterpret_cast<const std::byte*>(row.data()),
                         row.size_bytes());
}

void TieredFeatureStore::enable_row_cache(const RowCacheOptions& options) {
  const std::size_t cap = options.capacity_rows;
  cache_rows_ = gnn::Tensor(cap, dim_);
  cache_slot_.assign(cap > 0 ? loc_.size() : 0, -1);
}

std::size_t TieredFeatureStore::warm_row_cache(
    std::span<const graph::VertexId> by_hotness_desc) {
  std::lock_guard<std::mutex> lock(remap_mu_);
  std::fill(cache_slot_.begin(), cache_slot_.end(), -1);
  std::vector<bool> packs(array_->size());
  for (std::size_t s = 0; s < packs.size(); ++s) {
    packs[s] = array_->health(s) != DeviceHealth::kFailed;
  }
  // Rewrites each SSD-resident row of a device that has not failed to the
  // next slot of its device, so the hottest rows share the first pages.
  // Locations are published only after every write.
  std::vector<std::uint32_t> next(array_->size(), 0);
  std::vector<std::pair<graph::VertexId, Location>> placed;
  const auto pack_row = [&](graph::VertexId v, Location loc) {
    const auto s = static_cast<std::size_t>(loc.ssd);
    if (!packs[s]) return;
    loc.index = next[s]++;
    write_slot(s, loc.index, authoritative_row(v));
    placed.push_back({v, loc});
  };

  std::vector<bool> ranked(loc_.size(), false);
  std::size_t filled = 0;
  for (graph::VertexId v : by_hotness_desc) {
    if (v >= ranked.size() || ranked[v]) continue;
    ranked[v] = true;
    // Only SSD-resident vertices belong in the cache; the static tiers
    // already hold the rest in DRAM/HBM (owned-HBM rows have a host copy
    // too, but caching them would shadow the peer path).
    const Location loc = location(v);
    if (loc.kind != BinBacking::Kind::kSsd) continue;
    if (filled < cache_rows_.rows()) {
      const auto src = authoritative_row(v);
      std::copy(src.begin(), src.end(), cache_rows_.row(filled).begin());
      cache_slot_[v] = static_cast<std::int32_t>(filled);
      ++filled;
    }
    pack_row(v, loc);
  }
  for (graph::VertexId v = 0; v < ranked.size(); ++v) {
    if (ranked[v]) continue;
    const Location loc = location(v);
    if (loc.kind == BinBacking::Kind::kSsd) pack_row(v, loc);
  }
  for (const auto& [v, loc] : placed) {
    loc_[v].store(pack(loc), std::memory_order_release);
  }
  for (std::size_t s = 0; s < packs.size(); ++s) {
    if (packs[s]) ssd_next_slot_[s] = next[s];
  }
  layout_version_.fetch_add(1, std::memory_order_release);
  return filled;
}

std::span<const float> TieredFeatureStore::authoritative_row(
    graph::VertexId v) const {
  const std::int64_t idx = host_index_[v];
  if (idx < 0) {
    throw std::logic_error(
        "TieredFeatureStore::authoritative_row: vertex has no host copy");
  }
  return host_copy_.row(static_cast<std::size_t>(idx));
}

bool TieredFeatureStore::remap_failed_device(std::size_t ssd) {
  std::lock_guard<std::mutex> lock(remap_mu_);
  if (ssd >= array_->size() || device_remapped_[ssd]) return false;
  device_remapped_[ssd] = true;

  // Build the ddak view of the placement: the stored BinBacking list plus a
  // count/assignment snapshot. Capacities are expressed in vertices.
  std::vector<ddak::Bin> dbins(bins_.size());
  std::vector<std::size_t> failed_bins;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    ddak::Bin& db = dbins[b];
    switch (bins_[b].kind) {
      case BinBacking::Kind::kGpuCache:
        db.tier = topology::StorageTier::kGpuHbm;
        db.capacity_vertices = 0.0;  // caches don't absorb failover rows
        break;
      case BinBacking::Kind::kCpuCache:
        db.tier = topology::StorageTier::kCpuDram;
        db.capacity_vertices = 0.0;
        break;
      case BinBacking::Kind::kSsd: {
        db.tier = topology::StorageTier::kSsd;
        const auto s = static_cast<std::size_t>(bins_[b].ssd);
        if (s == ssd || array_->health(s) == DeviceHealth::kFailed) {
          if (s == ssd) failed_bins.push_back(b);
          db.capacity_vertices = 0.0;
        } else {
          db.capacity_vertices = static_cast<double>(slot_capacity(s));
        }
        break;
      }
    }
  }
  if (failed_bins.empty()) return false;

  ddak::DataPlacementResult snapshot;
  snapshot.bin_of_vertex = bin_of_vertex_;
  snapshot.bin_access.assign(bins_.size(), 0.0);
  snapshot.bin_count.assign(bins_.size(), 0);
  snapshot.bin_traffic_share.assign(bins_.size(), 0.0);
  for (std::int32_t b : bin_of_vertex_) {
    ++snapshot.bin_count[static_cast<std::size_t>(b)];
  }
  // Survivors already hold their own rows: count those against capacity.
  // (bin_count is per-bin; plan_bin_failover seeds fill from it.)
  const std::vector<ddak::FailoverMove> moves =
      ddak::plan_bin_failover(dbins, snapshot, failed_bins);

  // Write each displaced vertex's authoritative row to a fresh slot on its
  // new device, from a fresh page on, and publish the new locations only
  // after every write: a read covers only pages that hold a published row,
  // so none reads a page these writes touch. The SQE ring's release/acquire
  // pair orders the row bytes before any read that targets them.
  for (std::uint32_t& next : ssd_next_slot_) {
    next = static_cast<std::uint32_t>((next + rows_per_page_ - 1) /
                                      rows_per_page_ * rows_per_page_);
  }
  std::vector<std::pair<graph::VertexId, Location>> placed;
  for (const ddak::FailoverMove& m : moves) {
    const auto to_bin = static_cast<std::size_t>(m.to_bin);
    const auto s = static_cast<std::size_t>(bins_[to_bin].ssd);
    const std::uint32_t slot = ssd_next_slot_[s];
    if (slot >= slot_capacity(s)) {
      continue;  // out of space: the host copy keeps serving this vertex
    }
    write_slot(s, slot, authoritative_row(m.vertex));
    ++ssd_next_slot_[s];
    bin_of_vertex_[m.vertex] = m.to_bin;
    placed.push_back(
        {m.vertex, {BinBacking::Kind::kSsd, slot, bins_[to_bin].ssd}});
  }
  for (const auto& [v, loc] : placed) {
    loc_[v].store(pack(loc), std::memory_order_release);
  }
  layout_version_.fetch_add(1, std::memory_order_release);
  return true;
}

TieredFeatureClient::TieredFeatureClient(TieredFeatureStore& store,
                                         std::size_t queue_depth,
                                         IoEngineOptions io_options,
                                         GatherOptions, PeerConfig peer)
    : store_(store), peer_(peer),
      io_(store.array(), queue_depth, io_options) {}

void TieredFeatureClient::snapshot_health() {
  scratch_health_.resize(store_.array().size());
  for (std::size_t s = 0; s < scratch_health_.size(); ++s) {
    scratch_health_[s] = store_.array().health(s);
  }
}

TieredFeatureClient::Slot* TieredFeatureClient::find_slot(
    std::uint64_t ticket) noexcept {
  for (Slot& s : slots_) {
    if (s.ticket == ticket) return &s;
  }
  return nullptr;
}

void TieredFeatureClient::reset_slot(Slot& slot) noexcept {
  slot.ticket = 0;
  slot.out = nullptr;
  slot.pending.clear();
}

void TieredFeatureClient::gather(std::span<const graph::VertexId> vertices,
                                 gnn::Tensor& out) {
  gather_wait(gather_begin(vertices, out));
}

gnn::FeatureProvider::GatherTicket TieredFeatureClient::gather_begin(
    std::span<const graph::VertexId> vertices, gnn::Tensor& out) {
  if (out.rows() != vertices.size() || out.cols() != store_.dim()) {
    throw std::invalid_argument("TieredFeatureClient::gather: shape mismatch");
  }
  Slot* slot = find_slot(0);
  if (slot == nullptr) {
    throw std::logic_error(
        "TieredFeatureClient::gather_begin: more than two gathers in flight");
  }
  std::erase_if(quarantine_, [this](const auto& q) {
    return !io_.writes_pending(q.first);
  });

  // Taken before routing, so a remap during it (this client's or another's)
  // marks this batch's pages stale: reuse only ever errs towards a read.
  const std::uint64_t layout = store_.layout_version();
  route_rows(vertices, out);
  // Before submit_runs overwrites the chosen slot's pages.
  reuse_idle_pages(out);
  // Served entirely without the SSDs: nothing to wait for.
  if (scratch_targets_.empty()) return kSyncTicket;

  slot->out = &out;
  slot->layout = layout;
  submit_runs(*slot);
  return slot->ticket;
}

void TieredFeatureClient::route_rows(std::span<const graph::VertexId> vertices,
                                     gnn::Tensor& out) {
  const bool cache_on = store_.row_cache_capacity() > 0;
  scratch_targets_.clear();
  // Per-batch device-health snapshot, refreshed after a remap (the only
  // event that moves rows between devices mid-batch).
  snapshot_health();

  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const graph::VertexId v = vertices[i];
    TieredFeatureStore::Location loc = store_.location(v);
    if (loc.kind == BinBacking::Kind::kGpuCache) {
      route_hbm_row(v, loc, out, i);
      continue;
    }
    if (loc.kind == BinBacking::Kind::kCpuCache) {
      serve(store_.cpu_cache().row(loc.index), out, i, counts_.cpu_hits);
      continue;
    }
    // A cached row is served even if its device has failed: the bytes are
    // keyed by vertex, not by device.
    if (cache_on) {
      if (const auto row = store_.cached_row(v); !row.empty()) {
        serve(row, out, i, counts_.cache_hits);
        continue;
      }
      ++counts_.cache_misses;
    }
    auto ssd = static_cast<std::size_t>(loc.ssd);
    if (scratch_health_[ssd] == DeviceHealth::kFailed) {
      // Known-dead device: trigger the remap (idempotent), re-read the
      // location, and fall back to the host copy if it didn't move.
      if (store_.remap_failed_device(ssd)) ++counts_.device_remaps;
      snapshot_health();
      loc = store_.location(v);
      ssd = static_cast<std::size_t>(loc.ssd);
      if (loc.kind != BinBacking::Kind::kSsd ||
          scratch_health_[ssd] == DeviceHealth::kFailed) {
        serve(store_.authoritative_row(v), out, i, counts_.failovers);
        continue;
      }
    }
    scratch_targets_.push_back({static_cast<std::uint32_t>(ssd), loc.index, v,
                                static_cast<std::uint32_t>(i)});
  }
  std::sort(scratch_targets_.begin(), scratch_targets_.end(),
            [](const SsdTarget& a, const SsdTarget& b) {
              return a.ssd != b.ssd ? a.ssd < b.ssd : a.index < b.index;
            });
}

void TieredFeatureClient::route_hbm_row(
    graph::VertexId v, const TieredFeatureStore::Location& loc,
    gnn::Tensor& out, std::size_t out_row) {
  const int owner = loc.ssd;  // owning GPU ordinal; -1 = replicated
  if (owner < 0 || owner == peer_.gpu) {
    serve(store_.gpu_cache().row(loc.index), out, out_row, counts_.gpu_hits);
    return;
  }
  const comm::PeerRoute* route =
      peer_.plan != nullptr ? peer_.plan->peer_route(owner, peer_.gpu)
                            : nullptr;
  if (route == nullptr || !route->valid()) {
    // Storage-path round trip: host authoritative copy (same bytes).
    serve(store_.authoritative_row(v), out, out_row,
          counts_.remote_hbm_host_rows);
    return;
  }
  // Modeled P2P copy: the bytes come from the owner's HBM tier and the
  // planned route's links are charged dim*4 bytes each.
  serve(store_.gpu_cache().row(loc.index), out, out_row, counts_.peer_rows);
  const std::uint64_t bytes = store_.dim() * sizeof(float);
  counts_.peer_bytes += bytes;
  if (peer_.counters != nullptr) {
    for (const comm::RouteLink& rl : route->links) {
      peer_.counters->add(rl.link, rl.forward, bytes);
    }
  }
}

void TieredFeatureClient::reuse_idle_pages(gnn::Tensor& out) {
  const std::uint64_t layout = store_.layout_version();
  const std::uint64_t row_span = store_.pages_per_row_ * kPageBytes;
  const std::size_t raw = store_.dim() * sizeof(float);
  for (const Slot& slot : slots_) {
    if (slot.ticket != 0 || slot.layout != layout) continue;
    // Both lists are sorted by (ssd, offset): one merge walk finds the
    // command, if any, whose pages hold each target's row.
    std::size_t kept = 0;
    std::size_t r = 0;
    for (const SsdTarget& t : scratch_targets_) {
      const std::uint64_t begin = store_.first_page(t.index) * kPageBytes;
      while (r < slot.reqs.size() &&
             (slot.reqs[r].ssd < t.ssd ||
              (slot.reqs[r].ssd == t.ssd &&
               slot.reqs[r].offset + slot.reqs[r].length <= begin))) {
        ++r;
      }
      const ReadRequest* req = r < slot.reqs.size() ? &slot.reqs[r] : nullptr;
      if (req != nullptr && req->dest != nullptr && req->ssd == t.ssd &&
          req->offset <= begin &&
          begin + row_span <= req->offset + req->length) {
        std::memcpy(out.row(t.out_row).data(),
                    req->dest + (store_.slot_offset(t.index) - req->offset),
                    raw);
        ++counts_.dedup_saved_reads;
      } else {
        scratch_targets_[kept++] = t;
      }
    }
    scratch_targets_.resize(kept);
  }
}

void TieredFeatureClient::submit_runs(Slot& slot) {
  // Read every page the sorted targets touch once: each run of consecutive
  // touched pages on one SSD becomes one page-aligned command of whole
  // pages, at most kMaxTransferBytes (the store guarantees one row's pages
  // fit). Rows sharing a page, a repeated vertex included, share its bytes
  // in the bounce buffer.
  const std::uint64_t row_pages = store_.pages_per_row_;
  constexpr std::uint64_t kMaxPages = kMaxTransferBytes / kPageBytes;

  counts_.ssd_rows += scratch_targets_.size();
  slot.reqs.clear();
  slot.pending.clear();
  std::size_t off = 0;
  std::size_t t = 0;
  while (t < scratch_targets_.size()) {
    const std::uint32_t ssd = scratch_targets_[t].ssd;
    const std::uint64_t begin = store_.first_page(scratch_targets_[t].index);
    std::uint64_t end = begin + row_pages;  // one past the run's last page
    const auto cmd = static_cast<std::uint32_t>(slot.reqs.size());
    std::uint32_t rows = 0;
    for (; t < scratch_targets_.size() && scratch_targets_[t].ssd == ssd;
         ++t) {
      const SsdTarget& tk = scratch_targets_[t];
      const std::uint64_t page = store_.first_page(tk.index);
      if (page > end || page + row_pages - begin > kMaxPages) break;
      end = std::max(end, page + row_pages);
      slot.pending.push_back(
          {tk.out_row, off + store_.slot_offset(tk.index) - begin * kPageBytes,
           tk.vertex, cmd});
      ++rows;
    }
    const std::uint64_t bytes = (end - begin) * kPageBytes;
    slot.reqs.push_back({ssd, begin * kPageBytes,
                         static_cast<std::uint32_t>(bytes), nullptr});
    off += bytes;
    ++counts_.ssd_commands;
    if (rows > 1) ++counts_.coalesced_commands;
  }
  // Commands lie back to back in the bounce buffer.
  slot.bounce.resize(off);
  std::byte* dest = slot.bounce.data();
  for (ReadRequest& r : slot.reqs) {
    r.dest = dest;
    dest += r.length;
  }

  try {
    slot.ticket = io_.submit(slot.reqs);
  } catch (...) {
    slot.reqs.clear();  // never read: lends no pages
    throw;
  }
}

void TieredFeatureClient::gather_wait(GatherTicket ticket) {
  if (ticket == kSyncTicket) return;
  Slot* slot = find_slot(ticket);
  if (slot == nullptr) {
    throw std::logic_error("TieredFeatureClient::gather_wait: unknown ticket");
  }
  try {
    complete(*slot);
  } catch (...) {
    slot->reqs.clear();  // its pages may be unread
    reset_slot(*slot);
    throw;
  }
  reset_slot(*slot);
}

void TieredFeatureClient::complete(Slot& slot) {
  scratch_failed_.clear();
  io_.wait(slot.ticket, scratch_failed_);

  // A command fails as a unit: a null `dest` marks it, so every row on its
  // pages is served from the host copy instead of the bounce buffer.
  scratch_failed_ssds_.assign(store_.array().size(), false);
  for (const std::size_t cmd : scratch_failed_) {
    scratch_failed_ssds_[slot.reqs[cmd].ssd] = true;
    slot.reqs[cmd].dest = nullptr;
  }

  const std::size_t raw = store_.dim() * sizeof(float);
  for (const PendingRow& pr : slot.pending) {
    if (slot.reqs[pr.cmd].dest == nullptr) {
      serve(store_.authoritative_row(pr.vertex), *slot.out, pr.out_row,
            counts_.failovers);
    } else {
      std::memcpy(slot.out->row(pr.out_row).data(),
                  slot.bounce.data() + pr.bounce_off, raw);
    }
  }
  // A command the engine gave up on may still be on its device, which will
  // write into this buffer when it serves it: the next batch on this slot
  // gets a fresh buffer instead.
  if (io_.writes_pending(slot.ticket)) {
    quarantine_.emplace_back(slot.ticket, std::move(slot.bounce));
    slot.bounce = Bounce();
    slot.reqs.clear();  // their pages went with the buffer
  }

  // Hard-failed devices get their bins re-placed so future gathers hit
  // survivors instead of falling back row by row.
  for (std::size_t s = 0; s < store_.array().size(); ++s) {
    if (scratch_failed_ssds_[s] &&
        store_.array().health(s) == DeviceHealth::kFailed &&
        store_.remap_failed_device(s)) {
      ++counts_.device_remaps;
    }
  }
}

gnn::FeatureProvider::IoResilience TieredFeatureClient::io_resilience() const {
  IoResilience r = counts_;
  const RetryStats rs = io_.retry_stats();
  r.retries = rs.retries;
  r.timeouts = rs.timeouts;
  r.permanent_failures = rs.permanent_failures;
  r.devices_degraded =
      static_cast<std::uint32_t>(store_.array().num_degraded());
  r.devices_failed = static_cast<std::uint32_t>(store_.array().num_failed());
  return r;
}

}  // namespace moment::iostack
