#include "comm/plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace moment::comm {

const char* to_string(AllReduceAlgo algo) noexcept {
  switch (algo) {
    case AllReduceAlgo::kFlat: return "flat";
    case AllReduceAlgo::kRing: return "ring";
    case AllReduceAlgo::kTree: return "tree";
    case AllReduceAlgo::kAuto: return "auto";
  }
  return "?";
}

AllReduceAlgo parse_algo(const std::string& text) {
  if (text == "flat") return AllReduceAlgo::kFlat;
  if (text == "ring") return AllReduceAlgo::kRing;
  if (text == "tree") return AllReduceAlgo::kTree;
  if (text == "auto") return AllReduceAlgo::kAuto;
  throw std::invalid_argument("comm: unknown all-reduce algorithm '" + text +
                              "' (expected flat|ring|tree|auto)");
}

double PeerRoute::bottleneck_bw() const noexcept {
  double bw = links.empty() ? 0.0 : links.front().capacity;
  for (const RouteLink& rl : links) bw = std::min(bw, rl.capacity);
  return bw;
}

std::vector<std::uint64_t> LinkCounters::snapshot() const {
  std::vector<std::uint64_t> out(counters_.size() * 2);
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out[2 * i] = counters_[i].ab.load(std::memory_order_relaxed);
    out[2 * i + 1] = counters_[i].ba.load(std::memory_order_relaxed);
  }
  return out;
}

void LinkCounters::reset() noexcept {
  for (auto& slot : counters_) {
    slot.ab.store(0, std::memory_order_relaxed);
    slot.ba.store(0, std::memory_order_relaxed);
  }
}

const PeerRoute* CommPlan::peer_route(int src_gpu, int dst_gpu) const noexcept {
  if (src_gpu < 0 || dst_gpu < 0 || src_gpu >= num_gpus ||
      dst_gpu >= num_gpus || src_gpu == dst_gpu) {
    return nullptr;
  }
  const int r = route_of[static_cast<std::size_t>(src_gpu) *
                             static_cast<std::size_t>(num_gpus) +
                         static_cast<std::size_t>(dst_gpu)];
  return r < 0 ? nullptr : &routes[static_cast<std::size_t>(r)];
}

namespace {

/// Maps each plan link to a dense slot so per-step loads can be accumulated
/// in a flat array: slot 2*i is the a->b direction of links[i].
std::vector<int> link_slot_index(const CommPlan& plan) {
  std::vector<int> slot(plan.num_links, -1);
  for (std::size_t i = 0; i < plan.links.size(); ++i) {
    slot[static_cast<std::size_t>(plan.links[i].link)] = static_cast<int>(i);
  }
  return slot;
}

}  // namespace

double CommPlan::predicted_seconds(double payload_bytes) const {
  if (payload_bytes <= 0.0 || steps.empty()) return 0.0;
  const std::vector<int> slot = link_slot_index(*this);
  std::vector<double> load(links.size() * 2);
  double total = 0.0;
  for (const Step& step : steps) {
    std::fill(load.begin(), load.end(), 0.0);
    for (const Transfer& t : step.transfers) {
      const double bytes = t.fraction * payload_bytes;
      for (const RouteLink& rl : routes[static_cast<std::size_t>(t.route)].links) {
        const int i = slot[static_cast<std::size_t>(rl.link)];
        load[static_cast<std::size_t>(2 * i + (rl.forward ? 0 : 1))] += bytes;
      }
    }
    double step_s = 0.0;
    for (std::size_t i = 0; i < links.size(); ++i) {
      const double cap_ab = links[i].cap_ab;
      const double cap_ba = links[i].cap_ba;
      if (load[2 * i] > 0.0 && cap_ab > 0.0) {
        step_s = std::max(step_s, load[2 * i] / cap_ab);
      }
      if (load[2 * i + 1] > 0.0 && cap_ba > 0.0) {
        step_s = std::max(step_s, load[2 * i + 1] / cap_ba);
      }
    }
    total += step_s;
  }
  return total;
}

std::vector<LinkVolume> CommPlan::link_volume(double payload_bytes) const {
  const std::vector<int> slot = link_slot_index(*this);
  std::vector<LinkVolume> out(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) out[i].link = links[i].link;
  for (const Step& step : steps) {
    for (const Transfer& t : step.transfers) {
      const auto bytes = static_cast<std::uint64_t>(
          std::llround(t.fraction * payload_bytes));
      for (const RouteLink& rl : routes[static_cast<std::size_t>(t.route)].links) {
        auto& lv = out[static_cast<std::size_t>(
            slot[static_cast<std::size_t>(rl.link)])];
        (rl.forward ? lv.ab : lv.ba) += bytes;
      }
    }
  }
  return out;
}

void CommPlan::account(double payload_bytes, LinkCounters& counters) const {
  for (const Step& step : steps) {
    for (const Transfer& t : step.transfers) {
      const auto bytes = static_cast<std::uint64_t>(
          std::llround(t.fraction * payload_bytes));
      if (bytes == 0) continue;
      for (const RouteLink& rl : routes[static_cast<std::size_t>(t.route)].links) {
        counters.add(rl.link, rl.forward, bytes);
      }
    }
  }
}

double CommPlan::schedule_payload_bytes(double payload_bytes) const {
  double total = 0.0;
  for (const Step& step : steps) {
    for (const Transfer& t : step.transfers) {
      total += static_cast<double>(static_cast<std::uint64_t>(
          std::llround(t.fraction * payload_bytes)));
    }
  }
  return total;
}

}  // namespace moment::comm
