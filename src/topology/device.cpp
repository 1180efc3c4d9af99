#include "topology/device.hpp"

#include <sstream>

#include "util/units.hpp"

namespace moment::topology {

const char* to_string(LinkKind kind) noexcept {
  switch (kind) {
    case LinkKind::kPcie: return "PCIe";
    case LinkKind::kQpi: return "QPI";
    case LinkKind::kNvlink: return "NVLink";
    case LinkKind::kDram: return "DRAM";
    case LinkKind::kNetwork: return "Network";
  }
  return "Unknown";
}

DeviceId Topology::add_device(DeviceKind kind, std::string name, int index) {
  devices_.push_back({kind, std::move(name), index});
  incident_.emplace_back();
  return static_cast<DeviceId>(devices_.size()) - 1;
}

LinkId Topology::add_link(DeviceId a, DeviceId b, LinkKind kind, double bw_ab,
                          double bw_ba, std::string label) {
  links_.push_back({a, b, kind, bw_ab, bw_ba, std::move(label)});
  const auto id = static_cast<LinkId>(links_.size()) - 1;
  incident_[static_cast<std::size_t>(a)].push_back(id);
  incident_[static_cast<std::size_t>(b)].push_back(id);
  return id;
}

std::vector<DeviceId> Topology::devices_of_kind(DeviceKind kind) const {
  std::vector<DeviceId> out;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].kind == kind) out.push_back(static_cast<DeviceId>(i));
  }
  return out;
}

std::optional<DeviceId> Topology::find(const std::string& name) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].name == name) return static_cast<DeviceId>(i);
  }
  return std::nullopt;
}

std::optional<LinkId> Topology::find_link(DeviceId a, DeviceId b) const {
  for (LinkId id : incident(a)) {
    const Link& l = links_[static_cast<std::size_t>(id)];
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return id;
  }
  return std::nullopt;
}

std::string Topology::to_string() const {
  std::ostringstream out;
  out << "Topology: " << devices_.size() << " devices, " << links_.size()
      << " links\n";
  for (const auto& l : links_) {
    out << "  " << devices_[static_cast<std::size_t>(l.a)].name << " <-> "
        << devices_[static_cast<std::size_t>(l.b)].name << "  ["
        << topology::to_string(l.kind) << " " << (l.label.empty() ? "-" : l.label)
        << "]  " << util::to_gib_per_s(l.bw_ab) << "/"
        << util::to_gib_per_s(l.bw_ba) << " GiB/s\n";
  }
  return out.str();
}

double pcie_bandwidth(int gen, int lanes) noexcept {
  // Profiled *usable* bandwidth, not the theoretical line rate. The paper's
  // automatic module measures link throughput rather than trusting specs;
  // these values reproduce its quoted figures: PCIe 4.0 x16 ~ 20 GiB/s, an
  // x4 NVMe slot comfortably carrying a 6 GiB/s P5510. Narrow links keep
  // proportionally more of their raw rate (payload efficiency rises as DLLP
  // overhead amortises over fewer lanes' worth of in-flight credits).
  double x16_gib = 20.0;  // gen4 default
  if (gen <= 3) x16_gib = 11.0;
  if (gen >= 5) x16_gib = 40.0;
  double gib;
  if (lanes >= 16) gib = x16_gib;
  else if (lanes >= 8) gib = x16_gib * 0.55;
  else if (lanes >= 4) gib = x16_gib * 0.325;  // gen4 x4 -> 6.5 GiB/s
  else if (lanes >= 2) gib = x16_gib * 0.16;
  else gib = x16_gib * 0.08;
  return util::gib_per_s(gib);
}

}  // namespace moment::topology
