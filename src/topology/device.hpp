#pragma once
// Physical communication topology model: devices (CPU root complexes, PCIe
// switches, CPU memory, GPUs, SSDs, NICs) connected by directed-capacity
// links (PCIe, QPI/UPI, NVLink, DRAM channels). This is the structure the
// paper extracts from a live server via lspci/dmidecode; here it is built
// from machine presets plus a hardware placement.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace moment::topology {

using DeviceId = std::int32_t;
using LinkId = std::int32_t;

enum class DeviceKind : std::uint8_t {
  kRootComplex,  // CPU-integrated PCIe root complex (one per socket)
  kPcieSwitch,   // PLX-style switch
  kCpuMemory,    // socket-local DRAM (storage tier)
  kGpu,          // compute + HBM storage tier
  kSsd,          // NVMe SSD (storage tier)
  kNic,          // network interface (occupies slots; no GNN traffic)
};

enum class LinkKind : std::uint8_t {
  kPcie,     // PCIe bus/slot link
  kQpi,      // inter-socket QPI/UPI
  kNvlink,   // GPU-GPU NVLink bridge
  kDram,     // CPU memory channels to the root complex
  kNetwork,  // inter-machine network (cluster modelling)
};

const char* to_string(LinkKind kind) noexcept;

struct Device {
  DeviceKind kind;
  std::string name;  // e.g. "RC0", "PLX1", "GPU2", "SSD5"
  int index = 0;     // index within its kind
};

/// Full-duplex link: independent capacities per direction, in bytes/s.
struct Link {
  DeviceId a = -1;
  DeviceId b = -1;
  LinkKind kind = LinkKind::kPcie;
  double bw_ab = 0.0;  // capacity a -> b
  double bw_ba = 0.0;  // capacity b -> a
  std::string label;   // e.g. "Bus9", "QPI"
};

class Topology {
 public:
  DeviceId add_device(DeviceKind kind, std::string name, int index);
  LinkId add_link(DeviceId a, DeviceId b, LinkKind kind, double bw_ab,
                  double bw_ba, std::string label);

  std::size_t num_devices() const noexcept { return devices_.size(); }
  std::size_t num_links() const noexcept { return links_.size(); }

  const Device& device(DeviceId id) const { return devices_[static_cast<std::size_t>(id)]; }
  const Link& link(LinkId id) const { return links_[static_cast<std::size_t>(id)]; }
  Link& link(LinkId id) { return links_[static_cast<std::size_t>(id)]; }

  std::span<const Device> devices() const noexcept { return devices_; }
  std::span<const Link> links() const noexcept { return links_; }

  /// Link ids incident to device `d`.
  const std::vector<LinkId>& incident(DeviceId d) const {
    return incident_[static_cast<std::size_t>(d)];
  }

  /// All device ids of a given kind, ordered by index.
  std::vector<DeviceId> devices_of_kind(DeviceKind kind) const;

  /// Finds a device by name; nullopt if absent.
  std::optional<DeviceId> find(const std::string& name) const;

  /// Finds the link between two devices (either orientation).
  std::optional<LinkId> find_link(DeviceId a, DeviceId b) const;

  /// Human-readable multi-line dump (lspci-style tree).
  std::string to_string() const;

 private:
  std::vector<Device> devices_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> incident_;
};

/// PCIe generation/lane-width to usable bandwidth (bytes/s). Usable rates are
/// ~80% of raw (encoding + protocol overhead), matching measured PCIe 4.0 x16
/// at ~20 GiB/s as the paper quotes.
double pcie_bandwidth(int gen, int lanes) noexcept;

}  // namespace moment::topology
