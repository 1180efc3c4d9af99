// Custom machine: describe YOUR server in the machine description language
// (or load a file produced by topology discovery), then let Moment decide
// where the GPUs and SSDs should go — the paper's customized-server use case
// ("server vendors offering customized machines ... an opportunity to
// optimize hardware placement").
//
// Usage: custom_machine [spec-file] [num_gpus] [num_ssds]
//        (with no file, a built-in 3-switch demo machine is used)

#include <cstdio>
#include <fstream>
#include <iostream>

#include "cli.hpp"
#include "placement/search.hpp"
#include "topology/discovery.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace moment;

namespace {

// A deliberately quirky machine: three switches in a chain with direct
// slots on both sockets — none of the built-in presets.
const char* kDemoMachine = R"(
machine DemoChain
description three cascaded switches, direct slots on both sockets
ssd_read_bw_gib 6
device RC0 root_complex
device RC1 root_complex
device DRAM0 cpu_memory
device DRAM1 cpu_memory
device SW0 pcie_switch
device SW1 pcie_switch
device SW2 pcie_switch
link DRAM0 RC0 dram 40 40 MC0
link DRAM1 RC1 dram 40 40 MC1
link RC0 RC1 qpi 36 36 QPI
link RC0 SW0 pcie 20 20 Bus2
link SW0 SW1 pcie 20 20 Bus7
link SW1 SW2 pcie 20 20 Bus12
slots RC0.slots RC0 4 gpu,ssd gen4
slots RC1.slots RC1 6 gpu,ssd gen4
slots SW0.slots SW0 8 gpu,ssd gen4
slots SW1.slots SW1 8 gpu,ssd gen4
slots SW2.slots SW2 8 gpu,ssd gen4
)";

int usage() {
  std::fprintf(stderr,
               "usage: custom_machine [spec-file] [num_gpus] [num_ssds]\n"
               "  num_gpus >= 1 and num_ssds >= 0 (default 4 8)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int gpus = 4;
  int ssds = 8;
  if (argc > 4 || (argc > 2 && !examples::parse_int(argv[2], 1, gpus)) ||
      (argc > 3 && !examples::parse_int(argv[3], 0, ssds))) {
    return usage();
  }
  topology::MachineSpec spec;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    spec = topology::parse_machine_spec(file);
  } else {
    spec = topology::parse_machine_spec_string(kDemoMachine);
  }

  std::printf("machine: %s — %s\n", spec.name.c_str(),
              spec.description.c_str());
  std::printf("%s\n", spec.skeleton.to_string().c_str());

  placement::SearchOptions o;
  o.num_gpus = gpus;
  o.num_ssds = ssds;
  const double total = 400.0 * util::kGiB;  // an IGB-like epoch
  o.per_gpu_demand_bytes = total / gpus;
  o.per_tier_bytes = {0.11 * total, 0.15 * total, 0.74 * total};
  o.gpu_hbm_bytes = 0.11 * total / gpus;
  o.keep_top = 5;
  const auto r = placement::search_placements(spec, o);

  std::printf("%zu feasible placements, %zu evaluated\n\n",
              r.total_combinations, r.evaluated);
  util::Table t({"#", "placement", "predicted throughput (GiB/s)"});
  for (std::size_t i = 0; i < r.top.size(); ++i) {
    t.add_row({std::to_string(i + 1),
               placement::describe(spec, r.top[i].placement),
               util::Table::num(util::to_gib_per_s(r.top[i].score), 1)});
  }
  t.print(std::cout);

  std::printf("\nmachine description round-trip (edit and re-run):\n%s",
              topology::write_machine_spec(spec).c_str());
  return 0;
}
