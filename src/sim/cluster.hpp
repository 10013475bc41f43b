// Cluster presets matching the paper's two evaluation systems.
#pragma once

#include <memory>

#include "sim/world.hpp"

namespace hpas::sim {

/// Voltrino-like preset (paper Sec. 4): Cray XC40m partition with Haswell
/// Xeon E5-2698 v3 nodes -- 32 cores, 32 KiB / 256 KiB / 40 MiB caches,
/// 125 GB memory -- an Aries-like two-tier interconnect with 4 nodes per
/// switch and fat (redundant, adaptively routed) inter-switch trunks, and
/// a Lustre-like filesystem with a dedicated metadata server.
struct VoltrinoPreset {
  int switches = 2;
  int nodes_per_switch = 4;
  double nic_bw = 10.0e9;           ///< bytes/s injection per node
  double inter_switch_bw = 18.0e9;  ///< aggregate redundant trunk
  NodeConfig node;                  ///< Haswell defaults from NodeConfig
  FsConfig fs{.metadata_ops_per_s = 30000.0,
              .disk_write_bw = 5.0e9,
              .disk_read_bw = 5.5e9,
              .dedicated_mds = true,
              .metadata_disk_cost_s = 0.0};
};

/// Chameleon-like preset: 24-core E5-2670 v3 nodes (smaller 30 MiB L3),
/// star topology, and the paper's NFS appliance -- one storage server
/// with a single ST9250610NS disk and *no* dedicated metadata server.
struct ChameleonPreset {
  int nodes = 6;
  double nic_bw = 1.25e9;  ///< 10 GbE
  NodeConfig node{.cores = 24,
                  .freq_hz = 2.3e9,
                  .cpi0 = 1.0,
                  .l1_bytes = 32.0 * 1024,
                  .l2_bytes = 256.0 * 1024,
                  .l3_bytes = 30.0 * 1024 * 1024,
                  .lat_l2_cycles = 12.0,
                  .lat_l3_cycles = 40.0,
                  .lat_mem_cycles = 200.0,
                  .stall_exposed_fraction = 0.4,
                  .memory_bytes = 125.0 * 1024 * 1024 * 1024,
                  .mem_bw_peak = 22.0e9,
                  .core_bw_limit = 12.5e9,
                  .os_base_memory = 2.0 * 1024 * 1024 * 1024};
  FsConfig fs{.metadata_ops_per_s = 3000.0,
              .disk_write_bw = 300.0e6,
              .disk_read_bw = 330.0e6,
              .dedicated_mds = false,
              .metadata_disk_cost_s = 1.0e-4};
};

/// Large-system preset for scaling studies: a dragonfly with
/// groups x routers_per_group x nodes_per_router compute nodes (defaults
/// give 8*8*16 = 1024, the "dragonfly1k" system of the engine
/// benchmarks; bump `groups` to ~78 for a 10k-node machine). Node and
/// filesystem parameters reuse the Voltrino-like Haswell/Lustre models --
/// the preset exists to exercise topology scale, not new hardware.
struct DragonflyPreset {
  int groups = 8;
  int routers_per_group = 8;
  int nodes_per_router = 16;
  double nic_bw = 10.0e9;     ///< bytes/s injection per node
  double local_bw = 15.0e9;   ///< intra-group router-router trunk
  double global_bw = 25.0e9;  ///< inter-group gateway trunk
  NodeConfig node;            ///< Haswell defaults from NodeConfig
  FsConfig fs{.metadata_ops_per_s = 120000.0,
              .disk_write_bw = 40.0e9,
              .disk_read_bw = 44.0e9,
              .dedicated_mds = true,
              .metadata_disk_cost_s = 0.0};

  int num_nodes() const {
    return groups * routers_per_group * nodes_per_router;
  }
};

std::unique_ptr<World> make_voltrino_world(const VoltrinoPreset& preset = {});
std::unique_ptr<World> make_chameleon_world(const ChameleonPreset& preset = {});
std::unique_ptr<World> make_dragonfly_world(const DragonflyPreset& preset = {});

}  // namespace hpas::sim
