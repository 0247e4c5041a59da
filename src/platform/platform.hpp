#pragma once

/// \file platform.hpp
/// Model of the ICN-based DRHW platform of the paper's Figure 1: a pool of
/// identical, independently reconfigurable tiles behind one serialised
/// reconfiguration controller, plus optional ISPs.
///
/// The network-on-chip itself is abstracted away: the paper's scheduling
/// problem depends only on tile count, load latency and port serialisation
/// (inter-subtask communication costs are folded into execution times, as in
/// the paper's own experiments).

#include <stdexcept>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace drhw {

/// Interconnection-network model (the ICN of the paper's Figure 1): tiles
/// form a mesh; inter-tile messages pay a per-hop latency, ISP traffic
/// crosses a bridge. mesh_width == 0 selects an ideal interconnect with
/// zero communication latency — the model used by the paper's experiments,
/// where communication is folded into the execution times.
struct IcnConfig {
  int mesh_width = 0;               ///< 0 = ideal (no communication cost)
  time_us hop_latency = 0;          ///< per mesh hop, XY routing
  time_us isp_bridge_latency = 0;   ///< flat cost for ISP <-> tile traffic
};

/// Static description of a platform instance.
struct PlatformConfig {
  /// Number of DRHW tiles available to the run-time scheduler.
  int tiles = 8;
  /// Latency of loading one configuration onto one tile through the
  /// reconfiguration port. The paper uses 4 ms (one tenth of a Virtex
  /// XC2V6000). Individual subtasks may override this via
  /// Subtask::load_time (e.g. heterogeneous bitstream sizes).
  time_us reconfig_latency = ms(4);
  /// Number of parallel reconfiguration ports. Real FPGAs have one (the
  /// serialised ICAP); >1 models hypothetical multi-port devices.
  int reconfig_ports = 1;
  /// Number of instruction-set processors (each runs one subtask at a time).
  int isps = 1;
  /// Energy cost of one reconfiguration (arbitrary units; read by the
  /// energy accounting only, not by timing).
  double reconfig_energy = 4.0;
  /// Communication model.
  IcnConfig icn;

  /// Throws std::invalid_argument when the description is unusable.
  void validate() const {
    if (tiles < 1) throw std::invalid_argument("platform needs >= 1 tile");
    if (reconfig_latency < 0)
      throw std::invalid_argument("negative reconfiguration latency");
    if (reconfig_ports < 1)
      throw std::invalid_argument("platform needs >= 1 reconfiguration port");
    if (isps < 0) throw std::invalid_argument("negative ISP count");
    if (icn.mesh_width < 0 || icn.hop_latency < 0 ||
        icn.isp_bridge_latency < 0)
      throw std::invalid_argument("invalid ICN description");
  }
};

/// Communication latency between two execution units under the platform's
/// ICN model. Units are identified as (tile id, is_isp); a unit talking to
/// itself costs nothing. Tiles sit at ((id % mesh_width), (id / mesh_width))
/// and messages take XY routes.
time_us icn_comm_latency(const PlatformConfig& platform, TileId from_unit,
                         bool from_isp, TileId to_unit, bool to_isp);

/// Convenience factory for the paper's reference platform: `tiles` Virtex-II
/// style tiles with a 4 ms reconfiguration latency and one ISP.
PlatformConfig virtex2_platform(int tiles);

}  // namespace drhw
