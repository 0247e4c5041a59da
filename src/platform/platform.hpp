#pragma once

/// \file platform.hpp
/// Model of the DRHW platform of the paper's Figure 1: a pool of identical,
/// independently reconfigurable tiles behind one serialised reconfiguration
/// controller, plus optional ISPs.
///
/// The interconnection network is not modelled: inter-subtask communication
/// is folded into the subtasks' execution times, as in the paper's own
/// experiments, so the scheduling problem depends only on tile count, load
/// latency and port serialisation.

#include <stdexcept>

#include "util/time.hpp"

namespace drhw {

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

  /// Throws std::invalid_argument when the description is unusable.
  void validate() const {
    if (tiles < 1) throw std::invalid_argument("platform needs >= 1 tile");
    if (reconfig_latency < 0)
      throw std::invalid_argument("negative reconfiguration latency");
    if (reconfig_ports < 1)
      throw std::invalid_argument("platform needs >= 1 reconfiguration port");
    if (isps < 0) throw std::invalid_argument("negative ISP count");
  }
};

/// Convenience factory for the paper's reference platform: `tiles` Virtex-II
/// style tiles with a 4 ms reconfiguration latency and one ISP.
PlatformConfig virtex2_platform(int tiles);

}  // namespace drhw
