#include "platform/platform.hpp"

#include <cstdlib>

namespace drhw {

time_us icn_comm_latency(const PlatformConfig& platform, TileId from_unit,
                         bool from_isp, TileId to_unit, bool to_isp) {
  if (from_isp == to_isp && from_unit == to_unit) return 0;
  const IcnConfig& icn = platform.icn;
  if (icn.mesh_width <= 0) return 0;  // ideal interconnect
  if (from_isp || to_isp) return icn.isp_bridge_latency;
  const int w = icn.mesh_width;
  const int x1 = from_unit % w, y1 = from_unit / w;
  const int x2 = to_unit % w, y2 = to_unit / w;
  const int hops = std::abs(x1 - x2) + std::abs(y1 - y2);
  return icn.hop_latency * hops;
}

PlatformConfig virtex2_platform(int tiles) {
  PlatformConfig cfg;
  cfg.tiles = tiles;
  cfg.reconfig_latency = ms(4);
  cfg.isps = 1;
  cfg.validate();
  return cfg;
}

}  // namespace drhw
