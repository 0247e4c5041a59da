#include "platform/platform.hpp"

namespace drhw {

PlatformConfig virtex2_platform(int tiles) {
  PlatformConfig cfg;
  cfg.tiles = tiles;
  cfg.reconfig_latency = ms(4);
  cfg.isps = 1;
  cfg.validate();
  return cfg;
}

}  // namespace drhw
