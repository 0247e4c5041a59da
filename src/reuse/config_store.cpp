#include "reuse/config_store.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace drhw {

ConfigStore::ConfigStore(int tiles) {
  if (tiles < 1) throw std::invalid_argument("config store needs >= 1 tile");
  tiles_.resize(static_cast<std::size_t>(tiles));
}

void ConfigStore::record_load(PhysTileId tile, ConfigId config, time_us when,
                              double value) {
  auto& state = tiles_[checked(tile)];
  DRHW_CHECK_MSG(when >= state.last_used,
                 "configuration load recorded before the tile's last event — "
                 "per-tile timeline must be monotone");
  if (config < k_no_config)
    throw std::invalid_argument("negative configuration id");
  set_config(state, config);
  state.last_used = when;
  state.value = value;
}

void ConfigStore::set_config(Tile& state, ConfigId config) {
  if (state.config != k_no_config)
    --resident_[static_cast<std::size_t>(state.config)];
  state.config = config;
  if (config == k_no_config) return;
  const auto idx = static_cast<std::size_t>(config);
  if (idx >= resident_.size()) resident_.resize(idx + 1, 0);
  ++resident_[idx];
}

void ConfigStore::record_use(PhysTileId tile, time_us when) {
  auto& state = tiles_[checked(tile)];
  DRHW_CHECK_MSG(when >= state.last_used,
                 "tile use recorded before the tile's last event — "
                 "per-tile timeline must be monotone");
  state.last_used = when;
}

void ConfigStore::relocate(PhysTileId from, PhysTileId to, time_us when) {
  const auto& source = tiles_[checked(from)];
  DRHW_CHECK_MSG(source.config != k_no_config,
                 "relocating an empty tile — nothing to copy");
  DRHW_CHECK_MSG(from != to, "relocating a tile onto itself");
  record_load(to, source.config, when, source.value);
}

void ConfigStore::throw_out_of_range() {
  throw std::invalid_argument("physical tile id out of range");
}

}  // namespace drhw
