#include "reuse/config_store.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace drhw {

ConfigStore::ConfigStore(int tiles) {
  if (tiles < 1) throw std::invalid_argument("config store needs >= 1 tile");
  tiles_.resize(static_cast<std::size_t>(tiles));
}

ConfigId ConfigStore::config_on(PhysTileId tile) const {
  return tiles_[checked(tile)].config;
}

std::optional<PhysTileId> ConfigStore::find(ConfigId config) const {
  if (!holds(config)) return std::nullopt;
  for (std::size_t t = 0; t < tiles_.size(); ++t)
    if (tiles_[t].config == config) return static_cast<PhysTileId>(t);
  return std::nullopt;
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

time_us ConfigStore::last_used(PhysTileId tile) const {
  return tiles_[checked(tile)].last_used;
}

double ConfigStore::value_of(PhysTileId tile) const {
  return tiles_[checked(tile)].value;
}

void ConfigStore::clear() {
  for (auto& tile : tiles_) {
    set_config(tile, k_no_config);
    tile = Tile{};
  }
}

void ConfigStore::reset(int tiles) {
  if (tiles < 0) throw std::invalid_argument("config store needs >= 0 tiles");
  clear();
  tiles_.resize(static_cast<std::size_t>(tiles));
}

std::size_t ConfigStore::checked(PhysTileId tile) const {
  if (tile < 0 || static_cast<std::size_t>(tile) >= tiles_.size())
    throw std::invalid_argument("physical tile id out of range");
  return static_cast<std::size_t>(tile);
}

}  // namespace drhw
