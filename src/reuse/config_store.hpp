#pragma once

/// \file config_store.hpp
/// Run-time state of the physical tile pool: which configuration each tile
/// currently holds, when it was last touched, and how valuable it is to the
/// replacement policy. This is the state the reuse and replacement modules
/// (paper Figure 2, refs [6,7]) operate on across task instances.

#include <cstddef>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace drhw {

/// Mutable pool of physical tiles and their resident configurations.
class ConfigStore {
 public:
  /// All tiles start empty.
  explicit ConfigStore(int tiles);

  int tiles() const { return static_cast<int>(tiles_.size()); }

  /// Configuration currently on `tile` (k_no_config when empty).
  /// \throws std::invalid_argument for a tile id out of range.
  ConfigId config_on(PhysTileId tile) const {
    return tiles_[checked(tile)].config;
  }

  /// Whether some tile holds `config`. O(1): reads the resident count.
  bool holds(ConfigId config) const {
    return config >= 0 &&
           static_cast<std::size_t>(config) < resident_.size() &&
           resident_[static_cast<std::size_t>(config)] > 0;
  }

  /// Records that `config` was loaded onto `tile` at absolute time `when`
  /// with replacement value `value` (typically the subtask's ALAP weight).
  /// \throws std::invalid_argument for a negative id other than
  ///         k_no_config (which empties the tile).
  void record_load(PhysTileId tile, ConfigId config, time_us when,
                   double value);

  /// Records an execution using `tile` finishing at absolute time `when`.
  void record_use(PhysTileId tile, time_us when);

  /// Relocation path of the online defragmentation pass: the configuration
  /// resident on `from` is loaded onto `to` at absolute time `when`,
  /// carrying its replacement value along. The source tile is left
  /// untouched — in hardware the old frames still hold the bitstream, so
  /// it remains a reusable cached copy until something overwrites it.
  void relocate(PhysTileId from, PhysTileId to, time_us when);

  time_us last_used(PhysTileId tile) const {
    return tiles_[checked(tile)].last_used;
  }
  double value_of(PhysTileId tile) const { return tiles_[checked(tile)].value; }

 private:
  struct Tile {
    ConfigId config = k_no_config;
    time_us last_used = 0;
    double value = 0.0;
  };
  /// `tile` as an index into tiles_. The accessors above are inline — the
  /// replacement module reads them for every candidate tile of every bind —
  /// so the throw stays out of line.
  std::size_t checked(PhysTileId tile) const {
    if (tile < 0 || static_cast<std::size_t>(tile) >= tiles_.size())
      throw_out_of_range();
    return static_cast<std::size_t>(tile);
  }
  [[noreturn]] static void throw_out_of_range();
  /// Puts `config` on `state`, keeping resident_ in step.
  void set_config(Tile& state, ConfigId config);
  std::vector<Tile> tiles_;
  /// Per configuration id: how many tiles hold it. Grows to the highest
  /// id ever loaded and keeps that size.
  std::vector<int> resident_;
};

}  // namespace drhw
