#pragma once

/// \file port_set.hpp
/// A set of identical serialised resources (reconfiguration ports, shared
/// ISPs) with earliest-free dispatch and per-resource busy accounting.
///
/// Both timing engines — the single-instance evaluator
/// (prefetch/evaluator.hpp) and the online kernel (sim/event_sim.hpp) —
/// model the platform's N reconfiguration ports as "start the next load on
/// the earliest-free port". They used to keep private free-time vectors
/// with hand-rolled scans; sharing one class guarantees that design-time
/// estimates and the online kernel pick the *same* port when free times
/// tie (deterministic lowest-index winner), so a composed schedule never
/// diverges from its estimate over a tie-break detail. The hybrid's
/// initialization phase (evaluate_instance_plan in
/// policy/prefetch_policy.cpp) dispatches its loads through a PortSet too,
/// which is what makes the sequential rig's init_duration agree with the
/// online kernel's overlapped init loads at reconfig_ports > 1.
///
/// The online kernel additionally reuses PortSet for the shared-ISP model:
/// ISPs are just another pool of identical serialised servers.
///
/// Busy time is accounted per resource; total_busy() is the exact sum, so
/// reported utilisation can be normalised by the resource count and the
/// per-resource vector provably sums back to the total.

#include <cstddef>
#include <vector>

#include "util/check.hpp"
#include "util/time.hpp"

namespace drhw {

class PortSet {
 public:
  explicit PortSet(int count) {
    DRHW_CHECK_GE_MSG(count, 1, "a port set needs >= 1 resource");
    free_.assign(static_cast<std::size_t>(count), 0);
    busy_.assign(static_cast<std::size_t>(count), 0);
  }

  std::size_t size() const { return free_.size(); }

  /// The earliest-free resource; ties break to the lowest index (strict
  /// `<` scan), the tie-break every user of this class relies on.
  std::size_t earliest() const {
    std::size_t best = 0;
    for (std::size_t p = 1; p < free_.size(); ++p)
      if (free_[p] < free_[best]) best = p;
    return best;
  }

  time_us free_at(std::size_t port) const { return free_[port]; }

  /// True when `port` can start work at instant `t`.
  bool idle_at(std::size_t port, time_us t) const { return free_[port] <= t; }

  /// Occupies `port` from `t` for `duration`; returns the completion time.
  time_us dispatch(std::size_t port, time_us t, time_us duration) {
    DRHW_CHECK_LE_MSG(free_[port], t, "dispatch onto a busy port");
    free_[port] = t + duration;
    busy_[port] += duration;
    total_busy_ += duration;
    return free_[port];
  }

  time_us busy(std::size_t port) const { return busy_[port]; }
  time_us total_busy() const { return total_busy_; }

  /// The latest free time over all resources (the busy horizon tail).
  time_us latest_free() const {
    time_us latest = free_.front();
    for (const time_us f : free_) latest = f > latest ? f : latest;
    return latest;
  }

 private:
  std::vector<time_us> free_;
  std::vector<time_us> busy_;
  time_us total_busy_ = 0;
};

}  // namespace drhw
