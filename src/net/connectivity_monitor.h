// Online connectivity guard for march execution.
//
// The execution engine needs two verdicts per tick: is the alive network
// connected *right now* (Def. 2, the hard guarantee), and is it still
// connected under a shrunk guard radius (the early warning that triggers
// pause-and-wait before the hard guarantee is lost — gaps grow by at most
// one tick's travel, so a guard margin below 1.0 always fires first).
//
// Both verdicts come from one minimax (bottleneck) spanning pass: Prim
// over squared distances on the complete graph with the dropped links
// removed yields b², the smallest squared radius at which the robots form
// one component. Each verdict is then a single comparison against a
// squared radius with the inclusive 1e-12 slack of GridIndex::visit_radius
// and GridConnectivity, so the booleans equal net::is_connected on
// the unit-disk graph with the dropped edges erased, at any radius.
#pragma once

#include <utility>
#include <vector>

#include "geom/vec2.h"

namespace anr::net {

class ConnectivityMonitor {
 public:
  explicit ConnectivityMonitor(double r_c);

  struct Verdict {
    bool connected = true;  ///< one component at the effective radius
    bool guard_ok = true;   ///< one component at guard_factor * radius
  };

  /// Assesses `pts` (the alive robots) with the communication range
  /// scaled by `range_factor`, the given links (index pairs into `pts`;
  /// pairs outside [0, n) are ignored) forced down, and the early-warning
  /// radius scaled by `guard_factor` in (0, 1]. O(n²), allocation-free
  /// once the scratch has grown to n.
  Verdict assess(const std::vector<Vec2>& pts, double range_factor,
                 const std::vector<std::pair<int, int>>& dropped_links,
                 double guard_factor);

  double comm_range() const { return r_c_; }

 private:
  double r_c_;
  // Prim scratch: squared distance to the tree, robots outside it, and
  // per-step marks of the newest tree robot's dropped partners.
  std::vector<double> best_;
  std::vector<std::size_t> rest_;
  std::vector<std::size_t> blocked_;
};

}  // namespace anr::net
