// Allocation-free unit-disk connectivity for hot loops.
//
// The planner asks "is this configuration connected at r_c?" hundreds of
// times per plan: the terrain transition guard samples every plan at 257
// instants per straightening pass, and the connectivity-safe adjustment
// (Sec. III-D-1) probes the full Lloyd move and its halved retries. Each
// check buckets the robots into a padded grid of cells at least one link
// long (a counting sort into buffers kept from the previous call) and
// runs a BFS that scans only the 3×3 cells around each reached robot —
// no adjacency is materialized, and the search stops as soon as every
// robot is reached. Near-linear in the robot count at bounded density,
// where a bottleneck (minimax spanning) pass is O(n²).
//
// The link rule is the inclusive d² ≤ r² + 1e-12 of unit_disk_adjacency
// and net::ConnectivityMonitor, so the verdict equals
// net::is_connected(pts, r) and ConnectivityMonitor::assess(pts, 1, {},
// 1).connected.
#pragma once

#include <vector>

#include "geom/vec2.h"

namespace anr::net {

class GridConnectivity {
 public:
  explicit GridConnectivity(double r);

  /// Connectivity of the unit-disk graph over `pts` with range r (an
  /// empty or single-robot swarm is connected). Allocation-free once the
  /// buffers have grown to the swarm size.
  bool connected(const std::vector<Vec2>& pts);

 private:
  double r_;
  // Cell buckets: robots of cell c are ids_[start_[c] .. start_[c+1]),
  // with their positions copied alongside in cell order.
  std::vector<int> start_, cursor_, cell_of_, ids_;
  std::vector<Vec2> sorted_;
  std::vector<int> queue_;
  std::vector<char> visited_;
};

}  // namespace anr::net
