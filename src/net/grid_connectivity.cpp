#include "net/grid_connectivity.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace anr::net {

GridConnectivity::GridConnectivity(double r) : r_(r) { ANR_CHECK(r_ > 0.0); }

bool GridConnectivity::connected(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  if (n <= 1) return true;
  const double limit = r_ * r_ + 1e-12;

  double lo_x = pts[0].x, hi_x = lo_x, lo_y = pts[0].y, hi_y = lo_y;
  for (const Vec2& p : pts) {
    lo_x = std::min(lo_x, p.x);
    hi_x = std::max(hi_x, p.x);
    lo_y = std::min(lo_y, p.y);
    hi_y = std::max(hi_y, p.y);
  }
  // A linked pair is at most sqrt(limit) apart on each axis. The cell
  // exceeds that by more than the rounding of the cell arithmetic below
  // (a few ulps of the largest coordinate), so linked robots always sit
  // in the same or adjacent cells. A widely spread swarm coarsens the
  // cells until their count stays linear in n.
  const double magnitude = std::max(std::max(std::abs(lo_x), std::abs(hi_x)),
                                    std::max(std::abs(lo_y), std::abs(hi_y)));
  double cell = std::sqrt(limit) + 1e-9 + 1e-15 * magnitude;
  double inv = 1.0 / cell;
  const double max_cells = 4.0 * static_cast<double>(n) + 64.0;
  while (((hi_x - lo_x) * inv + 1.0) * ((hi_y - lo_y) * inv + 1.0) >
         max_cells) {
    cell *= 2.0;
    inv = 1.0 / cell;
  }
  // One ring of empty padding cells keeps every 3×3 scan in range.
  const std::size_t nx = static_cast<std::size_t>((hi_x - lo_x) * inv) + 1;
  const std::size_t ny = static_cast<std::size_t>((hi_y - lo_y) * inv) + 1;
  const std::size_t width = nx + 2;
  start_.assign(width * (ny + 2) + 1, 0);
  cell_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cx = static_cast<std::size_t>((pts[i].x - lo_x) * inv) + 1;
    const std::size_t cy = static_cast<std::size_t>((pts[i].y - lo_y) * inv) + 1;
    cell_of_[i] = static_cast<int>(cx + cy * width);
    ++start_[static_cast<std::size_t>(cell_of_[i]) + 1];
  }
  for (std::size_t c = 1; c < start_.size(); ++c) start_[c] += start_[c - 1];
  cursor_.assign(start_.begin(), start_.end() - 1);
  ids_.resize(n);
  sorted_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = static_cast<std::size_t>(
        cursor_[static_cast<std::size_t>(cell_of_[i])]++);
    ids_[k] = static_cast<int>(i);
    sorted_[k] = pts[i];
  }

  visited_.assign(n, 0);
  queue_.clear();
  queue_.push_back(0);
  visited_[0] = 1;
  for (std::size_t head = 0; head < queue_.size() && queue_.size() < n;
       ++head) {
    const std::size_t v = static_cast<std::size_t>(queue_[head]);
    const Vec2 p = pts[v];
    // Rows cy-1..cy+1; each row's cells cx-1..cx+1 are contiguous.
    const std::size_t c = static_cast<std::size_t>(cell_of_[v]);
    for (std::size_t row = c - width - 1; row <= c + width - 1; row += width) {
      const int end = start_[row + 3];
      for (int k = start_[row]; k < end; ++k) {
        const std::size_t u = static_cast<std::size_t>(ids_[static_cast<std::size_t>(k)]);
        if (visited_[u] ||
            distance2(p, sorted_[static_cast<std::size_t>(k)]) > limit) {
          continue;
        }
        visited_[u] = 1;
        queue_.push_back(static_cast<int>(u));
      }
    }
  }
  return queue_.size() == n;
}

}  // namespace anr::net
