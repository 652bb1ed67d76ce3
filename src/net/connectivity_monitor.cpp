#include "net/connectivity_monitor.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace anr::net {

ConnectivityMonitor::ConnectivityMonitor(double r_c) : r_c_(r_c) {
  ANR_CHECK(r_c_ > 0.0);
}

ConnectivityMonitor::Verdict ConnectivityMonitor::assess(
    const std::vector<Vec2>& pts, double range_factor,
    const std::vector<std::pair<int, int>>& dropped_links,
    double guard_factor) {
  ANR_CHECK_MSG(guard_factor > 0.0 && guard_factor <= 1.0,
                "guard factor must be in (0, 1]");
  Verdict v;
  const std::size_t n = pts.size();
  if (n <= 1) return v;
  const double r_eff = r_c_ * range_factor;
  const double r_guard = r_eff * guard_factor;
  const double limit = r_eff * r_eff + 1e-12;

  // Prim on squared distances: rest_ holds the robots outside the tree,
  // best_ their squared distance to it, and the largest edge added is b².
  // A dropped link is never relaxed, so an unreachable robot leaves b²
  // infinite. Once b² passes the hard limit both verdicts are false.
  best_.assign(n, std::numeric_limits<double>::infinity());
  blocked_.assign(n, 0);
  rest_.resize(n - 1);
  std::iota(rest_.begin(), rest_.end(), std::size_t{1});
  std::size_t u = 0;
  double b2 = 0.0;
  for (std::size_t step = 1; !rest_.empty() && b2 <= limit; ++step) {
    const int ui = static_cast<int>(u);
    for (const auto& [a, b] : dropped_links) {
      const int other = a == ui ? b : b == ui ? a : -1;
      if (other >= 0 && static_cast<std::size_t>(other) < n) {
        blocked_[static_cast<std::size_t>(other)] = step;
      }
    }
    std::size_t pick = 0;
    for (std::size_t k = 0; k < rest_.size(); ++k) {
      const std::size_t w = rest_[k];
      if (blocked_[w] != step) {
        best_[w] = std::min(best_[w], distance2(pts[u], pts[w]));
      }
      if (best_[w] < best_[rest_[pick]]) pick = k;
    }
    u = rest_[pick];
    b2 = std::max(b2, best_[u]);
    rest_[pick] = rest_.back();
    rest_.pop_back();
  }

  v.connected = b2 <= limit;
  v.guard_ok = v.connected && b2 <= r_guard * r_guard + 1e-12;
  return v;
}

}  // namespace anr::net
