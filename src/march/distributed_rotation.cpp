#include "march/distributed_rotation.h"

#include <cmath>

#include "common/check.h"
#include "net/network.h"
#include "net/protocols/flood.h"
#include "net/unit_disk_graph.h"

namespace anr {

namespace {
constexpr int kMappedPos = 11;  // reals = {x, y}
}

DistributedRotationResult distributed_rotation_search(
    const std::function<std::vector<Vec2>(double)>& map_targets,
    const std::vector<Vec2>& positions, double r_c, MarchObjective objective,
    const RotationSearchOptions& opt) {
  ANR_CHECK(opt.initial_partitions >= 1 && opt.depth >= 0);
  const std::size_t n = positions.size();
  auto adj = net::unit_disk_adjacency(positions, r_c);

  DistributedRotationResult out;
  double r2 = r_c * r_c;
  std::vector<net::Message> inbox;

  // One probe: local mapping, 1-hop exchange, flood-sum of local counts.
  auto probe = [&](double theta) {
    std::vector<Vec2> q = map_targets(theta);
    ANR_CHECK(q.size() == n);

    net::Network net(adj);
    for (std::size_t i = 0; i < n; ++i) {
      net::Message m;
      m.tag = kMappedPos;
      m.reals = {q[i].x, q[i].y};
      net.broadcast(static_cast<int>(i), m);
    }
    net.deliver_round();
    std::vector<double> local(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      // Drained for both methods (method b does not read it).
      net.take_inbox(static_cast<int>(i), inbox);
      if (objective == MarchObjective::kMinDistance) {
        local[i] = -distance(positions[i], q[i]);
        continue;
      }
      for (const net::Message& m : inbox) {
        if (m.tag != kMappedPos) continue;
        Vec2 qj{m.reals[0], m.reals[1]};
        if (distance2(q[i], qj) <= r2 + 1e-9) local[i] += 0.5;  // each link
                                                                // counted twice
      }
    }
    out.messages += net.messages_sent();
    out.rounds += net.rounds_elapsed();

    net::Network flood_net(adj);
    auto sum = net::run_flood_sum(flood_net, local);
    out.messages += sum.messages;
    out.rounds += sum.rounds;
    ++out.evaluations;

    // Method (a): maximize preserved links (the denominator, total initial
    // links, is constant across probes — ratio ordering is unchanged).
    return sum.sum;
  };

  out.value = -1e300;
  auto consider = [&](double theta, double v) {
    if (v > out.value) {
      out.value = v;
      out.angle = theta;
    }
  };

  double seg = 2.0 * M_PI / opt.initial_partitions;
  double lo = 0.0, hi = seg;
  double best_seg = -1e300;
  for (int i = 0; i < opt.initial_partitions; ++i) {
    double a = i * seg, b = (i + 1) * seg;
    double mid = (a + b) / 2.0;
    double v = probe(mid);
    consider(mid, v);
    if (v > best_seg) {
      best_seg = v;
      lo = a;
      hi = b;
    }
  }
  for (int d = 0; d < opt.depth; ++d) {
    double mid = (lo + hi) / 2.0;
    double lmid = (lo + mid) / 2.0;
    double rmid = (mid + hi) / 2.0;
    double vl = probe(lmid);
    consider(lmid, vl);
    double vr = probe(rmid);
    consider(rmid, vr);
    if (vl >= vr) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return out;
}

}  // namespace anr
