#include "net/protocols/relax.h"

#include <algorithm>

#include "common/check.h"
#include "net/network.h"

namespace anr::net {

namespace {
constexpr int kPos = 1;  // reals = {x, y}
}

RelaxResult run_distributed_relax(const TriangleMesh& mesh,
                                  const std::vector<Vec2>& initial,
                                  const std::vector<char>& fixed,
                                  double tol, std::size_t max_rounds) {
  const int n = static_cast<int>(mesh.num_vertices());
  ANR_CHECK(initial.size() == static_cast<std::size_t>(n));
  ANR_CHECK(fixed.size() == static_cast<std::size_t>(n));

  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(n));
  for (const EdgeKey& e : mesh.edges()) {
    adj[static_cast<std::size_t>(e.a)].push_back(e.b);
    adj[static_cast<std::size_t>(e.b)].push_back(e.a);
  }
  Network net(std::move(adj));

  RelaxResult out;
  out.positions = initial;

  auto broadcast_positions = [&]() {
    for (int v = 0; v < n; ++v) {
      Message m;
      m.tag = kPos;
      m.reals = {out.positions[static_cast<std::size_t>(v)].x,
                 out.positions[static_cast<std::size_t>(v)].y};
      net.broadcast(v, m);
    }
  };

  broadcast_positions();
  std::vector<Message> inbox;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    net.deliver_round();
    double max_move = 0.0;
    for (int v = 0; v < n; ++v) {
      net.take_inbox(v, inbox);
      if (fixed[static_cast<std::size_t>(v)] || inbox.empty()) continue;
      Vec2 avg{};
      int cnt = 0;
      for (const Message& m : inbox) {
        if (m.tag != kPos) continue;
        avg += Vec2{m.reals[0], m.reals[1]};
        ++cnt;
      }
      if (cnt == 0) continue;
      avg = avg / static_cast<double>(cnt);
      max_move = std::max(
          max_move, distance(avg, out.positions[static_cast<std::size_t>(v)]));
      out.positions[static_cast<std::size_t>(v)] = avg;
    }
    if (max_move <= tol) {
      out.converged = true;
      break;
    }
    broadcast_positions();
  }
  out.messages = net.messages_sent();
  out.rounds = net.rounds_elapsed();
  return out;
}

}  // namespace anr::net
