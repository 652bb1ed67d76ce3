#include "net/protocols/subgroup.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "net/network.h"

namespace anr::net {

namespace {

constexpr int kReach = 1;   // ints = {hops}
constexpr int kStatus = 2;  // ints = {reached ? 1 : 0, boundary_hops}
constexpr int kElect = 3;   // ints = {hop_of_ref, ref, candidate_root}

constexpr int kInf = 1 << 28;

using Key = std::array<int, 3>;  // (hop of reference, reference id, root id)

}  // namespace

SubgroupResult run_subgroup_detection(
    const TriangleMesh& mesh, const std::vector<char>& is_boundary,
    const std::function<bool(VertexId, VertexId)>& survives, int max_delay,
    std::uint64_t delay_seed, double loss_rate, std::uint64_t loss_seed) {
  const int n = static_cast<int>(mesh.num_vertices());
  ANR_CHECK(is_boundary.size() == static_cast<std::size_t>(n));
  ANR_CHECK(max_delay >= 1);
  ANR_CHECK(loss_rate >= 0.0 && loss_rate < 1.0);

  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(n));
  for (const EdgeKey& e : mesh.edges()) {
    adj[static_cast<std::size_t>(e.a)].push_back(e.b);
    adj[static_cast<std::size_t>(e.b)].push_back(e.a);
  }
  Network net(adj);
  if (max_delay > 1) net.set_link_delays(max_delay, delay_seed);
  if (loss_rate > 0.0) {
    // A lossy channel needs the ack/retransmit layer underneath or the
    // BFS flood silently under-reaches; the protocol itself is unchanged.
    net.set_message_loss(loss_rate, loss_seed);
    net.set_reliable_default(true);
  }

  SubgroupResult out;
  out.boundary_hops.assign(static_cast<std::size_t>(n), -1);
  out.reached.assign(static_cast<std::size_t>(n), 0);
  out.subgroup_root.assign(static_cast<std::size_t>(n), -1);
  out.reference.assign(static_cast<std::size_t>(n), -1);

  // The quiescence cap pays for retransmission stretch under loss: each
  // hop may wait out the full retry schedule before its message lands.
  const std::size_t kMaxRounds = (8 * static_cast<std::size_t>(n) + 64) *
                                 static_cast<std::size_t>(max_delay) *
                                 (loss_rate > 0.0 ? 18 : 1);

  auto forward_reach = [&](int v, int hops) {
    for (NodeId u : net.neighbors(v)) {
      if (survives(v, u)) {
        Message m;
        m.tag = kReach;
        m.ints = {hops};
        net.send(v, u, std::move(m));
      }
    }
  };

  // --- Phase A: BFS flood from boundary vertices over surviving links.
  // Improvement-driven flooding is monotone, so arbitrary per-message
  // delays change neither termination nor the final hop values.
  for (int v = 0; v < n; ++v) {
    if (is_boundary[static_cast<std::size_t>(v)]) {
      out.boundary_hops[static_cast<std::size_t>(v)] = 0;
      out.reached[static_cast<std::size_t>(v)] = 1;
      forward_reach(v, 1);
    }
  }
  std::size_t round = 0;
  std::vector<Message> inbox;
  while (!net.quiescent()) {
    ANR_CHECK_MSG(++round < kMaxRounds, "subgroup phase A did not quiesce");
    net.deliver_round();
    for (int v = 0; v < n; ++v) {
      net.take_inbox(v, inbox);
      for (Message& m : inbox) {
        if (m.tag != kReach) continue;
        int hops = m.ints[0];
        int& cur = out.boundary_hops[static_cast<std::size_t>(v)];
        if (cur >= 0 && cur <= hops) continue;  // no improvement: stop here
        cur = hops;
        out.reached[static_cast<std::size_t>(v)] = 1;
        forward_reach(v, hops + 1);
      }
    }
  }

  // --- Phase B prologue: one status broadcast so neighbors learn both
  // reachability and boundary hops (drained fully, tolerating delays).
  std::vector<std::vector<char>> nbr_reached(static_cast<std::size_t>(n));
  std::vector<Key> local(static_cast<std::size_t>(n), Key{kInf, kInf, kInf});
  for (int v = 0; v < n; ++v) {
    nbr_reached[static_cast<std::size_t>(v)].assign(net.neighbors(v).size(), 0);
    local[static_cast<std::size_t>(v)][2] = v;  // fallback root = self
    Message m;
    m.tag = kStatus;
    m.ints = {out.reached[static_cast<std::size_t>(v)] ? 1 : 0,
              out.boundary_hops[static_cast<std::size_t>(v)]};
    net.broadcast(v, m);
  }
  round = 0;
  while (!net.quiescent()) {
    ANR_CHECK_MSG(++round < kMaxRounds, "subgroup status did not quiesce");
    net.deliver_round();
    for (int v = 0; v < n; ++v) {
      net.take_inbox(v, inbox);
      for (Message& m : inbox) {
        if (m.tag != kStatus) continue;
        const auto& nb = net.neighbors(v);
        auto it = std::lower_bound(nb.begin(), nb.end(), m.src);
        nbr_reached[static_cast<std::size_t>(v)]
                   [static_cast<std::size_t>(it - nb.begin())] =
                       static_cast<char>(m.ints[0]);
        if (!out.reached[static_cast<std::size_t>(v)] && m.ints[0] == 1) {
          Key cand{m.ints[1], m.src, v};
          local[static_cast<std::size_t>(v)] =
              std::min(local[static_cast<std::size_t>(v)], cand);
        }
      }
    }
  }

  // --- Phase B: min-key election inside each unreached component.
  // Key = (hop of best reached M1 neighbor, that neighbor, candidate root).
  std::vector<Key> best(static_cast<std::size_t>(n), Key{kInf, kInf, kInf});
  auto flood_key = [&](int v, const Key& k) {
    const auto& nb = net.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (nbr_reached[static_cast<std::size_t>(v)][i]) continue;  // stay inside
      Message m;
      m.tag = kElect;
      m.ints = {k[0], k[1], k[2]};
      net.send(v, nb[i], std::move(m));
    }
  };
  for (int v = 0; v < n; ++v) {
    if (out.reached[static_cast<std::size_t>(v)]) continue;
    best[static_cast<std::size_t>(v)] = local[static_cast<std::size_t>(v)];
    flood_key(v, best[static_cast<std::size_t>(v)]);
  }
  round = 0;
  while (!net.quiescent()) {
    ANR_CHECK_MSG(++round < kMaxRounds, "subgroup phase B did not quiesce");
    net.deliver_round();
    for (int v = 0; v < n; ++v) {
      net.take_inbox(v, inbox);
      for (Message& m : inbox) {
        if (m.tag != kElect) continue;
        if (out.reached[static_cast<std::size_t>(v)]) continue;
        Key k{m.ints[0], m.ints[1], m.ints[2]};
        if (k < best[static_cast<std::size_t>(v)]) {
          best[static_cast<std::size_t>(v)] = k;
          flood_key(v, k);
        }
      }
    }
  }
  for (int v = 0; v < n; ++v) {
    if (out.reached[static_cast<std::size_t>(v)]) continue;
    const Key& k = best[static_cast<std::size_t>(v)];
    out.subgroup_root[static_cast<std::size_t>(v)] = k[2];
    out.reference[static_cast<std::size_t>(v)] = k[1] >= kInf ? -1 : k[1];
  }
  out.messages = net.messages_sent();
  out.rounds = net.rounds_elapsed();
  return out;
}

}  // namespace anr::net
