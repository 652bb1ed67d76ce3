#include "net/protocols/boundary_walk.h"

#include <algorithm>

#include "common/check.h"
#include "net/network.h"

namespace anr::net {

namespace {

// Message tags.
constexpr int kToken = 1;   // ints = {origin, hops}
constexpr int kAssign = 2;  // ints = {leader, size, hop_of_receiver}

struct NodeState {
  // The (at most two) boundary neighbors of this vertex; empty when the
  // vertex is not on a boundary.
  std::vector<VertexId> bnbr;
  int hop = -1;
  int loop_size = 0;
  int leader = -1;
};

}  // namespace

BoundaryWalkResult run_boundary_walk(const TriangleMesh& mesh, int max_delay,
                                     std::uint64_t delay_seed) {
  const int n = static_cast<int>(mesh.num_vertices());

  // Topology: all mesh edges are communication links.
  std::vector<std::vector<NodeId>> adj(static_cast<std::size_t>(n));
  for (const EdgeKey& e : mesh.edges()) {
    adj[static_cast<std::size_t>(e.a)].push_back(e.b);
    adj[static_cast<std::size_t>(e.b)].push_back(e.a);
  }
  Network net(std::move(adj));
  if (max_delay > 1) net.set_link_delays(max_delay, delay_seed);

  // Local knowledge: incident boundary edges. In deployment this comes
  // from the 1-hop triangle-fan exchange the triangulation-extraction
  // phase already performs.
  std::vector<NodeState> st(static_cast<std::size_t>(n));
  for (const EdgeKey& e : mesh.boundary_edges()) {
    st[static_cast<std::size_t>(e.a)].bnbr.push_back(e.b);
    st[static_cast<std::size_t>(e.b)].bnbr.push_back(e.a);
  }
  for (int v = 0; v < n; ++v) {
    auto& nb = st[static_cast<std::size_t>(v)].bnbr;
    std::sort(nb.begin(), nb.end());
    ANR_CHECK_MSG(nb.empty() || nb.size() == 2,
                  "boundary vertex without exactly 2 boundary neighbors");
  }

  auto next_along = [&](int v, int from) {
    const auto& nb = st[static_cast<std::size_t>(v)].bnbr;
    return nb[0] == from ? nb[1] : nb[0];
  };

  // Kick-off: every boundary vertex launches an election token toward its
  // smaller-id boundary neighbor.
  for (int v = 0; v < n; ++v) {
    const auto& nb = st[static_cast<std::size_t>(v)].bnbr;
    if (nb.empty()) continue;
    Message m;
    m.tag = kToken;
    m.ints = {v, 1};
    net.send(v, nb[0], std::move(m));
  }

  const std::size_t kMaxRounds =
      (16 * static_cast<std::size_t>(n) + 64) *
      static_cast<std::size_t>(max_delay);
  std::size_t round = 0;
  std::vector<Message> inbox;
  while (!net.quiescent()) {
    ANR_CHECK_MSG(++round < kMaxRounds, "boundary walk did not quiesce");
    net.deliver_round();
    for (int v = 0; v < n; ++v) {
      net.take_inbox(v, inbox);
      for (Message& m : inbox) {
        NodeState& s = st[static_cast<std::size_t>(v)];
        if (m.tag == kToken) {
          int origin = m.ints[0];
          int hops = m.ints[1];
          if (origin == v) {
            // Token made the full lap: v is the loop leader and `hops`
            // is the loop size. Start the assignment lap.
            s.leader = v;
            s.loop_size = hops;
            s.hop = 0;
            Message a;
            a.tag = kAssign;
            a.ints = {v, hops, 1};
            net.send(v, s.bnbr[0], std::move(a));
          } else if (origin < v) {
            Message fwd;
            fwd.tag = kToken;
            fwd.ints = {origin, hops + 1};
            net.send(v, next_along(v, m.src), std::move(fwd));
          }
          // origin > v: a smaller vertex exists on this loop; drop.
        } else if (m.tag == kAssign) {
          int leader = m.ints[0];
          int size = m.ints[1];
          int hop = m.ints[2];
          if (v == leader) continue;  // lap complete
          s.leader = leader;
          s.loop_size = size;
          s.hop = hop;
          Message fwd;
          fwd.tag = kAssign;
          fwd.ints = {leader, size, hop + 1};
          net.send(v, next_along(v, m.src), std::move(fwd));
        }
      }
    }
  }

  BoundaryWalkResult out;
  out.hop.resize(static_cast<std::size_t>(n));
  out.loop_size.resize(static_cast<std::size_t>(n));
  out.loop_leader.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const NodeState& s = st[static_cast<std::size_t>(v)];
    out.hop[static_cast<std::size_t>(v)] = s.hop;
    out.loop_size[static_cast<std::size_t>(v)] = s.loop_size;
    out.loop_leader[static_cast<std::size_t>(v)] = s.leader;
    ANR_CHECK_MSG(s.bnbr.empty() == (s.hop < 0),
                  "boundary vertex left unparametrized");
  }
  out.messages = net.messages_sent();
  out.rounds = net.rounds_elapsed();
  return out;
}

}  // namespace anr::net
