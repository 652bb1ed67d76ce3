// Round-based network simulator: delivery semantics, topology guards,
// unit-disk graph and connectivity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "fault/fault_model.h"
#include "fault/fault_schedule.h"
#include "net/connectivity.h"
#include "net/connectivity_monitor.h"
#include "net/fault_bridge.h"
#include "net/grid_connectivity.h"
#include "net/network.h"
#include "net/unit_disk_graph.h"
#include "test_util.h"

namespace anr::net {
namespace {

TEST(UnitDiskGraph, Adjacency) {
  std::vector<Vec2> pos{{0, 0}, {5, 0}, {11, 0}};
  auto adj = unit_disk_adjacency(pos, 6.0);
  EXPECT_EQ(adj[0], (std::vector<int>{1}));
  EXPECT_EQ(adj[1], (std::vector<int>{0, 2}));
  EXPECT_EQ(adj[2], (std::vector<int>{1}));
}

TEST(UnitDiskGraph, RangeIsInclusive) {
  std::vector<Vec2> pos{{0, 0}, {10, 0}};
  EXPECT_EQ(unit_disk_edges(pos, 10.0).size(), 1u);
  EXPECT_TRUE(unit_disk_edges(pos, 9.999).empty());
}

TEST(UnitDiskGraph, EdgesMatchBruteForce) {
  auto pos = testutil::random_points(150, 0.0, 100.0, 21);
  double r = 15.0;
  auto edges = unit_disk_edges(pos, r);
  std::size_t brute = 0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (distance(pos[i], pos[j]) <= r + 1e-12) ++brute;
    }
  }
  EXPECT_EQ(edges.size(), brute);
}

TEST(UnitDiskGraph, AdjacencyRowsAreSorted) {
  auto pos = testutil::random_points(200, 0.0, 100.0, 33);
  auto adj = unit_disk_adjacency(pos, 20.0);
  for (const auto& row : adj) {
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
}

TEST(GridConnectivity, MatchesBatchCheckerUnderDrift) {
  // Random walks of the swarm, including radius regimes where the verdict
  // flips: the reused checker must agree with net::is_connected at every
  // step.
  Rng rng(77);
  for (double r : {8.0, 14.0, 25.0}) {
    auto pos = testutil::random_points(60, 0.0, 100.0, 13);
    net::GridConnectivity inc(r);
    for (int step = 0; step < 40; ++step) {
      for (Vec2& p : pos) {
        p.x += rng.uniform(-1.5, 1.5);
        p.y += rng.uniform(-1.5, 1.5);
      }
      EXPECT_EQ(inc.connected(pos), net::is_connected(pos, r))
          << "r=" << r << " step=" << step;
    }
  }
}

TEST(GridConnectivity, HandlesResizeAndDegenerate) {
  net::GridConnectivity inc(5.0);
  EXPECT_TRUE(inc.connected({}));            // empty swarm is trivially connected
  EXPECT_TRUE(inc.connected({{1.0, 1.0}}));  // single robot
  std::vector<Vec2> two = {{0.0, 0.0}, {10.0, 0.0}};
  EXPECT_FALSE(inc.connected(two));
  two[1] = {4.0, 0.0};
  EXPECT_TRUE(inc.connected(two));
  // Grow the swarm mid-stream: the buffers must regrow, not crash.
  std::vector<Vec2> three = {{0.0, 0.0}, {4.0, 0.0}, {8.0, 0.0}};
  EXPECT_TRUE(inc.connected(three));
}

// Reference verdict for ConnectivityMonitor: the unit-disk adjacency at
// the given radius with the dropped pairs erased (out-of-range pairs are
// ignored), then BFS.
bool reference_connected(const std::vector<Vec2>& pts, double r,
                         const std::vector<std::pair<int, int>>& dropped) {
  if (pts.size() <= 1) return true;
  auto adj = unit_disk_adjacency(pts, r);
  const int n = static_cast<int>(pts.size());
  for (const auto& [a, b] : dropped) {
    if (a < 0 || b < 0 || a >= n || b >= n) continue;
    auto& na = adj[static_cast<std::size_t>(a)];
    auto& nb = adj[static_cast<std::size_t>(b)];
    na.erase(std::remove(na.begin(), na.end(), b), na.end());
    nb.erase(std::remove(nb.begin(), nb.end(), a), nb.end());
  }
  return is_connected(adj);
}

struct VerdictTally {
  int connected = 0, split = 0, guard_ok = 0, guard_tripped = 0;
};

void expect_matches_reference(ConnectivityMonitor& monitor,
                              const std::vector<Vec2>& pts,
                              double range_factor,
                              const std::vector<std::pair<int, int>>& dropped,
                              double guard_factor, VerdictTally& tally) {
  const double r_eff = monitor.comm_range() * range_factor;
  const bool connected = reference_connected(pts, r_eff, dropped);
  const bool guard_ok =
      connected && reference_connected(pts, r_eff * guard_factor, dropped);
  const ConnectivityMonitor::Verdict v =
      monitor.assess(pts, range_factor, dropped, guard_factor);
  EXPECT_EQ(v.connected, connected)
      << "n=" << pts.size() << " range_factor=" << range_factor
      << " guard_factor=" << guard_factor << " dropped=" << dropped.size();
  EXPECT_EQ(v.guard_ok, guard_ok)
      << "n=" << pts.size() << " range_factor=" << range_factor
      << " guard_factor=" << guard_factor << " dropped=" << dropped.size();
  ++(v.connected ? tally.connected : tally.split);
  ++(v.guard_ok ? tally.guard_ok : tally.guard_tripped);
}

/// Dropped lists that stress the pair handling: duplicates, both
/// orientations of one pair, self pairs and indices outside [0, n).
std::vector<std::vector<std::pair<int, int>>> dropped_lists(int n, Rng& rng) {
  std::vector<std::vector<std::pair<int, int>>> lists{{}};
  lists.push_back({{-1, 0}, {0, n}, {n + 5, -3}, {0, 0}});
  if (n < 2) return lists;
  std::vector<std::pair<int, int>> random_pairs;
  for (int k = 0; k < 3 * n; ++k) {
    const int a = rng.uniform_int(0, n - 1);
    const int b = rng.uniform_int(0, n - 1);
    random_pairs.emplace_back(a, b);
    if (k % 3 == 0) random_pairs.emplace_back(b, a);
    if (k % 5 == 0) random_pairs.emplace_back(a, b);
  }
  random_pairs.emplace_back(-1, 1);
  random_pairs.emplace_back(n, 0);
  lists.push_back(random_pairs);
  // Every link of robot 0 down, in both orientations: isolates it
  // whatever the radius.
  std::vector<std::pair<int, int>> isolate;
  for (int b = 1; b < n; ++b) {
    if (b % 2) {
      isolate.emplace_back(0, b);
    } else {
      isolate.emplace_back(b, 0);
    }
  }
  lists.push_back(isolate);
  return lists;
}

TEST(ConnectivityMonitor, BottleneckVerdictMatchesUnitDiskReference) {
  Rng rng(2016);
  VerdictTally tally;
  const std::vector<double> range_factors{0.55, 0.7, 0.9, 1.0};
  const std::vector<double> guard_factors{0.25, 0.6, 0.85, 0.97, 1.0};
  for (int n : {0, 1, 2, 72, 300}) {
    // Sides chosen so the unit-disk threshold of the random cloud lies
    // inside the swept radius range and both verdicts occur.
    const double side = n <= 2 ? 10.0 : 10.0 * std::sqrt(n);
    const auto pts = testutil::random_points(n, 0.0, side, 31 + n);
    for (double r_c : {8.0, 12.0, 18.0}) {
      ConnectivityMonitor monitor(r_c);
      for (const auto& dropped : dropped_lists(n, rng)) {
        for (double rf : range_factors) {
          for (double gf : guard_factors) {
            expect_matches_reference(monitor, pts, rf, dropped, gf, tally);
          }
        }
      }
    }
  }
  EXPECT_GT(tally.connected, 0);
  EXPECT_GT(tally.split, 0);
  EXPECT_GT(tally.guard_ok, 0);
  EXPECT_GT(tally.guard_tripped, 0);
}

TEST(ConnectivityMonitor, LatticeTiesFollowTheInclusiveRule) {
  // Lattice spacing exactly equal to the radius: every lattice link sits
  // on the inclusive bound, so a strict comparison would split the swarm.
  // A radius shrunk by a few ulps keeps the links through the 1e-12
  // slack; one shrunk by 1e-6 loses them.
  VerdictTally tally;
  Rng rng(5);
  for (double s : {2.5, 4.0, 10.0}) {
    std::vector<Vec2> lattice;
    for (int i = 0; i < 9; ++i) {
      for (int j = 0; j < 8; ++j) lattice.push_back({i * s, j * s});
    }
    const int n = static_cast<int>(lattice.size());
    for (double r_c : {s, s * (1.0 - 4e-16), s * (1.0 - 1e-6), 2.0 * s}) {
      ConnectivityMonitor monitor(r_c);
      // Guard radii that land exactly on the spacing when r_c = 2s.
      for (double gf : {0.5, 0.75, 1.0}) {
        for (const auto& dropped : dropped_lists(n, rng)) {
          expect_matches_reference(monitor, lattice, 1.0, dropped, gf, tally);
        }
        // Cut the lattice along one column: a dropped-pair wall.
        std::vector<std::pair<int, int>> wall;
        for (int j = 0; j < 8; ++j) wall.emplace_back(3 * 8 + j, 4 * 8 + j);
        expect_matches_reference(monitor, lattice, 1.0, wall, gf, tally);
      }
    }
  }
  // Range factor < 1 with the lattice spaced at the degraded radius.
  {
    const double rf = 0.7;
    const double r_c = 10.0;
    const double spacing = r_c * rf;
    std::vector<Vec2> shrunk;
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 6; ++j) shrunk.push_back({i * spacing, j * spacing});
    }
    ConnectivityMonitor monitor(r_c);
    for (double gf : {0.5, 0.9, 1.0}) {
      expect_matches_reference(monitor, shrunk, rf, {}, gf, tally);
    }
  }
  // Spacing exactly r_c is connected; 1e-6 below it is not.
  {
    std::vector<Vec2> row{{0.0, 0.0}, {4.0, 0.0}, {8.0, 0.0}};
    EXPECT_TRUE(ConnectivityMonitor(4.0).assess(row, 1.0, {}, 1.0).connected);
    EXPECT_FALSE(ConnectivityMonitor(4.0 * (1.0 - 1e-6))
                     .assess(row, 1.0, {}, 1.0)
                     .connected);
    EXPECT_FALSE(
        ConnectivityMonitor(4.0).assess(row, 1.0, {{2, 1}}, 1.0).connected);
  }
  EXPECT_GT(tally.connected, 0);
  EXPECT_GT(tally.split, 0);
  EXPECT_GT(tally.guard_ok, 0);
  EXPECT_GT(tally.guard_tripped, 0);
}

TEST(ConnectivityMonitor, RejectsGuardFactorsOutsideUnitInterval) {
  ConnectivityMonitor monitor(5.0);
  const std::vector<Vec2> two{{0.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW(monitor.assess(two, 1.0, {}, 0.0), ContractViolation);
  EXPECT_THROW(monitor.assess(two, 1.0, {}, 1.5), ContractViolation);
}

TEST(Connectivity, ComponentsAndBfs) {
  // Two components: 0-1-2 and 3-4.
  std::vector<std::vector<int>> adj{{1}, {0, 2}, {1}, {4}, {3}};
  auto comp = components(adj);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_FALSE(is_connected(adj));

  auto hops = bfs_hops(adj, {0});
  EXPECT_EQ(hops, (std::vector<int>{0, 1, 2, -1, -1}));
}

TEST(Connectivity, SingleAndEmpty) {
  EXPECT_TRUE(is_connected(std::vector<std::vector<int>>{}));
  EXPECT_TRUE(is_connected(std::vector<std::vector<int>>{{}}));
}

// Drains node v's inbox into a fresh vector.
std::vector<Message> drain(Network& net, NodeId v) {
  std::vector<Message> out;
  net.take_inbox(v, out);
  return out;
}

TEST(Network, DeliversNextRound) {
  Network net(std::vector<std::vector<NodeId>>{{1}, {0}});
  Message m;
  m.tag = 42;
  m.ints = {7};
  net.send(0, 1, std::move(m));
  EXPECT_TRUE(drain(net, 1).empty());  // not delivered yet
  EXPECT_TRUE(net.deliver_round());
  auto inbox = drain(net, 1);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].tag, 42);
  EXPECT_EQ(inbox[0].src, 0);
  EXPECT_EQ(inbox[0].ints, (std::vector<int>{7}));
  EXPECT_TRUE(net.quiescent());
}

TEST(Network, RejectsOffTopologySend) {
  Network net(std::vector<std::vector<NodeId>>{{1}, {0}, {}});
  EXPECT_THROW(net.send(0, 2, Message{}), ContractViolation);
}

TEST(Network, BroadcastReachesAllNeighbors) {
  std::vector<Vec2> pos{{0, 0}, {1, 0}, {0, 1}, {50, 50}};
  Network net(pos, 2.0);
  Message m;
  m.tag = 1;
  net.broadcast(0, m);
  net.deliver_round();
  EXPECT_EQ(drain(net, 1).size(), 1u);
  EXPECT_EQ(drain(net, 2).size(), 1u);
  EXPECT_TRUE(drain(net, 3).empty());
  EXPECT_EQ(net.messages_sent(), 2u);
}

TEST(Network, DeterministicDeliveryOrder) {
  Network net(std::vector<std::vector<NodeId>>{{2}, {2}, {0, 1}});
  Message a;
  a.tag = 10;
  Message b;
  b.tag = 20;
  net.send(1, 2, std::move(b));
  net.send(0, 2, std::move(a));
  net.deliver_round();
  auto inbox = drain(net, 2);
  ASSERT_EQ(inbox.size(), 2u);
  // Sorted by sender id regardless of send order.
  EXPECT_EQ(inbox[0].src, 0);
  EXPECT_EQ(inbox[1].src, 1);
}

TEST(Network, StatsAndReset) {
  Network net(std::vector<std::vector<NodeId>>{{1}, {0}});
  net.send(0, 1, Message{});
  net.deliver_round();
  drain(net, 1);
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.rounds_elapsed(), 1u);
  net.reset_stats();
  EXPECT_EQ(net.messages_sent(), 0u);
  EXPECT_EQ(net.rounds_elapsed(), 0u);
}

TEST(Network, RejectsSelfLoopTopology) {
  EXPECT_THROW(Network(std::vector<std::vector<NodeId>>{{0}}), ContractViolation);
}

TEST(Network, QuiescenceTracksUndrainedInboxes) {
  Network net(std::vector<std::vector<NodeId>>{{1}, {0}});
  net.send(0, 1, Message{});
  net.deliver_round();
  EXPECT_FALSE(net.quiescent());  // message sits in inbox
  drain(net, 1);
  EXPECT_TRUE(net.quiescent());
}

// Lossy channel: the loss draws are a pure function of the seed and the
// send order — two identical runs lose the same messages, and a
// different seed loses different ones.
TEST(Network, SeededLossIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    Network net(std::vector<std::vector<NodeId>>{{1}, {0}});
    net.set_message_loss(0.4, seed);
    std::vector<int> got;
    for (int k = 0; k < 64; ++k) {
      Message m;
      m.tag = k;
      net.send(0, 1, std::move(m));
      net.deliver_round();
      for (const Message& d : drain(net, 1)) got.push_back(d.tag);
    }
    return got;
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a.size(), 64u);  // some messages actually died
  EXPECT_GT(a.size(), 0u);
}

// The ack/retransmit layer on a heavily lossy channel: every reliable
// message arrives exactly once — retransmitted copies are deduplicated
// by sequence number. (ARQ does not promise FIFO: a lost message's
// retransmission lands after later sends that got through first.)
TEST(Network, ReliableDeliversExactlyOnceUnderLoss) {
  Network net(std::vector<std::vector<NodeId>>{{1}, {0}});
  net.set_message_loss(0.5, 99);
  ReliabilityOptions rel;
  rel.retry_interval = 1;
  rel.max_retries = 64;
  net.set_reliability(rel);
  const int kCount = 32;
  for (int k = 0; k < kCount; ++k) {
    Message m;
    m.tag = k;
    net.send_reliable(0, 1, std::move(m));
  }
  std::vector<int> got;
  for (int round = 0; round < 400 && !net.quiescent(); ++round) {
    net.deliver_round();
    for (const Message& d : drain(net, 1)) got.push_back(d.tag);
    drain(net, 0);  // drain acks' side effects (acks are not messages)
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCount));
  std::sort(got.begin(), got.end());
  for (int k = 0; k < kCount; ++k) EXPECT_EQ(got[static_cast<std::size_t>(k)], k);
  EXPECT_GT(net.retransmissions(), 0u);
  EXPECT_EQ(net.messages_expired(), 0u);
}

// Fault-bridge regression: a scheduled kLinkDropout window suppresses
// real deliveries while active and lets traffic flow again after it
// closes. Messages in flight when the window opens are lost, not
// deferred.
TEST(Network, ScheduledLinkDropoutSuppressesDelivery) {
  fault::FaultSchedule schedule;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kLinkDropout;
  e.link_a = 0;
  e.link_b = 1;
  e.t_start = 2.0;  // rounds 2..5 inclusive at dt = 1
  e.duration = 4.0;
  schedule.add(e);
  schedule.normalize();
  const fault::FaultModel model(schedule, /*noise_seed=*/0);

  Network net(std::vector<std::vector<NodeId>>{{1}, {0}});
  net.set_link_outage(make_fault_outage(model, /*round_dt=*/1.0));

  std::vector<int> got;
  for (int k = 0; k < 10; ++k) {
    Message m;
    m.tag = k;
    net.send(0, 1, std::move(m));  // sent at round k, due at round k + 1
    net.deliver_round();
    for (const Message& d : drain(net, 1)) got.push_back(d.tag);
  }
  // Deliveries due at rounds 2..5 (tags 1..4) died in the window.
  EXPECT_EQ(got, (std::vector<int>{0, 5, 6, 7, 8, 9}));
  EXPECT_EQ(net.messages_lost(), 4u);
}

// Satellite pin: the inbox order under seeded per-message delays is (a)
// reproducible for the same seed and (b) sorted by arrival round, then
// sender id, then send order — the delivery-order contract the
// decentralized event log's byte determinism rests on.
TEST(Network, InboxOrderDeterministicUnderDelays) {
  auto run = [](std::uint64_t seed) {
    // Star: four senders, one hub.
    Network net(std::vector<std::vector<NodeId>>{
        {4}, {4}, {4}, {4}, {0, 1, 2, 3}});
    net.set_link_delays(4, seed);
    std::vector<std::pair<int, int>> got;  // (src, tag) in drain order
    for (int round = 0; round < 12; ++round) {
      if (round < 6) {
        // Deliberately send in descending-sender order each round.
        for (int s = 3; s >= 0; --s) {
          Message m;
          m.tag = round * 10 + s;
          net.send(s, 4, std::move(m));
        }
      }
      net.deliver_round();
      for (const Message& d : drain(net, 4)) got.emplace_back(d.src, d.tag);
    }
    return got;
  };
  const auto a = run(17);
  const auto b = run(17);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 24u);  // delayed, never lost
  const auto c = run(18);
  EXPECT_NE(a, c);  // a different seed schedules differently
}

// Reference model of the delivery semantics, written the direct way: the
// round's queue is copied, stable-sorted by (receiver, sender) — send
// order kept within a pair — and walked. Loss and delay draws, acks,
// retransmissions, expiry, duplicate suppression and link checks follow
// the Network contract documented in network.h, so the model and the
// Network must hand out the same inboxes in the same order.
class ReferenceNetwork {
 public:
  ReferenceNetwork(std::vector<std::vector<NodeId>> adj, int max_delay,
                   std::uint64_t delay_seed, double loss_p,
                   std::uint64_t loss_seed, ReliabilityOptions rel,
                   LinkOutageFn down)
      : adj_(std::move(adj)),
        inbox_(adj_.size()),
        seen_(adj_.size()),
        max_delay_(max_delay),
        delay_state_(delay_seed * 0x9e3779b97f4a7c15ull +
                     0xbf58476d1ce4e5b9ull),
        loss_p_(loss_p),
        loss_state_(splitmix64(loss_seed ^ 0x10551055c0ffee00ull)),
        rel_(rel),
        down_(std::move(down)) {}

  void set_topology(std::vector<std::vector<NodeId>> adj) {
    adj_ = std::move(adj);
  }
  bool linked(NodeId a, NodeId b) const {
    const auto& nb = adj_[static_cast<std::size_t>(a)];
    return std::binary_search(nb.begin(), nb.end(), b);
  }
  void send(NodeId from, NodeId to, Message m) {
    transmit(from, to, std::move(m), false, false, 0);
  }
  void send_reliable(NodeId from, NodeId to, Message m) {
    const std::uint64_t seq = next_seq_++;
    unacked_.push_back({from, to, seq, 0,
                        rounds_ + 1 +
                            static_cast<std::size_t>(rel_.retry_interval),
                        m});
    transmit(from, to, std::move(m), false, true, seq);
  }
  void deliver_round() {
    ++rounds_;
    for (std::size_t i = 0; i < unacked_.size();) {
      Unacked& u = unacked_[i];
      if (u.next_retry > rounds_) {
        ++i;
        continue;
      }
      if (u.attempts >= rel_.max_retries) {
        ++expired_;
        unacked_.erase(unacked_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++u.attempts;
      ++retransmissions_;
      u.next_retry = rounds_ + static_cast<std::size_t>(rel_.retry_interval);
      transmit(u.from, u.to, u.msg, false, true, u.seq);
      ++i;
    }
    std::vector<Pending> current;
    current.swap(queue_);
    std::stable_sort(current.begin(), current.end(),
                     [](const Pending& a, const Pending& b) {
                       if (a.to != b.to) return a.to < b.to;
                       return a.msg.src < b.msg.src;
                     });
    std::vector<Pending> later;
    for (Pending& p : current) {
      if (p.due > rounds_) {
        later.push_back(std::move(p));
        continue;
      }
      if (!linked(p.msg.src, p.to) ||
          (down_ && down_(p.msg.src, p.to, rounds_))) {
        ++lost_;
        continue;
      }
      if (p.ack) {
        for (std::size_t i = 0; i < unacked_.size(); ++i) {
          if (unacked_[i].seq == p.seq) {
            unacked_.erase(unacked_.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
        continue;
      }
      if (p.reliable) {
        if (linked(p.to, p.msg.src)) {
          transmit(p.to, p.msg.src, Message{}, true, false, p.seq);
        }
        if (!seen_[static_cast<std::size_t>(p.to)].insert(p.seq).second) {
          continue;
        }
      }
      inbox_[static_cast<std::size_t>(p.to)].push_back(std::move(p.msg));
      ++delivered_;
    }
    for (Pending& p : queue_) later.push_back(std::move(p));
    queue_ = std::move(later);
  }
  std::vector<Message> take(NodeId v) {
    return std::exchange(inbox_[static_cast<std::size_t>(v)], {});
  }

  std::size_t sent_ = 0, lost_ = 0, delivered_ = 0, retransmissions_ = 0,
              expired_ = 0;

 private:
  struct Pending {
    NodeId to;
    std::size_t due;
    bool ack;
    bool reliable;
    std::uint64_t seq;
    Message msg;
  };
  struct Unacked {
    NodeId from, to;
    std::uint64_t seq;
    int attempts;
    std::size_t next_retry;
    Message msg;
  };

  void transmit(NodeId from, NodeId to, Message m, bool ack, bool reliable,
                std::uint64_t seq) {
    m.src = from;
    ++sent_;
    if (loss_p_ > 0.0) {
      loss_state_ = splitmix64(loss_state_);
      if (static_cast<double>(loss_state_ >> 11) * 0x1.0p-53 < loss_p_) {
        ++lost_;
        return;
      }
    }
    std::size_t delay = 1;
    if (max_delay_ > 1) {
      delay_state_ += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = delay_state_;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      delay = 1 + static_cast<std::size_t>(
                      z % static_cast<std::uint64_t>(max_delay_));
    }
    queue_.push_back({to, rounds_ + delay, ack, reliable, seq, std::move(m)});
  }

  std::vector<std::vector<NodeId>> adj_;
  std::vector<std::vector<Message>> inbox_;
  std::vector<std::unordered_set<std::uint64_t>> seen_;
  std::vector<Pending> queue_;
  std::vector<Unacked> unacked_;
  int max_delay_;
  std::uint64_t delay_state_;
  double loss_p_;
  std::uint64_t loss_state_;
  ReliabilityOptions rel_;
  LinkOutageFn down_;
  std::size_t rounds_ = 0;
  std::uint64_t next_seq_ = 1;
};

// Delivery order under every hostile knob at once — multi-round delays,
// loss, acks, retransmissions and expiry, scripted outages, and a fresh
// unit-disk topology swapped in every round while traffic is in flight —
// equals the stable-sort reference message for message.
TEST(Network, DeliveryOrderMatchesStableSortReference) {
  const int n = 12;
  const double r = 30.0;
  Rng rng(2024);
  std::vector<Vec2> pos = testutil::random_points(n, 0.0, 60.0, 5);
  ReliabilityOptions rel;
  rel.retry_interval = 2;
  rel.max_retries = 3;
  // Deterministic outage: a pair is down in rounds where a hash of
  // (pair, round) falls in the lowest eighth.
  LinkOutageFn down = [](NodeId a, NodeId b, std::size_t round) {
    return splitmix64(static_cast<std::uint64_t>(a * 131 + b) * 7919u +
                      round) %
               8 ==
           0;
  };
  Network net(unit_disk_adjacency(pos, r));
  net.set_link_delays(3, 41);
  net.set_message_loss(0.15, 43);
  net.set_reliability(rel);
  net.set_link_outage(down);
  ReferenceNetwork ref(unit_disk_adjacency(pos, r), 3, 41, 0.15, 43, rel,
                       down);

  std::vector<Message> got;
  std::size_t compared = 0;
  for (int round = 0; round < 120; ++round) {
    if (round < 100) {
      for (int v = 0; v < n; ++v) {
        for (NodeId u : net.neighbors(v)) {
          const double draw = rng.uniform(0.0, 1.0);
          if (draw < 0.5) continue;
          Message m;
          m.tag = round * 1000 + v * 10 + u % 10;
          m.ints = {v, u, round};
          if (draw < 0.8) {
            ref.send(v, u, m);
            net.send(v, u, std::move(m));
          } else {
            ref.send_reliable(v, u, m);
            net.send_reliable(v, u, std::move(m));
          }
        }
      }
    }
    // Robots drift; the new topology replaces the old mid-flight.
    for (Vec2& p : pos) {
      p.x += rng.uniform(-3.0, 3.0);
      p.y += rng.uniform(-3.0, 3.0);
    }
    std::vector<std::vector<NodeId>> adj = unit_disk_adjacency(pos, r);
    ref.set_topology(adj);
    net.swap_topology(adj);
    net.deliver_round();
    ref.deliver_round();
    for (int v = 0; v < n; ++v) {
      net.take_inbox(v, got);
      const std::vector<Message> want = ref.take(v);
      ASSERT_EQ(got.size(), want.size()) << "round " << round << " node " << v;
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].src, want[k].src) << "round " << round;
        ASSERT_EQ(got[k].tag, want[k].tag) << "round " << round;
        ASSERT_EQ(got[k].ints, want[k].ints) << "round " << round;
      }
      compared += got.size();
    }
  }
  EXPECT_EQ(net.messages_sent(), ref.sent_);
  EXPECT_EQ(net.messages_lost(), ref.lost_);
  EXPECT_EQ(net.messages_delivered(), ref.delivered_);
  EXPECT_EQ(net.retransmissions(), ref.retransmissions_);
  EXPECT_EQ(net.messages_expired(), ref.expired_);
  // Every knob actually engaged.
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(net.retransmissions(), 0u);
  EXPECT_GT(net.messages_expired(), 0u);
  EXPECT_GT(net.messages_lost(), 0u);
  EXPECT_GT(net.duplicates_suppressed(), 0u);
}

// swap_topology hands the previous rows back and refuses rows the
// delivery check cannot binary-search.
TEST(Network, SwapTopologyReturnsPreviousRowsAndChecksThem) {
  Network net(std::vector<std::vector<NodeId>>{{1}, {0}, {}});
  std::vector<std::vector<NodeId>> rows{{1, 2}, {0}, {0}};
  net.swap_topology(rows);
  EXPECT_TRUE(net.linked(0, 2));
  EXPECT_EQ(rows, (std::vector<std::vector<NodeId>>{{1}, {0}, {}}));
  std::vector<std::vector<NodeId>> unsorted{{2, 1}, {0}, {0}};
  EXPECT_THROW(net.swap_topology(unsorted), ContractViolation);
  std::vector<std::vector<NodeId>> self{{0}, {}, {}};
  EXPECT_THROW(net.swap_topology(self), ContractViolation);
  std::vector<std::vector<NodeId>> wrong_size{{1}, {0}};
  EXPECT_THROW(net.swap_topology(wrong_size), ContractViolation);
}

}  // namespace
}  // namespace anr::net
