#include "net/protocols/gossip.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/check.h"

namespace anr::net {

namespace {
constexpr int kEstimate = 1;  // ints = {degree, round}, reals = {value}
}

GossipResult run_gossip_mean(Network& net, const std::vector<double>& values,
                             int rounds) {
  const int n = net.size();
  ANR_CHECK(values.size() == static_cast<std::size_t>(n));
  ANR_CHECK(rounds >= 1);

  GossipResult out;
  out.estimates = values;

  // Metropolis–Hastings weights, w_uv = 1 / (1 + max(deg_u, deg_v)),
  // make the iteration doubly stochastic: the fixed point is the exact
  // arithmetic mean on any connected topology (plain neighborhood
  // averaging would converge to a degree-weighted mean instead).
  //
  // Messages are round-tagged and each node runs lockstep: it buffers
  // incoming (round, sender) values and computes gossip round k only
  // once every round-k neighbor value has arrived. Neighbors may be many
  // network rounds apart, but each node consumes exactly the synchronous
  // schedule's inputs in sorted neighbor order — so the estimates are
  // byte-identical to the synchronous run under any link delay, and
  // under message loss when the channel retransmits (reliable mode).
  std::vector<int> at(static_cast<std::size_t>(n), 0);  // rounds completed
  std::vector<std::map<int, std::map<NodeId, std::pair<int, double>>>> buf(
      static_cast<std::size_t>(n));

  auto broadcast_round = [&](int v, int round) {
    Message m;
    m.tag = kEstimate;
    m.ints = {static_cast<int>(net.neighbors(v).size()), round};
    m.reals = {out.estimates[static_cast<std::size_t>(v)]};
    net.broadcast(v, m);
  };
  auto advance = [&](int v) {
    while (at[static_cast<std::size_t>(v)] < rounds) {
      const int k = at[static_cast<std::size_t>(v)];
      const std::size_t deg = net.neighbors(v).size();
      auto& per_round = buf[static_cast<std::size_t>(v)];
      auto it = per_round.find(k);
      const std::size_t have = it == per_round.end() ? 0 : it->second.size();
      if (have < deg) break;
      const double deg_v = static_cast<double>(deg);
      const double own = out.estimates[static_cast<std::size_t>(v)];
      double next = own;
      if (it != per_round.end()) {
        for (const auto& [u, dv] : it->second) {  // sorted by sender id
          const double w =
              1.0 / (1.0 + std::max(deg_v, static_cast<double>(dv.first)));
          next += w * (dv.second - own);
        }
        per_round.erase(it);
      }
      out.estimates[static_cast<std::size_t>(v)] = next;
      ++at[static_cast<std::size_t>(v)];
      if (at[static_cast<std::size_t>(v)] < rounds) {
        broadcast_round(v, at[static_cast<std::size_t>(v)]);
      }
    }
  };

  for (int v = 0; v < n; ++v) broadcast_round(v, 0);
  for (int v = 0; v < n; ++v) advance(v);  // degree-0 nodes finish here

  // Generous bound: lossless synchronous runs use exactly `rounds`
  // network rounds; delay/retransmission stretch that by a constant.
  const std::size_t max_net_rounds =
      static_cast<std::size_t>(rounds) * 256 +
      64 * static_cast<std::size_t>(n) + 512;
  std::size_t spent = 0;
  auto all_done = [&]() {
    for (int v = 0; v < n; ++v) {
      if (at[static_cast<std::size_t>(v)] < rounds) return false;
    }
    return true;
  };
  std::vector<Message> inbox;
  while (!all_done() && spent < max_net_rounds) {
    net.deliver_round();
    ++spent;
    for (int v = 0; v < n; ++v) {
      net.take_inbox(v, inbox);
      for (const Message& m : inbox) {
        if (m.tag != kEstimate) continue;
        buf[static_cast<std::size_t>(v)][m.ints[1]][m.src] = {m.ints[0],
                                                              m.reals[0]};
      }
      advance(v);
    }
  }

  double mean = 0.0;
  for (double x : values) mean += x;
  mean /= static_cast<double>(std::max(n, 1));
  for (double e : out.estimates) {
    out.max_relative_error = std::max(
        out.max_relative_error, std::abs(e - mean) / (std::abs(mean) + 1.0));
  }
  out.messages = net.messages_sent();
  out.rounds = net.rounds_elapsed();
  return out;
}

}  // namespace anr::net
