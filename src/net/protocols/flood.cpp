#include "net/protocols/flood.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace anr::net {

namespace {
constexpr int kValue = 1;  // ints = {origin}, reals = {value}
}

FloodSumResult run_flood_sum(Network& net, const std::vector<double>& values) {
  const int n = net.size();
  ANR_CHECK(values.size() == static_cast<std::size_t>(n));

  // known[v][o]: value of origin o as known at node v (NaN = unknown).
  std::vector<std::vector<double>> known(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n),
                          std::numeric_limits<double>::quiet_NaN()));
  for (int v = 0; v < n; ++v) {
    known[static_cast<std::size_t>(v)][static_cast<std::size_t>(v)] =
        values[static_cast<std::size_t>(v)];
    Message m;
    m.tag = kValue;
    m.ints = {v};
    m.reals = {values[static_cast<std::size_t>(v)]};
    net.broadcast(v, m);
  }

  // Generous bound: covers asynchronous delivery (the caller may have
  // armed per-message delays on `net`).
  const std::size_t kMaxRounds = 64 * static_cast<std::size_t>(n) + 512;
  std::size_t round = 0;
  std::vector<Message> inbox;
  while (!net.quiescent()) {
    ANR_CHECK_MSG(++round < kMaxRounds, "flood did not quiesce");
    net.deliver_round();
    for (int v = 0; v < n; ++v) {
      net.take_inbox(v, inbox);
      for (Message& m : inbox) {
        if (m.tag != kValue) continue;
        int origin = m.ints[0];
        double& slot =
            known[static_cast<std::size_t>(v)][static_cast<std::size_t>(origin)];
        if (!std::isnan(slot)) continue;  // already seen: do not re-forward
        slot = m.reals[0];
        Message fwd;
        fwd.tag = kValue;
        fwd.ints = {origin};
        fwd.reals = {m.reals[0]};
        net.broadcast(v, fwd);
      }
    }
  }

  FloodSumResult out;
  out.agreed = true;
  bool first = true;
  for (int v = 0; v < n; ++v) {
    double sum = 0.0;
    bool complete = true;
    for (int o = 0; o < n; ++o) {
      double val = known[static_cast<std::size_t>(v)][static_cast<std::size_t>(o)];
      if (std::isnan(val)) {
        complete = false;
      } else {
        sum += val;
      }
    }
    if (first) {
      out.sum = sum;
      first = false;
    } else if (std::abs(sum - out.sum) > 1e-9 * (1.0 + std::abs(out.sum))) {
      out.agreed = false;
    }
    if (!complete) out.agreed = false;
  }
  out.messages = net.messages_sent();
  out.rounds = net.rounds_elapsed();
  return out;
}

}  // namespace anr::net
