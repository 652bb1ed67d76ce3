#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "net/unit_disk_graph.h"

namespace anr::net {

namespace {

/// Uniform double in [0, 1) from a 64-bit hash.
double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::size_t message_bytes(const Message& m) {
  // 16-byte header (src, tag, lengths) + 4 bytes per int + 8 per real.
  return 16 + 4 * m.ints.size() + 8 * m.reals.size();
}

Network::Network(std::vector<std::vector<NodeId>> adjacency)
    : adj_(std::move(adjacency)), inbox_(adj_.size()), seen_(adj_.size()) {
  for (std::size_t v = 0; v < adj_.size(); ++v) {
    auto& nb = adj_[v];
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    for (NodeId u : nb) {
      ANR_CHECK_MSG(u >= 0 && static_cast<std::size_t>(u) < adj_.size(),
                    "adjacency references missing node");
      ANR_CHECK_MSG(u != static_cast<NodeId>(v), "self-loop in adjacency");
    }
  }
}

Network::Network(const std::vector<Vec2>& positions, double r)
    : Network(unit_disk_adjacency(positions, r)) {}

const std::vector<NodeId>& Network::neighbors(NodeId v) const {
  return adj_[static_cast<std::size_t>(v)];
}

bool Network::linked(NodeId a, NodeId b) const {
  const auto& nb = adj_[static_cast<std::size_t>(a)];
  return std::binary_search(nb.begin(), nb.end(), b);
}

void Network::set_link_delays(int max_delay, std::uint64_t seed) {
  ANR_CHECK(max_delay >= 1);
  max_delay_ = max_delay;
  delay_state_ = seed * 0x9e3779b97f4a7c15ull + 0xbf58476d1ce4e5b9ull;
}

void Network::set_message_loss(double p, std::uint64_t seed) {
  ANR_CHECK(p >= 0.0 && p < 1.0);
  loss_p_ = p;
  loss_state_ = splitmix64(seed ^ 0x10551055c0ffee00ull);
}

void Network::set_link_outage(LinkOutageFn down) { down_ = std::move(down); }

void Network::set_reliability(ReliabilityOptions opt) {
  ANR_CHECK(opt.retry_interval >= 1);
  ANR_CHECK(opt.max_retries >= 0);
  reliability_ = opt;
}

void Network::swap_topology(std::vector<std::vector<NodeId>>& adjacency) {
  ANR_CHECK_MSG(adjacency.size() == adj_.size(),
                "topology update must keep the node count");
  const NodeId n = static_cast<NodeId>(adjacency.size());
  for (std::size_t v = 0; v < adjacency.size(); ++v) {
    NodeId prev = -1;
    for (NodeId u : adjacency[v]) {
      ANR_CHECK_MSG(u > prev && u < n, "adjacency rows must be sorted, unique "
                                       "and reference existing nodes");
      ANR_CHECK_MSG(u != static_cast<NodeId>(v), "self-loop in adjacency");
      prev = u;
    }
  }
  adj_.swap(adjacency);
}

std::uint64_t Network::next_delay_draw() {
  delay_state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = delay_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool Network::next_loss_draw() {
  if (loss_p_ <= 0.0) return false;
  loss_state_ = splitmix64(loss_state_);
  return unit_interval(loss_state_) < loss_p_;
}

void Network::transmit(NodeId from, NodeId to, Message m, PendingKind kind,
                       bool reliable, std::uint64_t seq) {
  m.src = from;
  ++messages_sent_;
  bytes_sent_ += kind == PendingKind::kAck ? 12 : message_bytes(m);
  if (next_loss_draw()) {
    ++messages_lost_;
    return;
  }
  std::size_t delay = 1;
  if (max_delay_ > 1) {
    // splitmix64-style deterministic stream.
    delay = 1 + static_cast<std::size_t>(
                    next_delay_draw() % static_cast<std::uint64_t>(max_delay_));
  }
  queue_.push_back(Pending{to, rounds_ + delay, kind, reliable, seq, std::move(m)});
}

void Network::send(NodeId from, NodeId to, Message m) {
  if (reliable_default_) {
    send_reliable(from, to, std::move(m));
    return;
  }
  ANR_CHECK_MSG(linked(from, to), "send over non-existent link");
  transmit(from, to, std::move(m), PendingKind::kData, false, 0);
}

void Network::broadcast(NodeId from, const Message& m) {
  for (NodeId to : neighbors(from)) {
    send(from, to, m);
  }
}

void Network::send_reliable(NodeId from, NodeId to, Message m) {
  ANR_CHECK_MSG(linked(from, to), "send over non-existent link");
  const std::uint64_t seq = next_seq_++;
  unacked_.push_back(Unacked{
      from, to, seq, 0,
      rounds_ + 1 + static_cast<std::size_t>(reliability_.retry_interval), m});
  transmit(from, to, std::move(m), PendingKind::kData, true, seq);
}

void Network::broadcast_reliable(NodeId from, const Message& m) {
  for (NodeId to : neighbors(from)) {
    send_reliable(from, to, m);
  }
}

bool Network::deliver_round() {
  ++rounds_;
  // Retransmission sweep: overdue unacked messages go back on the wire
  // (fresh loss/delay draws); entries past the retry budget are
  // abandoned. Insertion order keeps this deterministic.
  for (std::size_t i = 0; i < unacked_.size();) {
    Unacked& u = unacked_[i];
    if (u.next_retry > rounds_) {
      ++i;
      continue;
    }
    if (u.attempts >= reliability_.max_retries) {
      ++messages_expired_;
      unacked_.erase(unacked_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++u.attempts;
    ++retransmissions_;
    u.next_retry = rounds_ + static_cast<std::size_t>(reliability_.retry_interval);
    transmit(u.from, u.to, u.msg, PendingKind::kData, true, u.seq);
    ++i;
  }

  if (queue_.empty()) return false;
  // Deterministic delivery order: by receiver, then sender, preserving
  // send order within a pair. Only messages whose delay elapsed arrive.
  // The order is a stable two-pass counting sort of indices — by sender,
  // then by receiver — which is exactly the stable sort by (receiver,
  // sender) without moving any message.
  current_.swap(queue_);
  const std::size_t m = current_.size();
  const std::size_t nodes = adj_.size();
  auto counting_pass = [&](auto key, const std::vector<std::uint32_t>* in,
                           std::vector<std::uint32_t>& out) {
    bucket_.assign(nodes + 1, 0);
    for (const Pending& p : current_) ++bucket_[key(p) + 1];
    for (std::size_t v = 1; v <= nodes; ++v) bucket_[v] += bucket_[v - 1];
    out.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
      const std::uint32_t i =
          in != nullptr ? (*in)[k] : static_cast<std::uint32_t>(k);
      out[bucket_[key(current_[i])]++] = i;
    }
  };
  counting_pass(
      [](const Pending& p) { return static_cast<std::size_t>(p.msg.src); },
      nullptr, by_sender_);
  counting_pass([](const Pending& p) { return static_cast<std::size_t>(p.to); },
                &by_sender_, order_);

  // Not-yet-due messages go back on the queue first, in delivery order;
  // the acks generated below append after them.
  for (std::uint32_t i : order_) {
    if (current_[i].due_round > rounds_) queue_.push_back(std::move(current_[i]));
  }
  bool delivered = false;
  for (std::uint32_t i : order_) {
    Pending& p = current_[i];
    if (p.due_round > rounds_) continue;
    // The link must still be up when the delay elapses: topology updates
    // and scripted outages both kill traffic in flight.
    if (!linked(p.msg.src, p.to) ||
        (down_ && down_(p.msg.src, p.to, rounds_))) {
      ++messages_lost_;
      continue;
    }
    if (p.kind == PendingKind::kAck) {
      for (std::size_t u = 0; u < unacked_.size(); ++u) {
        if (unacked_[u].seq == p.seq) {
          unacked_.erase(unacked_.begin() + static_cast<std::ptrdiff_t>(u));
          break;
        }
      }
      continue;
    }
    if (p.reliable) {
      // Ack every copy (a lost ack otherwise deadlocks the sender), but
      // deliver only the first.
      Message ack;
      ack.tag = 0;
      if (linked(p.to, p.msg.src)) {
        ++acks_sent_;
        transmit(p.to, p.msg.src, std::move(ack), PendingKind::kAck, false,
                 p.seq);
      }
      auto& seen = seen_[static_cast<std::size_t>(p.to)];
      if (!seen.insert(p.seq).second) {
        ++duplicates_suppressed_;
        continue;
      }
    }
    inbox_[static_cast<std::size_t>(p.to)].push_back(std::move(p.msg));
    ++messages_delivered_;
    delivered = true;
  }
  current_.clear();
  return delivered;
}

void Network::take_inbox(NodeId v, std::vector<Message>& out) {
  std::vector<Message>& box = inbox_[static_cast<std::size_t>(v)];
  out.clear();
  out.insert(out.end(), std::make_move_iterator(box.begin()),
             std::make_move_iterator(box.end()));
  box.clear();
}

bool Network::quiescent() const {
  if (!queue_.empty() || !unacked_.empty()) return false;
  for (const auto& box : inbox_) {
    if (!box.empty()) return false;
  }
  return true;
}

void Network::reset_stats() {
  messages_sent_ = 0;
  messages_delivered_ = 0;
  messages_lost_ = 0;
  retransmissions_ = 0;
  messages_expired_ = 0;
  duplicates_suppressed_ = 0;
  acks_sent_ = 0;
  bytes_sent_ = 0;
  rounds_ = 0;
}

}  // namespace anr::net
