// Round-based message-passing network simulator.
//
// The paper's algorithms are distributed: boundary hop-counting walks,
// flooding of link-ratio sums, iterative neighbor averaging, and
// boundary-sourced reachability packets. This substrate executes them as
// real message exchanges over an explicit topology so that the library's
// "distributed" claim is meaningful: protocols only read a node's own
// state and its inbox. A synchronous round model (messages sent in round
// k arrive at round k+1) keeps executions deterministic.
//
// The channel can be made hostile, one knob at a time, without losing
// determinism:
//
//   - set_link_delays: per-message delivery delay of 1..max_delay rounds
//     (seeded), the asynchrony model the delay-tolerant protocols are
//     tested under;
//   - set_message_loss: each transmission attempt is independently lost
//     with probability p (seeded Bernoulli, drawn in send order);
//   - set_link_outage: a caller-supplied predicate (see fault_bridge.h
//     for the FaultSchedule adapter) forces links down at delivery time —
//     messages in flight over a downed link are lost, which is how
//     scripted partition/heal windows drop real traffic;
//   - swap_topology: the adjacency can be rebuilt mid-run (robots move);
//     a message whose link no longer exists when its delay elapses is
//     lost.
//
// Reliability is layered on top, not baked in: send_reliable() tags the
// message with a sequence number, retransmits every retry_interval
// rounds until an ack arrives (acks travel the same lossy channel), and
// gives up after max_retries. Receivers suppress duplicates by (origin,
// sequence) so a protocol sees each reliable message exactly once no
// matter how many copies the retry loop put in flight.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "geom/vec2.h"

namespace anr::net {

/// Node identifier; also the node's unique ID in protocols that elect by
/// smallest ID (paper Sec. III-B).
using NodeId = int;

/// A protocol message. `tag` identifies the protocol-specific type; the
/// two payload vectors carry whatever that protocol needs.
struct Message {
  NodeId src = -1;
  int tag = 0;
  std::vector<int> ints;
  std::vector<double> reals;
};

/// Approximate wire size of a message: a fixed header plus the payload
/// words. Used for the byte accounting only.
std::size_t message_bytes(const Message& m);

/// Knobs of the ack/retransmit layer behind send_reliable().
struct ReliabilityOptions {
  int retry_interval = 2;  ///< rounds between retransmission attempts
  int max_retries = 8;     ///< retransmissions after the initial send
};

/// Link-outage predicate: true when the (from, to) link cannot carry a
/// message at delivery round `round`. Must be deterministic.
using LinkOutageFn = std::function<bool(NodeId from, NodeId to, std::size_t round)>;

/// Fixed-topology synchronous network. Construct from an explicit
/// adjacency (e.g. the robot triangulation's edges) or from positions with
/// a unit-disk range.
///
/// Asynchrony: `set_link_delays` gives every message an independent
/// (seeded, deterministic) delivery delay of 1..max_delay rounds. Token
/// protocols (boundary walk) and monotone flooding protocols (flood sum,
/// subgroup detection) are delay-tolerant and tested under asynchrony;
/// the gossip averaging runs round-tagged lockstep and tolerates both
/// delay and (retransmitted) loss.
class Network {
 public:
  /// Explicit adjacency; lists may be unsorted, self-loops are rejected.
  explicit Network(std::vector<std::vector<NodeId>> adjacency);

  /// Unit-disk topology over `positions` with communication range `r`.
  Network(const std::vector<Vec2>& positions, double r);

  /// Enables asynchronous delivery: each subsequently-sent message takes
  /// a uniform 1..max_delay rounds to arrive. max_delay = 1 restores the
  /// synchronous model.
  void set_link_delays(int max_delay, std::uint64_t seed);

  /// Every subsequent transmission attempt (including retransmissions
  /// and acks) is lost with probability `p`, deterministically in `seed`
  /// and the send order. p = 0 restores the lossless channel.
  void set_message_loss(double p, std::uint64_t seed);

  /// Installs (or clears, with nullptr) the link-outage predicate. A
  /// message is dropped when its link is down at the round its delay
  /// elapses — in-flight traffic over a freshly downed link is lost.
  void set_link_outage(LinkOutageFn down);

  /// Configures the ack/retransmit layer used by send_reliable().
  void set_reliability(ReliabilityOptions opt);

  /// When on, send() and broadcast() behave like their _reliable
  /// variants. Lets the existing protocols run unmodified over a lossy
  /// channel.
  void set_reliable_default(bool on) { reliable_default_ = on; }

  /// Replaces the topology mid-run (robots moved). Queued messages are
  /// kept, but delivery re-checks the link when the delay elapses; a
  /// message whose link vanished is lost. The rows must be sorted and
  /// duplicate-free (as unit_disk_adjacency builds them). They are
  /// swapped in, not copied: on return `adjacency` holds the previous
  /// rows, so a caller rebuilding the topology every round reuses their
  /// capacity.
  void swap_topology(std::vector<std::vector<NodeId>>& adjacency);

  int size() const { return static_cast<int>(adj_.size()); }
  const std::vector<NodeId>& neighbors(NodeId v) const;
  bool linked(NodeId a, NodeId b) const;

  /// Queues a message for delivery next round. The link (from, to) must
  /// exist — protocols cannot talk past the topology.
  void send(NodeId from, NodeId to, Message m);

  /// Sends a copy of m to every neighbor of `from`.
  void broadcast(NodeId from, const Message& m);

  /// As send(), but acknowledged: retransmitted every retry_interval
  /// rounds until acked, up to max_retries; the receiver sees exactly one
  /// copy (duplicates are suppressed by sequence number).
  void send_reliable(NodeId from, NodeId to, Message m);

  /// Reliable copy of m to every current neighbor of `from`.
  void broadcast_reliable(NodeId from, const Message& m);

  /// Advances one round: retransmits overdue unacked messages, then
  /// everything queued whose delay elapsed becomes visible in inboxes.
  /// Returns true when at least one message was delivered.
  bool deliver_round();

  /// Drains node v's inbox into `out` (its previous contents are
  /// discarded). Order is pinned: messages delivered in the same round
  /// arrive sorted by sender id, ties broken by send order; successive
  /// rounds append. The order is a pure function of the send sequence
  /// and the delay/loss seeds, so protocol event logs replay
  /// byte-identically. The messages are moved out and both vectors keep
  /// their capacity, so a caller that drains every inbox into one reused
  /// vector allocates nothing at steady state.
  void take_inbox(NodeId v, std::vector<Message>& out);

  /// True when no message is queued, sitting undelivered in an inbox, or
  /// awaiting an ack (pending retransmission).
  bool quiescent() const;

  // Execution statistics (message complexity of a protocol run).
  std::size_t messages_sent() const { return messages_sent_; }
  std::size_t messages_delivered() const { return messages_delivered_; }
  /// Transmission attempts lost to the channel (loss draw, downed link,
  /// or vanished topology edge). Suppressed duplicates are not losses.
  std::size_t messages_lost() const { return messages_lost_; }
  std::size_t retransmissions() const { return retransmissions_; }
  /// Reliable sends abandoned after the retry budget.
  std::size_t messages_expired() const { return messages_expired_; }
  std::size_t duplicates_suppressed() const { return duplicates_suppressed_; }
  std::size_t acks_sent() const { return acks_sent_; }
  std::size_t bytes_sent() const { return bytes_sent_; }
  std::size_t rounds_elapsed() const { return rounds_; }
  void reset_stats();

 private:
  enum class PendingKind { kData, kAck };

  struct Pending {
    NodeId to;
    std::size_t due_round;
    PendingKind kind = PendingKind::kData;
    bool reliable = false;
    std::uint64_t seq = 0;  ///< globally unique for reliable data; echoed by acks
    Message msg;            ///< empty payload for acks (src still set)
  };

  struct Unacked {
    NodeId from;
    NodeId to;
    std::uint64_t seq;
    int attempts = 0;  ///< retransmissions performed so far
    std::size_t next_retry = 0;
    Message msg;
  };

  std::uint64_t next_delay_draw();
  bool next_loss_draw();
  /// One transmission attempt: loss draw, delay draw, enqueue. Returns
  /// true when the copy was put in flight (not lost at send time).
  void transmit(NodeId from, NodeId to, Message m, PendingKind kind,
                bool reliable, std::uint64_t seq);

  std::vector<std::vector<NodeId>> adj_;
  std::vector<std::vector<Message>> inbox_;
  std::vector<Pending> queue_;
  // deliver_round scratch, kept across rounds: the swapped-out queue, the
  // delivery permutation and its counting-sort buckets.
  std::vector<Pending> current_;
  std::vector<std::uint32_t> order_, by_sender_;
  std::vector<std::size_t> bucket_;
  std::vector<Unacked> unacked_;
  /// Per receiver: sequence numbers already delivered (duplicate filter).
  std::vector<std::unordered_set<std::uint64_t>> seen_;

  std::size_t messages_sent_ = 0;
  std::size_t messages_delivered_ = 0;
  std::size_t messages_lost_ = 0;
  std::size_t retransmissions_ = 0;
  std::size_t messages_expired_ = 0;
  std::size_t duplicates_suppressed_ = 0;
  std::size_t acks_sent_ = 0;
  std::size_t bytes_sent_ = 0;
  std::size_t rounds_ = 0;

  int max_delay_ = 1;
  std::uint64_t delay_state_ = 0;
  double loss_p_ = 0.0;
  std::uint64_t loss_state_ = 0;
  LinkOutageFn down_;
  ReliabilityOptions reliability_;
  bool reliable_default_ = false;
  std::uint64_t next_seq_ = 1;
};

}  // namespace anr::net
