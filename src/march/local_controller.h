// Per-robot local controller for the decentralized execution mode.
//
// Each robot runs one of these: it sees only its own trajectory, its own
// (GPS) position and progress, and whatever arrives in its net::Network
// inbox. Everything the centralized ExecutionEngine reads from global
// oracles is re-derived here from messages:
//
//   - liveness: every robot broadcasts a heartbeat (position + progress)
//     each tick; a peer table tracks who was heard when;
//   - local connectivity estimation: a robot that stops hearing anyone
//     declares itself isolated; it keeps following its planned timeline
//     (the plan is the swarm's rendezvous contract — marching it is the
//     one local action that re-converges after a transient split) and
//     reports the rejoin when contact returns;
//   - crash suspicion: a peer that was recently nearby (well inside the
//     radio range) and then falls silent past a seeded per-(i, j)
//     missed-heartbeat budget becomes suspected, then — after a confirm
//     window with no sign of life — confirmed dead. A heartbeat at any
//     point clears the suspicion (that is how partition heals stay
//     absorb-free);
//   - peer-absorb recovery: confirmed deaths trigger a
//     closest-live-neighbor election over the Chang–Roberts idiom of
//     protocols/boundary_walk — every suspecter floods a claim scored by
//     its distance to the suspect's last known position, claims survive
//     only toward better (smaller score, then smaller id) candidates,
//     and after a fixed window the unbeaten claimant coordinates: it
//     floods a state request, gathers survivor trajectories by message,
//     runs the same recover_from_failure the centralized engine uses,
//     and floods each survivor its spliced timeline;
//   - marching pace: a robot throttles to min(neighbor progress) + a lag
//     tolerance, the decentralized analog of pause-and-wait — a stuck
//     neighbor freezes its neighborhood, and the freeze propagates.
//
// Under zero loss and no faults none of this machinery changes motion:
// every robot advances dt per tick along its planned trajectory, so the
// decentralized march lands on exactly the centralized plan's final
// configuration (pinned by tests/test_decentralized.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coverage/density.h"
#include "foi/foi.h"
#include "march/trajectory.h"
#include "net/network.h"

namespace anr {

/// Message tags of the decentralized control plane (heartbeats are
/// unreliable; everything else rides the ack/retransmit layer).
namespace dex_tag {
constexpr int kHeartbeat = 101;  ///< reals = {x, y, progress}
constexpr int kSuspect = 102;    ///< ints = {suspect, suspecter}, reals = last pos
constexpr int kClaim = 103;      ///< ints = {suspect, candidate}, reals = {score}
constexpr int kStateReq = 104;   ///< ints = {suspect, coordinator}
constexpr int kState = 105;      ///< ints = {owner, suspect}, reals = {progress, (t,x,y)*}
constexpr int kNewTraj = 106;    ///< ints = {target, suspect, coordinator}, reals = {(t,x,y)*}
constexpr int kAbsorbDone = 107; ///< ints = {suspect, coordinator}
}  // namespace dex_tag

struct LocalControllerConfig {
  int id = -1;
  int num_robots = 0;
  double r_c = 0.0;
  double dt = 0.0;
  int heartbeat_period = 1;   ///< ticks between heartbeats
  int suspicion_ticks = 12;   ///< base missed-heartbeat budget
  int suspicion_jitter = 4;   ///< + hash(seed, i, j) % jitter, de-synchronized
  int confirm_ticks = 8;      ///< suspicion -> confirmed crash
  int election_ticks = 12;    ///< claim-flood settling window
  int gather_ticks = 12;      ///< coordinator state-collection window
  int isolation_ticks = 18;   ///< total silence -> self-isolated
  /// Progress headroom (time units) granted over the slowest tracked
  /// neighbor before throttling. Must exceed (max_delay + 2) * dt or
  /// heartbeat staleness throttles a healthy march.
  double lag_tolerance = 0.0;
  double catch_up_factor = 3.0;
  /// A silent peer is only suspected dead when it was last seen within
  /// this fraction of r_c — silence from a peer near the range edge is
  /// link churn, not a crash.
  double suspicion_range_factor = 0.8;
  std::uint64_t timeout_seed = 0x7ea5ULL;
  bool enable_recovery = true;
  const FieldOfInterest* m2_world = nullptr;  ///< mission data (absorb re-spread)
  const DensityFn* density = nullptr;         ///< may be null (uniform)
  int recovery_lloyd_steps = 40;
  int recovery_cvt_samples = 8000;
};

/// What a controller observed or decided this tick; the engine turns
/// these into the deterministic ExecutionEvent log and latency records.
enum class LocalEventKind {
  kSuspected,         ///< subject peer passed its missed-heartbeat budget
  kSuspicionCleared,  ///< subject peer was heard again
  kConfirmed,         ///< subject peer confirmed dead (no life in confirm window)
  kElected,           ///< this robot won the coordinator election for subject
  kAbsorbDone,        ///< this robot computed + flooded the absorb for subject
  kAbsorbFailed,      ///< recover_from_failure threw (detail has the reason)
  kSpliced,           ///< this robot spliced a received recovery timeline
  kIsolatedSelf,      ///< total silence; marching on alone
  kRejoinedSelf,      ///< contact regained; resumed
};

struct LocalEvent {
  LocalEventKind kind;
  int subject = -1;    ///< peer the event is about (-1 for self events)
  std::string detail;  ///< deterministic description fragment
};

class LocalController {
 public:
  LocalController(LocalControllerConfig cfg, Trajectory traj);

  struct StepResult {
    /// Progress the robot intends to reach this tick (the plant — the
    /// engine's fault model — caps what is actually achieved).
    double desired_progress = 0.0;
    std::vector<LocalEvent> events;
  };

  /// One control tick: consume the inbox, update the peer table and the
  /// suspicion/election state machines, queue outgoing messages on
  /// `net`, and decide the motion intent. Deterministic given the inbox
  /// sequence and config seeds.
  StepResult step(std::int64_t tick, const std::vector<net::Message>& inbox,
                  net::Network& net);

  /// Plant feedback after the engine applied actuation faults: the
  /// progress actually reached and the (noisy) position the radio and
  /// GPS report. Must be called once per step.
  void observe_self(double progress, Vec2 gps_position);

  double progress() const { return progress_; }
  const Trajectory& trajectory() const { return traj_; }
  bool done() const { return progress_ >= traj_.end_time() - 1e-9; }
  /// An election or state gather this robot drives is still in flight.
  bool busy() const;
  bool isolated() const { return isolated_; }

  // Local tallies (the engine aggregates them into the report).
  std::size_t heartbeats_sent() const { return heartbeats_sent_; }
  int suspicions_raised() const { return suspicions_raised_; }
  int elections_won() const { return elections_won_; }
  int absorbs_completed() const { return absorbs_completed_; }

 private:
  struct Peer {
    bool known = false;
    bool absorbed = false;  ///< removed from the live set by a recovery
    std::int64_t last_heard = -1;
    Vec2 pos{};          ///< peer position in its last heartbeat
    Vec2 my_pos_then{};  ///< own position when that heartbeat arrived
    double progress = 0.0;
    bool suspected = false;
    std::int64_t suspect_since = -1;
    bool confirmed = false;
  };

  /// Per-suspect election / recovery state.
  struct Election {
    bool participating = false;
    double my_score = 0.0;
    double best_score = 0.0;
    int best_candidate = -1;
    std::int64_t claim_tick = -1;
    bool decided = false;
    bool gathering = false;
    std::int64_t gather_start = -1;
    bool done = false;
    bool state_sent = false;
    Vec2 last_pos{};
    /// Gathered survivor states: id -> (progress, trajectory). Ordered so
    /// the absorb input is id-sorted and deterministic.
    std::map<int, std::pair<double, Trajectory>> states;
  };

  std::int64_t suspicion_budget(int peer) const;
  void flood(net::Network& net, const net::Message& m);
  void handle_message(std::int64_t tick, const net::Message& m,
                      net::Network& net, std::vector<LocalEvent>& events);
  void run_absorb(std::int64_t tick, int suspect, Election& el,
                  net::Network& net, std::vector<LocalEvent>& events);
  void note_claim(int suspect, int candidate, double score, Vec2 last_pos,
                  std::int64_t tick);

  LocalControllerConfig cfg_;
  Trajectory traj_;
  double progress_ = 0.0;
  Vec2 gps_{};
  std::vector<Peer> peers_;
  std::map<int, Election> elections_;
  std::int64_t last_any_heard_ = 0;
  bool isolated_ = false;
  bool had_contact_ = false;

  /// Distinct suspecters known per suspect (own suspicion + kSuspect
  /// floods). Confirmation needs >= 2: a live peer drifting out of range
  /// is suspected only by its counterpart, while a real crash-stop is
  /// suspected by every ex-neighbor — the quorum separates the two
  /// without any oracle. (Cost: a crash whose robot had a single
  /// neighbor at death goes undetected; see README.)
  std::map<int, std::set<int>> suspecters_;

  // Flood duplicate filters (forward-once bookkeeping).
  std::set<std::pair<int, int>> seen_suspect_;    // (suspect, suspecter)
  std::set<std::pair<int, int>> seen_state_req_;  // (suspect, coordinator)
  std::set<std::pair<int, int>> seen_state_;      // (owner, suspect)
  std::set<std::pair<int, int>> seen_new_traj_;   // (target, suspect)
  std::set<int> seen_absorb_done_;                // suspect
  std::set<int> spliced_for_;                     // suspects already applied

  std::size_t heartbeats_sent_ = 0;
  int suspicions_raised_ = 0;
  int elections_won_ = 0;
  int absorbs_completed_ = 0;
};

}  // namespace anr
