#include "march/local_controller.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "march/resilience.h"

namespace anr {

namespace {

/// Appends (t, x, y) triples for every waypoint of `traj`.
void encode_trajectory(const Trajectory& traj, std::vector<double>& out) {
  const auto& pts = traj.waypoints();
  const auto& ts = traj.times();
  out.reserve(out.size() + 3 * pts.size());
  for (std::size_t k = 0; k < pts.size(); ++k) {
    out.push_back(ts[k]);
    out.push_back(pts[k].x);
    out.push_back(pts[k].y);
  }
}

/// Reads (t, x, y) triples from reals[offset..] back into a Trajectory.
Trajectory decode_trajectory(const std::vector<double>& reals,
                             std::size_t offset) {
  Trajectory traj;
  for (std::size_t k = offset; k + 3 <= reals.size(); k += 3) {
    traj.append(Vec2{reals[k + 1], reals[k + 2]}, reals[k]);
  }
  return traj;
}

}  // namespace

LocalController::LocalController(LocalControllerConfig cfg, Trajectory traj)
    : cfg_(std::move(cfg)), traj_(std::move(traj)) {
  ANR_CHECK(cfg_.id >= 0 && cfg_.id < cfg_.num_robots);
  ANR_CHECK(cfg_.r_c > 0.0);
  ANR_CHECK(cfg_.dt > 0.0);
  ANR_CHECK(cfg_.heartbeat_period >= 1);
  ANR_CHECK(cfg_.suspicion_ticks > cfg_.heartbeat_period);
  ANR_CHECK(cfg_.lag_tolerance > 0.0);
  ANR_CHECK(!traj_.empty());
  progress_ = traj_.start_time();
  gps_ = traj_.position(progress_);
  peers_.resize(static_cast<std::size_t>(cfg_.num_robots));
}

std::int64_t LocalController::suspicion_budget(int peer) const {
  if (cfg_.suspicion_jitter <= 0) return cfg_.suspicion_ticks;
  const std::uint64_t h = splitmix64(
      cfg_.timeout_seed ^
      (static_cast<std::uint64_t>(cfg_.id) * 0x9e3779b97f4a7c15ULL) ^
      (static_cast<std::uint64_t>(peer) + 0xda942042e4dd58b5ULL));
  return cfg_.suspicion_ticks +
         static_cast<std::int64_t>(
             h % static_cast<std::uint64_t>(cfg_.suspicion_jitter));
}

void LocalController::flood(net::Network& net, const net::Message& m) {
  net::Message copy = m;
  copy.src = cfg_.id;  // hop source; the origin rides in the payload
  net.broadcast_reliable(cfg_.id, copy);
}

void LocalController::note_claim(int suspect, int candidate, double score,
                                 Vec2 last_pos, std::int64_t tick) {
  Election& el = elections_[suspect];
  if (el.claim_tick < 0) el.claim_tick = tick;
  if (el.best_candidate < 0) el.last_pos = last_pos;
  // Exact comparisons: the score bits travel in the message, so every
  // node ranks the same claims identically.
  if (el.best_candidate < 0 || score < el.best_score ||
      (score == el.best_score && candidate < el.best_candidate)) {
    el.best_score = score;
    el.best_candidate = candidate;
  }
}

void LocalController::handle_message(std::int64_t tick, const net::Message& m,
                                     net::Network& net,
                                     std::vector<LocalEvent>& events) {
  switch (m.tag) {
    case dex_tag::kHeartbeat: {
      const int j = m.src;
      if (j < 0 || j >= cfg_.num_robots || j == cfg_.id) break;
      Peer& pr = peers_[static_cast<std::size_t>(j)];
      const bool was_dead = pr.confirmed || pr.absorbed;
      if (pr.suspected) {
        pr.suspected = false;
        pr.suspect_since = -1;
        events.push_back({LocalEventKind::kSuspicionCleared, j,
                          "heard by robot " + std::to_string(cfg_.id)});
      }
      if (was_dead) {
        // A confirm that a partition outlived: the peer is alive after
        // all. Readmit it to the live set (honest degradation — an
        // absorb may already have reassigned its region).
        pr.confirmed = false;
        pr.absorbed = false;
        events.push_back({LocalEventKind::kSuspicionCleared, j,
                          "false confirm; readmitted by robot " +
                              std::to_string(cfg_.id)});
      }
      pr.known = true;
      pr.last_heard = tick;
      pr.pos = Vec2{m.reals[0], m.reals[1]};
      pr.my_pos_then = gps_;
      pr.progress = m.reals[2];
      break;
    }
    case dex_tag::kSuspect: {
      const int suspect = m.ints[0];
      const int suspecter = m.ints[1];
      if (!seen_suspect_.insert({suspect, suspecter}).second) break;
      suspecters_[suspect].insert(suspecter);
      Election& el = elections_[suspect];
      if (el.best_candidate < 0 && el.claim_tick < 0) {
        const Peer& pr = peers_[static_cast<std::size_t>(suspect)];
        el.last_pos = pr.known ? pr.pos : Vec2{m.reals[0], m.reals[1]};
      }
      flood(net, m);
      break;
    }
    case dex_tag::kClaim: {
      const int suspect = m.ints[0];
      const int candidate = m.ints[1];
      Election& el = elections_[suspect];
      if (el.done) break;
      const int prev_best = el.best_candidate;
      const double prev_score = el.best_score;
      note_claim(suspect, candidate, m.reals[0], el.last_pos, tick);
      // Chang–Roberts: only improving claims survive the relay.
      if (el.best_candidate != prev_best || el.best_score != prev_score ||
          prev_best < 0) {
        flood(net, m);
      }
      break;
    }
    case dex_tag::kStateReq: {
      const int suspect = m.ints[0];
      const int coordinator = m.ints[1];
      if (!seen_state_req_.insert({suspect, coordinator}).second) break;
      flood(net, m);
      if (coordinator != cfg_.id &&
          seen_state_.insert({cfg_.id, suspect}).second) {
        net::Message s;
        s.src = cfg_.id;
        s.tag = dex_tag::kState;
        s.ints = {cfg_.id, suspect};
        s.reals = {progress_};
        encode_trajectory(traj_, s.reals);
        flood(net, s);
      }
      break;
    }
    case dex_tag::kState: {
      const int owner = m.ints[0];
      const int suspect = m.ints[1];
      if (!seen_state_.insert({owner, suspect}).second) break;
      flood(net, m);
      Election& el = elections_[suspect];
      if (!el.done && owner != suspect) {
        el.states[owner] = {m.reals[0], decode_trajectory(m.reals, 1)};
      }
      break;
    }
    case dex_tag::kNewTraj: {
      const int target = m.ints[0];
      const int suspect = m.ints[1];
      if (!seen_new_traj_.insert({target, suspect}).second) break;
      flood(net, m);
      Election& el = elections_[suspect];
      el.done = true;
      el.gathering = false;
      peers_[static_cast<std::size_t>(suspect)].absorbed = true;
      if (target == cfg_.id && spliced_for_.insert(suspect).second) {
        Trajectory next = decode_trajectory(m.reals, 0);
        if (!next.empty() && next.end_time() >= progress_) {
          traj_ = std::move(next);
          events.push_back({LocalEventKind::kSpliced, suspect,
                            "robot " + std::to_string(cfg_.id) +
                                " spliced recovery timeline"});
        }
      }
      break;
    }
    case dex_tag::kAbsorbDone: {
      const int suspect = m.ints[0];
      if (!seen_absorb_done_.insert(suspect).second) break;
      flood(net, m);
      Election& el = elections_[suspect];
      el.done = true;
      el.gathering = false;
      peers_[static_cast<std::size_t>(suspect)].absorbed = true;
      break;
    }
    default:
      break;
  }
}

void LocalController::run_absorb(std::int64_t tick, int suspect, Election& el,
                                 net::Network& net,
                                 std::vector<LocalEvent>& events) {
  el.gathering = false;
  el.done = true;
  peers_[static_cast<std::size_t>(suspect)].absorbed = true;
  ANR_CHECK(cfg_.m2_world != nullptr);

  // Assemble the recovery input: gathered survivor timelines in id order,
  // plus a placeholder for the suspect — recover_from_failure never reads
  // a failed robot's trajectory, only its index.
  std::vector<int> ids;
  std::vector<Trajectory> planned;
  ids.reserve(el.states.size() + 1);
  planned.reserve(el.states.size() + 1);
  for (const auto& [rid, st] : el.states) {
    ids.push_back(rid);
    planned.push_back(st.second);
  }
  Trajectory ghost;
  ghost.append(el.last_pos, 0.0);
  ids.push_back(suspect);
  planned.push_back(ghost);
  const int failed_index = static_cast<int>(planned.size()) - 1;
  const double t_fail = static_cast<double>(tick) * cfg_.dt;

  try {
    const DensityFn empty{};
    const DensityFn& density =
        cfg_.density != nullptr ? *cfg_.density : empty;
    const FailureRecovery rec = recover_from_failure(
        planned, t_fail, {failed_index}, *cfg_.m2_world, cfg_.r_c, density,
        cfg_.recovery_lloyd_steps, cfg_.recovery_cvt_samples);
    for (std::size_t k = 0; k < rec.survivors.size(); ++k) {
      const int rid = ids[static_cast<std::size_t>(rec.survivors[k])];
      const Trajectory& next = rec.trajectories[k];
      if (rid == cfg_.id) {
        if (spliced_for_.insert(suspect).second) traj_ = next;
      } else {
        net::Message nt;
        nt.src = cfg_.id;
        nt.tag = dex_tag::kNewTraj;
        nt.ints = {rid, suspect, cfg_.id};
        encode_trajectory(next, nt.reals);
        seen_new_traj_.insert({rid, suspect});
        flood(net, nt);
      }
    }
    net::Message done_msg;
    done_msg.src = cfg_.id;
    done_msg.tag = dex_tag::kAbsorbDone;
    done_msg.ints = {suspect, cfg_.id};
    seen_absorb_done_.insert(suspect);
    flood(net, done_msg);
    ++absorbs_completed_;
    events.push_back(
        {LocalEventKind::kAbsorbDone, suspect,
         "coordinator " + std::to_string(cfg_.id) + " absorbed robot " +
             std::to_string(suspect) + ": " +
             std::to_string(rec.survivors.size()) + " survivor states, " +
             std::to_string(rec.lloyd_steps) + " respread steps"});
  } catch (const std::exception& e) {
    events.push_back({LocalEventKind::kAbsorbFailed, suspect, e.what()});
  }
}

LocalController::StepResult LocalController::step(
    std::int64_t tick, const std::vector<net::Message>& inbox,
    net::Network& net) {
  StepResult out;

  // 1. Inbox: any contact ends isolation and refreshes the silence clock.
  if (!inbox.empty()) {
    if (isolated_) {
      isolated_ = false;
      out.events.push_back({LocalEventKind::kRejoinedSelf, -1,
                            "robot " + std::to_string(cfg_.id) +
                                " regained contact"});
    }
    last_any_heard_ = tick;
    had_contact_ = true;
  }
  for (const net::Message& m : inbox) {
    handle_message(tick, m, net, out.events);
  }

  // 2. Suspicion: silent, recently-nearby peers burn their budget; a
  //    suspicion that survives the confirm window becomes a death verdict
  //    and (when recovery is on) a claim in the coordinator election.
  for (int j = 0; j < cfg_.num_robots; ++j) {
    if (j == cfg_.id) continue;
    Peer& pr = peers_[static_cast<std::size_t>(j)];
    if (!pr.known || pr.absorbed || pr.confirmed) continue;
    if (!pr.suspected) {
      // The range gate is evaluated at last-heartbeat time: a peer that
      // was already near the range edge when it went silent is link
      // churn (legit drift-out), not a crash candidate.
      if (!isolated_ && tick - pr.last_heard > suspicion_budget(j) &&
          distance(pr.my_pos_then, pr.pos) <=
              cfg_.suspicion_range_factor * cfg_.r_c) {
        pr.suspected = true;
        pr.suspect_since = tick;
        ++suspicions_raised_;
        out.events.push_back({LocalEventKind::kSuspected, j,
                              "by robot " + std::to_string(cfg_.id)});
        net::Message s;
        s.src = cfg_.id;
        s.tag = dex_tag::kSuspect;
        s.ints = {j, cfg_.id};
        s.reals = {pr.pos.x, pr.pos.y};
        seen_suspect_.insert({j, cfg_.id});
        suspecters_[j].insert(cfg_.id);
        Election& el = elections_[j];
        if (el.best_candidate < 0 && el.claim_tick < 0) el.last_pos = pr.pos;
        flood(net, s);
      }
    } else if (tick - pr.suspect_since >= cfg_.confirm_ticks &&
               suspecters_[j].size() >= 2) {
      pr.confirmed = true;
      out.events.push_back({LocalEventKind::kConfirmed, j,
                            "by robot " + std::to_string(cfg_.id)});
      if (cfg_.enable_recovery) {
        Election& el = elections_[j];
        if (!el.done && !el.participating) {
          el.participating = true;
          el.last_pos = pr.pos;
          el.my_score = distance(gps_, pr.pos);
          note_claim(j, cfg_.id, el.my_score, pr.pos, tick);
          net::Message c;
          c.src = cfg_.id;
          c.tag = dex_tag::kClaim;
          c.ints = {j, cfg_.id};
          c.reals = {el.my_score};
          flood(net, c);
        }
      }
    }
  }

  // 3. Elections: participants decide after the claim-settling window;
  //    the unbeaten claimant coordinates (state gather, then absorb).
  for (auto& [suspect, el] : elections_) {
    if (el.done) continue;
    if (el.participating && !el.decided &&
        tick - el.claim_tick >= cfg_.election_ticks) {
      el.decided = true;
      if (el.best_candidate == cfg_.id) {
        ++elections_won_;
        el.gathering = true;
        el.gather_start = tick;
        el.states[cfg_.id] = {progress_, traj_};
        out.events.push_back(
            {LocalEventKind::kElected, suspect,
             "robot " + std::to_string(cfg_.id) +
                 " closest to last known position (score " +
                 std::to_string(el.my_score) + ")"});
        net::Message req;
        req.src = cfg_.id;
        req.tag = dex_tag::kStateReq;
        req.ints = {suspect, cfg_.id};
        seen_state_req_.insert({suspect, cfg_.id});
        flood(net, req);
      }
    }
    if (el.gathering && tick - el.gather_start >= cfg_.gather_ticks) {
      run_absorb(tick, suspect, el, net, out.events);
    }
  }

  // 4. Isolation: total silence past the budget flags the robot as cut
  //    off (the paper's "isolated ANR may be excluded... and become
  //    permanently lost"). The flag is observational — motion continues
  //    along the planned timeline (see section 6), which is what brings
  //    the robot back into radio range of the swarm.
  if (!isolated_ && had_contact_ &&
      tick - last_any_heard_ > cfg_.isolation_ticks) {
    isolated_ = true;
    out.events.push_back({LocalEventKind::kIsolatedSelf, -1,
                          "robot " + std::to_string(cfg_.id) +
                              " heard nobody for " +
                              std::to_string(cfg_.isolation_ticks) +
                              " ticks; marching on alone"});
  }

  // 5. Heartbeat (unreliable — the steady state costs no acks).
  if (tick % cfg_.heartbeat_period == 0) {
    net::Message hb;
    hb.src = cfg_.id;
    hb.tag = dex_tag::kHeartbeat;
    hb.reals = {gps_.x, gps_.y, progress_};
    net.broadcast(cfg_.id, hb);
    ++heartbeats_sent_;
  }

  // 6. Motion intent: advance along the own timeline, throttled to the
  //    slowest tracked live neighbor plus the lag tolerance (the
  //    decentralized pause-and-wait), sprinting when behind the fastest.
  //    An isolated robot marches on at nominal pace — the planned
  //    timeline is the swarm's shared rendezvous contract, and following
  //    it is the one local action guaranteed to re-converge after a
  //    transient split (parking would freeze the robot mid-plan while
  //    the rest march away: a deadlock).
  double desired = progress_;
  {
    double min_peer = std::numeric_limits<double>::infinity();
    double max_peer = -std::numeric_limits<double>::infinity();
    for (int j = 0; j < cfg_.num_robots; ++j) {
      if (j == cfg_.id) continue;
      const Peer& pr = peers_[static_cast<std::size_t>(j)];
      // "Tracked" = heard inside the base suspicion budget. A stale
      // entry is either drifting out of range or already suspected;
      // neither may throttle the march forever.
      if (!pr.known || pr.absorbed || pr.confirmed || pr.suspected) continue;
      if (tick - pr.last_heard > cfg_.suspicion_ticks) continue;
      // Dead-reckon the silent gap at nominal pace: a heartbeat heard at
      // tick h carries progress through tick h - 1 - delay, so credit the
      // peer one step per tick since. Silence is evidence of link churn,
      // not slowness — a genuinely slow robot keeps heartbeating its
      // frozen progress (the throttle binds on it below), and a crashed
      // one leaves the tracked set via suspicion. Without the credit, a
      // near-r_c link flapping out freezes the peer's progress in this
      // table and a phantom slowdown wave propagates through the swarm.
      const double est =
          pr.progress + static_cast<double>(tick - pr.last_heard + 1) * cfg_.dt;
      min_peer = std::min(min_peer, est);
      max_peer = std::max(max_peer, est);
    }
    double rate = 1.0;
    if (max_peer > progress_ + cfg_.lag_tolerance) rate = cfg_.catch_up_factor;
    desired = progress_ + rate * cfg_.dt;
    if (min_peer < std::numeric_limits<double>::infinity()) {
      desired = std::min(desired, min_peer + cfg_.lag_tolerance);
    }
    desired = std::max(desired, progress_);
  }
  out.desired_progress = desired;
  return out;
}

void LocalController::observe_self(double progress, Vec2 gps_position) {
  ANR_CHECK(progress >= progress_ - 1e-12);
  progress_ = progress;
  gps_ = gps_position;
}

bool LocalController::busy() const {
  for (const auto& [suspect, el] : elections_) {
    if (el.done) continue;
    if (el.participating && !el.decided) return true;
    if (el.gathering) return true;
  }
  return false;
}

}  // namespace anr
