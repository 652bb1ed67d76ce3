#include "march/execution_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.h"
#include "march/metrics.h"
#include "march/resilience.h"
#include "net/connectivity_monitor.h"

namespace anr {

const char* exec_event_name(ExecEventType type) {
  switch (type) {
    case ExecEventType::kFaultInjected:
      return "fault_injected";
    case ExecEventType::kFaultCleared:
      return "fault_cleared";
    case ExecEventType::kFaultDetected:
      return "fault_detected";
    case ExecEventType::kDisconnected:
      return "disconnected";
    case ExecEventType::kReconnected:
      return "reconnected";
    case ExecEventType::kPauseStarted:
      return "pause_started";
    case ExecEventType::kPauseEnded:
      return "pause_ended";
    case ExecEventType::kRecoveryStarted:
      return "recovery_started";
    case ExecEventType::kRecoveryFinished:
      return "recovery_finished";
    case ExecEventType::kRetargeted:
      return "retargeted";
    case ExecEventType::kDegraded:
      return "degraded";
    case ExecEventType::kCompleted:
      return "completed";
    case ExecEventType::kPeerSuspected:
      return "peer_suspected";
    case ExecEventType::kSuspicionCleared:
      return "suspicion_cleared";
    case ExecEventType::kIsolated:
      return "isolated";
    case ExecEventType::kRejoined:
      return "rejoined";
    case ExecEventType::kCoordinatorElected:
      return "coordinator_elected";
  }
  return "unknown";
}

namespace {

/// One robot's execution state.
struct Bot {
  int orig = -1;      ///< original plan index
  Trajectory traj;    ///< current timeline (may be spliced mid-run)
  double p = 0.0;     ///< progress: trajectory time reached
  bool crashed = false;
  double crash_time = 0.0;
  bool detected = false;  ///< crash noticed by peers
  Vec2 pos;           ///< clean (commanded) position at the current tick
};

std::string robot_detail(int orig) { return "robot " + std::to_string(orig); }

/// Largest edge of the Euclidean MST: the smallest radius at which `pts`
/// form one component; 0 for fewer than two points. Prim, O(n^2): `rest`
/// holds the points outside the tree, `best` their distance to it.
double bottleneck_radius(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  if (n <= 1) return 0.0;
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> rest(n - 1);
  std::iota(rest.begin(), rest.end(), std::size_t{1});
  std::size_t u = 0;
  double bottleneck = 0.0;
  while (!rest.empty()) {
    std::size_t pick = 0;
    for (std::size_t k = 0; k < rest.size(); ++k) {
      const std::size_t v = rest[k];
      best[v] = std::min(best[v], distance(pts[u], pts[v]));
      if (best[v] < best[rest[pick]]) pick = k;
    }
    u = rest[pick];
    bottleneck = std::max(bottleneck, best[u]);
    rest[pick] = rest.back();
    rest.pop_back();
  }
  return bottleneck;
}

/// The connectivity guard's inputs and results from the last tick that
/// computed them. The planned bottleneck is a pure function of the planned
/// formation, and the monitor's verdict of (executed formation, range
/// factor, dropped links, guard factor). Most ticks repeat the previous
/// tick's inputs exactly — while paused the schedule clock is frozen and
/// the formation stands still — and reuse its results.
struct GuardMemo {
  std::vector<Vec2> planned;  ///< bottleneck_radius({}) == 0 == bp
  double bp = 0.0;
  std::vector<Vec2> actual;
  std::vector<std::pair<int, int>> dropped;
  double range_factor = std::numeric_limits<double>::quiet_NaN();
  double guard_factor = std::numeric_limits<double>::quiet_NaN();
  net::ConnectivityMonitor::Verdict verdict;
};

std::string subject_detail(const fault::FaultEvent& e) {
  using fault::FaultKind;
  switch (e.kind) {
    case FaultKind::kLinkDropout:
      return "link " + std::to_string(e.link_a) + "-" +
             std::to_string(e.link_b);
    case FaultKind::kRangeDegradation:
      return "range_factor " + std::to_string(e.severity);
    default:
      return robot_detail(e.robot);
  }
}

}  // namespace

ExecutionEngine::ExecutionEngine(double r_c, ExecutionOptions options)
    : r_c_(r_c), opt_(std::move(options)) {
  ANR_CHECK(r_c_ > 0.0);
  ANR_CHECK(opt_.guard_factor > 0.0 && opt_.guard_factor <= 1.0);
  ANR_CHECK(opt_.catch_up_factor >= 1.0);
  if (opt_.registry != nullptr && opt_.registry->enabled()) {
    obs::Registry& reg = *opt_.registry;
    ins_.runs = reg.counter("anr_exec_runs_total", {}, "executions finished");
    ins_.ticks = reg.counter("anr_exec_ticks_total", {}, "simulation ticks");
    ins_.pauses = reg.counter("anr_exec_pauses_total", {},
                              "pause-and-wait engagements");
    ins_.retries = reg.counter("anr_exec_retries_total", {},
                               "backoff windows consumed across pauses");
    ins_.crashes = reg.counter("anr_exec_crashes_total", {},
                               "crash-stops detected and absorbed");
    ins_.recoveries = reg.counter("anr_exec_recoveries_total", {},
                                  "peer-absorb operations dispatched");
    ins_.guard_trips = reg.counter(
        "anr_exec_guard_trips_total", {},
        "clean-to-tripped transitions of the connectivity guard");
    ins_.disconnects = reg.counter("anr_exec_disconnects_total", {},
                                   "hard connectivity losses (Def. 2)");
    ins_.retargets = reg.counter("anr_exec_retargets_total", {},
                                 "mission changes spliced mid-march");
    ins_.degraded = reg.counter("anr_exec_degraded_runs_total", {},
                                "runs that exhausted a budget");
  }
}

ExecutionReport ExecutionEngine::run(const MarchPlan& plan,
                                     const fault::FaultSchedule& schedule,
                                     const FieldOfInterest& m2_world,
                                     const DensityFn& density) const {
  const std::size_t n0 = plan.trajectories.size();
  ANR_CHECK_MSG(n0 >= 1, "plan has no trajectories");
  {
    Status st = schedule.validate(static_cast<int>(n0));
    ANR_CHECK_MSG(st.ok(), st.to_string());
  }

  ExecutionReport report;
  report.num_robots = static_cast<int>(n0);
  for (const Trajectory& t : plan.trajectories) {
    report.planned_distance += t.length();
  }
  const auto initial_links = communication_links(plan.start, r_c_);

  fault::FaultModel model(schedule, opt_.noise_seed);
  net::ConnectivityMonitor monitor(r_c_);

  std::vector<Bot> bots(n0);
  double horizon = 0.0;
  for (std::size_t i = 0; i < n0; ++i) {
    bots[i].orig = static_cast<int>(i);
    bots[i].traj = plan.trajectories[i];
    bots[i].pos = bots[i].traj.position(0.0);
    horizon = std::max(horizon, bots[i].traj.end_time());
  }
  ANR_CHECK_MSG(horizon > 0.0, "plan horizon is empty");
  const double dt = opt_.dt > 0.0 ? opt_.dt : horizon / 512.0;
  const double max_wall = opt_.max_wall_factor * horizon;
  const double backoff0 =
      opt_.initial_backoff > 0.0 ? opt_.initial_backoff : 16.0 * dt;

  std::vector<MissionChange> missions = opt_.mission_changes;
  std::stable_sort(missions.begin(), missions.end(),
                   [](const MissionChange& a, const MissionChange& b) {
                     return a.t < b.t;
                   });
  std::size_t next_mission = 0;

  auto log = [&](double t, ExecEventType type, int robot,
                 const std::string& detail) {
    ExecutionEvent e;
    e.t = t;
    e.type = type;
    e.robot = robot;
    e.detail = detail;
    report.events.push_back(std::move(e));
  };
  auto log_fault = [&](double t, ExecEventType type,
                       const fault::FaultEvent& fe) {
    ExecutionEvent e;
    e.t = t;
    e.type = type;
    e.has_fault = true;
    e.fault = fe.kind;
    e.robot = fe.robot;
    e.detail = subject_detail(fe);
    report.events.push_back(std::move(e));
  };

  // Reused per-tick scratch.
  std::vector<const fault::FaultEvent*> transitions;
  std::vector<Vec2> actual;
  std::vector<Vec2> planned_now;
  std::vector<int> orig_to_alive(n0);
  std::vector<std::pair<int, int>> dropped;
  std::vector<std::pair<int, int>> dropped_alive;
  std::vector<std::size_t> just_detected;
  GuardMemo guard;

  // Faults whose window opens exactly at t = 0.
  model.activated_into(-1.0, 0.0, transitions);
  for (const fault::FaultEvent* fe : transitions) {
    log_fault(fe->t_start, ExecEventType::kFaultInjected, *fe);
  }

  double t = 0.0;
  double p_sched = 0.0;  // shared schedule clock (frozen while paused)
  bool paused = false;
  bool suppress_pause = false;  // retry budget spent; wait for a clean guard
  double backoff = backoff0;
  double pause_deadline = 0.0;
  int retry_count = 0;
  bool was_connected = true;
  bool was_guard_ok = true;
  int guard_trips = 0;
  int disconnects = 0;
  net::ConnectivityMonitor::Verdict verdict;

  std::int64_t tick = 0;
  for (;;) {
    ++tick;
    const double t_prev = t;
    t = static_cast<double>(tick) * dt;

    // --- fault window transitions (for the log) ---------------------------
    model.activated_into(t_prev, t, transitions);
    for (const fault::FaultEvent* fe : transitions) {
      log_fault(fe->t_start, ExecEventType::kFaultInjected, *fe);
    }
    model.cleared_into(t_prev, t, transitions);
    for (const fault::FaultEvent* fe : transitions) {
      log_fault(fe->t_end(), ExecEventType::kFaultCleared, *fe);
    }

    // --- motion -----------------------------------------------------------
    if (!paused) p_sched = std::min(p_sched + dt, horizon);
    for (Bot& b : bots) {
      if (b.crashed) continue;
      fault::RobotFaultState st = model.robot_state(b.orig, t);
      if (st.crashed) {
        // Crash-stop: freeze in place, radio dead from here on.
        b.crashed = true;
        b.crash_time = st.crash_time;
        continue;
      }
      double rate = st.stuck ? 0.0 : st.speed_factor;
      // A healthy robot behind schedule sprints to close the deficit; a
      // slowed actuator cannot (its factor *is* its ceiling).
      if (rate >= 1.0 - 1e-12 && b.p < p_sched - 1e-12) {
        rate = opt_.catch_up_factor;
      }
      double p_next = std::min(p_sched, b.p + dt * rate);
      if (p_next > b.p) {
        Vec2 next = b.traj.position(p_next);
        report.executed_distance += distance(b.pos, next);
        b.p = p_next;
        b.pos = next;
      }
    }

    // --- online connectivity monitor --------------------------------------
    actual.clear();
    std::fill(orig_to_alive.begin(), orig_to_alive.end(), -1);
    for (const Bot& b : bots) {
      if (b.crashed) continue;
      fault::RobotFaultState st = model.robot_state(b.orig, t);
      Vec2 pos = b.pos;
      if (st.noise_sigma > 0.0) {
        pos += model.noise_offset(b.orig, tick, st.noise_sigma);
      }
      orig_to_alive[static_cast<std::size_t>(b.orig)] =
          static_cast<int>(actual.size());
      actual.push_back(pos);
    }
    dropped_alive.clear();
    model.dropped_links_into(t, dropped);
    for (const auto& [a, b] : dropped) {
      int ia = orig_to_alive[static_cast<std::size_t>(a)];
      int ib = orig_to_alive[static_cast<std::size_t>(b)];
      if (ia >= 0 && ib >= 0) dropped_alive.emplace_back(ia, ib);
    }
    // The guard compares the executed formation against the *planned*
    // configuration at the same schedule time: a plan legitimately passes
    // through loose moments (backbone links near r_c), so a fixed guard
    // fraction would trip on fault-free execution. Calibrate the guard to
    // the planned bottleneck and it fires only on regressions.
    planned_now.clear();
    for (const Bot& b : bots) {
      if (!b.crashed) planned_now.push_back(b.traj.position(p_sched));
    }
    if (planned_now != guard.planned) {
      std::swap(planned_now, guard.planned);
      guard.bp = bottleneck_radius(guard.planned);
    }
    double gf = opt_.guard_factor;
    if (guard.bp > gf * r_c_) {
      // Quantized upward: gf moves only when the planned bottleneck
      // crosses a 2% step, so it rarely invalidates the verdict memo.
      gf = std::min(1.0, std::ceil(1.02 * guard.bp / r_c_ * 50.0) / 50.0);
    }
    const double range_factor = model.range_factor(t);
    if (actual != guard.actual || dropped_alive != guard.dropped ||
        range_factor != guard.range_factor || gf != guard.guard_factor) {
      std::swap(actual, guard.actual);
      std::swap(dropped_alive, guard.dropped);
      guard.range_factor = range_factor;
      guard.guard_factor = gf;
      guard.verdict =
          monitor.assess(guard.actual, range_factor, guard.dropped, gf);
    }
    verdict = guard.verdict;
    if (!verdict.guard_ok && was_guard_ok) ++guard_trips;
    was_guard_ok = verdict.guard_ok;
    if (!verdict.connected && was_connected) {
      ++disconnects;
      log(t, ExecEventType::kDisconnected, -1,
          "alive network split into components");
      report.connected_throughout = false;
      if (report.first_disconnect_time < 0.0) {
        report.first_disconnect_time = t;
      }
    } else if (verdict.connected && !was_connected) {
      log(t, ExecEventType::kReconnected, -1, "alive network rejoined");
    }
    was_connected = verdict.connected;

    // --- crash detection + peer absorb ------------------------------------
    just_detected.clear();
    for (std::size_t i = 0; i < bots.size(); ++i) {
      Bot& b = bots[i];
      if (b.crashed && !b.detected &&
          t >= b.crash_time + opt_.detection_delay) {
        b.detected = true;
        just_detected.push_back(i);
        report.crashed.push_back(b.orig);
        log(t, ExecEventType::kFaultDetected, b.orig,
            "crash-stop of " + robot_detail(b.orig));
      }
    }
    if (!just_detected.empty() && opt_.enable_recovery) {
      if (just_detected.size() >= bots.size()) {
        report.degraded = true;
        log(t, ExecEventType::kDegraded, -1, "all robots crashed");
        bots.clear();
        break;
      }
      ++report.recoveries;
      log(t, ExecEventType::kRecoveryStarted, -1,
          "absorbing " + std::to_string(just_detected.size()) +
              " crashed robot(s)");
      std::vector<Trajectory> planned;
      std::vector<int> failed;
      planned.reserve(bots.size());
      for (std::size_t i = 0; i < bots.size(); ++i) {
        planned.push_back(bots[i].traj);
        if (bots[i].crashed && bots[i].detected) {
          failed.push_back(static_cast<int>(i));
        }
      }
      try {
        FailureRecovery rec = recover_from_failure(
            planned, t, failed, m2_world, r_c_, density,
            opt_.recovery_lloyd_steps, opt_.recovery_cvt_samples);
        std::vector<Bot> next;
        next.reserve(rec.survivors.size());
        for (std::size_t k = 0; k < rec.survivors.size(); ++k) {
          Bot b = bots[static_cast<std::size_t>(rec.survivors[k])];
          b.traj = rec.trajectories[k];
          next.push_back(std::move(b));
        }
        bots = std::move(next);
        horizon = 0.0;
        for (const Bot& b : bots) {
          horizon = std::max(horizon, b.traj.end_time());
        }
        log(t, ExecEventType::kRecoveryFinished, -1,
            "survivor timelines spliced; " +
                std::to_string(rec.lloyd_steps) + " re-spread steps");
      } catch (const std::exception& e) {
        report.degraded = true;
        log(t, ExecEventType::kDegraded, -1,
            std::string("absorb failed: ") + e.what());
        bots.erase(std::remove_if(bots.begin(), bots.end(),
                                  [](const Bot& b) { return b.crashed; }),
                   bots.end());
      }
    }

    // --- pause-and-wait policy for transient trouble ----------------------
    if (opt_.enable_recovery) {
      if (!verdict.guard_ok) {
        if (paused) {
          if (t >= pause_deadline) {
            if (retry_count >= opt_.max_pause_retries) {
              report.degraded = true;
              paused = false;
              suppress_pause = true;
              log(t, ExecEventType::kDegraded, -1,
                  "pause retry budget exhausted (" +
                      std::to_string(retry_count) + " retries)");
              log(t, ExecEventType::kPauseEnded, -1, "resumed degraded");
            } else {
              ++retry_count;
              ++report.retries;
              backoff *= 2.0;
              pause_deadline = t + backoff;
            }
          }
        } else if (!suppress_pause) {
          paused = true;
          ++report.pauses;
          retry_count = 0;
          backoff = backoff0;
          pause_deadline = t + backoff;
          log(t, ExecEventType::kPauseStarted, -1,
              "connectivity guard tripped; schedule clock frozen");
        }
      } else {
        suppress_pause = false;
        if (paused) {
          paused = false;
          log(t, ExecEventType::kPauseEnded, -1, "guard clean; resumed");
        }
      }
    }

    // --- scripted mission changes -----------------------------------------
    while (next_mission < missions.size() && t >= missions[next_mission].t) {
      const MissionChange& mc = missions[next_mission];
      ++next_mission;
      ANR_CHECK_MSG(mc.planner != nullptr, "mission change without planner");
      std::vector<Trajectory> current;
      current.reserve(bots.size());
      for (const Bot& b : bots) {
        if (!b.crashed) current.push_back(b.traj);
      }
      try {
        RetargetResult rr =
            retarget_mid_march(current, p_sched, *mc.planner, mc.m2_offset);
        std::size_t k = 0;
        for (Bot& b : bots) {
          if (b.crashed) continue;
          b.traj = rr.trajectories[k++];
        }
        horizon = 0.0;
        for (const Bot& b : bots) {
          if (!b.crashed) horizon = std::max(horizon, b.traj.end_time());
        }
        ++report.retargets;
        log(t, ExecEventType::kRetargeted, -1,
            "mission change spliced at schedule time " +
                std::to_string(p_sched));
      } catch (const std::exception& e) {
        report.degraded = true;
        log(t, ExecEventType::kDegraded, -1,
            std::string("retarget failed: ") + e.what());
      }
    }

    // --- termination -------------------------------------------------------
    bool done = true;
    for (const Bot& b : bots) {
      if (b.crashed) {
        if (!b.detected) done = false;  // detection (and absorb) pending
        continue;
      }
      if (b.p < b.traj.end_time() - 1e-9) done = false;
    }
    if (done && next_mission >= missions.size()) {
      log(t, ExecEventType::kCompleted, -1, "all alive robots at rest");
      break;
    }
    if (t > max_wall) {
      report.degraded = true;
      log(t, ExecEventType::kDegraded, -1, "wall-clock budget exhausted");
      break;
    }
  }

  // --- final accounting ----------------------------------------------------
  report.end_time = t;
  report.final_connected = verdict.connected;
  for (const Bot& b : bots) {
    if (b.crashed) continue;
    report.survivors.push_back(b.orig);
    report.final_ids.push_back(b.orig);
    report.final_positions.push_back(b.pos);
  }
  report.survival_rate =
      n0 == 0 ? 0.0
              : static_cast<double>(report.survivors.size()) /
                    static_cast<double>(n0);
  report.extra_distance = report.executed_distance - report.planned_distance;

  std::vector<char> survives(n0, 0);
  std::vector<Vec2> final_by_orig(n0);
  for (std::size_t k = 0; k < report.final_ids.size(); ++k) {
    survives[static_cast<std::size_t>(report.final_ids[k])] = 1;
    final_by_orig[static_cast<std::size_t>(report.final_ids[k])] =
        report.final_positions[k];
  }
  int link_count = 0, preserved = 0;
  for (const auto& [a, b] : initial_links) {
    if (!survives[static_cast<std::size_t>(a)] ||
        !survives[static_cast<std::size_t>(b)]) {
      continue;
    }
    ++link_count;
    if (distance(final_by_orig[static_cast<std::size_t>(a)],
                 final_by_orig[static_cast<std::size_t>(b)]) <=
        r_c_ * (1.0 + 1e-12)) {
      ++preserved;
    }
  }
  report.stable_link_ratio =
      link_count == 0 ? 1.0
                      : static_cast<double>(preserved) /
                            static_cast<double>(link_count);

  // Batched instrumentation: counts come from the finished report, so the
  // tick loop runs identically with or without a registry attached.
  obs::inc(ins_.runs);
  obs::inc(ins_.ticks, static_cast<std::uint64_t>(tick));
  obs::inc(ins_.pauses, static_cast<std::uint64_t>(report.pauses));
  obs::inc(ins_.retries, static_cast<std::uint64_t>(report.retries));
  obs::inc(ins_.crashes, report.crashed.size());
  obs::inc(ins_.recoveries, static_cast<std::uint64_t>(report.recoveries));
  obs::inc(ins_.guard_trips, static_cast<std::uint64_t>(guard_trips));
  obs::inc(ins_.disconnects, static_cast<std::uint64_t>(disconnects));
  obs::inc(ins_.retargets, static_cast<std::uint64_t>(report.retargets));
  if (report.degraded) obs::inc(ins_.degraded);
  return report;
}

}  // namespace anr
