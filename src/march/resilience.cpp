#include "march/resilience.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "net/grid_connectivity.h"

namespace anr {

FailureRecovery recover_from_failure(const std::vector<Trajectory>& planned,
                                     double t_fail,
                                     const std::vector<int>& failed,
                                     const FieldOfInterest& m2_world,
                                     double r_c, const DensityFn& density,
                                     int max_lloyd_steps, int cvt_samples) {
  ANR_CHECK(!planned.empty());
  for (int f : failed) {
    ANR_CHECK_MSG(f >= 0 && f < static_cast<int>(planned.size()),
                  "failed index out of range");
  }
  std::set<int> dead(failed.begin(), failed.end());
  ANR_CHECK_MSG(dead.size() < planned.size(), "all robots failed");

  FailureRecovery out;
  double plan_end = 0.0;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    plan_end = std::max(plan_end, planned[i].end_time());
    if (!dead.count(static_cast<int>(i))) {
      out.survivors.push_back(static_cast<int>(i));
      out.trajectories.push_back(planned[i]);
    }
  }
  (void)t_fail;  // survivors keep flying their plan; recovery starts after
  out.recovery_start = plan_end;

  // Re-spread: connectivity-safe Lloyd over the target FoI among the
  // survivors only (the dead robots' Voronoi regions get absorbed).
  GridCvt grid(m2_world, density ? density : uniform_density(), cvt_samples);
  std::vector<Vec2> cur;
  cur.reserve(out.trajectories.size());
  for (const Trajectory& t : out.trajectories) cur.push_back(t.end());

  // Reference speed comparable to the original march.
  double speed_ref = 1e-9;
  for (const Trajectory& t : out.trajectories) {
    double dur = std::max(t.end_time() - t.start_time(), 1e-9);
    speed_ref = std::max(speed_ref, t.length() / dur);
  }

  double t = plan_end;
  net::GridConnectivity connectivity(r_c);
  for (int step = 0; step < max_lloyd_steps; ++step) {
    std::vector<Vec2> cand = grid.centroids(cur);
    double factor = 1.0;
    std::vector<Vec2> trial(cur.size());
    bool ok = false;
    for (int halving = 0; halving < 7; ++halving) {
      for (std::size_t i = 0; i < cur.size(); ++i) {
        trial[i] = lerp(cur[i], cand[i], factor);
      }
      if (connectivity.connected(trial)) {
        ok = true;
        break;
      }
      factor /= 2.0;
    }
    if (!ok) break;
    double max_move = 0.0;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      max_move = std::max(max_move, distance(trial[i], cur[i]));
    }
    ++out.lloyd_steps;
    if (max_move <= 0.5) {
      double dtf = std::max(max_move / speed_ref, 1e-6);
      for (std::size_t i = 0; i < cur.size(); ++i) {
        out.recovery_distance += distance(cur[i], trial[i]);
        out.trajectories[i].append(trial[i], t + dtf);
      }
      cur = trial;
      break;
    }
    double dt = std::max(max_move / speed_ref, 1e-6);
    for (std::size_t i = 0; i < cur.size(); ++i) {
      out.recovery_distance += distance(cur[i], trial[i]);
      out.trajectories[i].append(trial[i], t + dt);
    }
    cur = trial;
    t += dt;
  }
  out.final_positions = cur;
  return out;
}

RetargetResult retarget_mid_march(const std::vector<Trajectory>& current,
                                  double t_event,
                                  const MarchPlanner& new_planner,
                                  Vec2 new_offset) {
  ANR_CHECK(!current.empty());
  ANR_CHECK_MSG(t_event >= 0.0, "retarget time must be non-negative");
  RetargetResult out;
  out.event_time = t_event;
  out.positions_at_event.reserve(current.size());
  for (const Trajectory& t : current) {
    out.positions_at_event.push_back(t.position(t_event));
  }

  // The in-progress march maintained C = 1, so this deployment is a valid
  // (connected) starting configuration for a fresh plan.
  out.second_leg = new_planner.plan(out.positions_at_event, new_offset);

  out.trajectories.reserve(current.size());
  for (std::size_t i = 0; i < current.size(); ++i) {
    Trajectory spliced = current[i].truncated_at(t_event);
    // Shift the second leg to begin at the event time.
    const Trajectory& leg = out.second_leg.trajectories[i];
    Trajectory shifted;
    for (std::size_t w = 0; w < leg.num_waypoints(); ++w) {
      shifted.append(leg.waypoints()[w], leg.times()[w] + t_event);
    }
    spliced.extend(shifted);
    out.trajectories.push_back(std::move(spliced));
  }
  return out;
}

}  // namespace anr
