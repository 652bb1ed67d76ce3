// mission_terrain: one client, closed loop. A mission plans 72 robots
// for scenario 1 and then scenario 5 with terrain-geodesic motion over a
// slope + mud + keep-out cost field, and executes each plan twice under a
// seeded fault campaign: with the centralized ExecutionEngine (one crash,
// two link dropouts) and with the DecentralizedEngine at 5% message loss
// (the link dropouts; see kMissionCrashes). Few robots, so fast-marching
// routing dominates planning; it is the only workload that runs the
// execution, fault and message layers.
//
// The cost field is the one the library's terrain invariant test and
// fault_drill --terrain use (rolling hills, a mud patch north of the
// corridor, a keep-out block in it). The seed jitters the deployments
// and draws the fault campaigns. Missions cycle through
// kMissionDeployments deployments per scenario, so later missions repeat
// earlier requests byte for byte.
#include <algorithm>
#include <iostream>

#include "util.h"
#include "workloads.h"

namespace perfbench {

using namespace anr;

namespace {

struct Leg {
  int scenario_id = 0;
  double r_c = 0.0;
  FieldOfInterest m1;
  FieldOfInterest m2_shape;
  FieldOfInterest m2_world;
  Vec2 offset;
  PlannerOptions options;
  std::vector<Box> keep_out;  ///< inset by the rasterization margin
  std::vector<std::vector<Vec2>> deployments;
  std::vector<std::string> reference_bytes;  ///< per deployment
  std::vector<double> total_time;  ///< per deployment
  std::unique_ptr<MarchPlanner> planner;
};

Leg make_leg(int id, std::uint64_t seed) {
  const Scenario sc = scenario(id);
  Leg leg;
  leg.scenario_id = id;
  leg.r_c = sc.comm_range;
  leg.m1 = sc.m1;
  leg.m2_shape = sc.m2_shape;
  const double rc = sc.comm_range;
  leg.offset = sc.m1.centroid() + Vec2{kMissionSeparationCr * rc, 0.0} -
               sc.m2_shape.centroid();
  leg.m2_world = sc.m2_shape.translated(leg.offset);

  BBox tb = sc.m1.bbox();
  tb.expand(leg.m2_world.bbox().lo);
  tb.expand(leg.m2_world.bbox().hi);
  const Vec2 mid = lerp(sc.m1.centroid(), leg.m2_world.centroid(), 0.5);

  PlannerOptions& opt = leg.options;
  opt.mesher.target_grid_points = 350;
  opt.cvt_samples = 4000;
  opt.max_adjust_steps = 5;
  opt.trajectory.motion = MotionModel::kTerrainGeodesic;
  TerrainCostOptions& terrain = opt.trajectory.terrain;
  terrain.terrain = HeightField::rolling(tb, 10, 35.0, 160.0, /*seed=*/99);
  terrain.slope_weight = 2.5;
  terrain.uphill_penalty = 0.4;
  terrain.mud.push_back({{mid.x, mid.y + 2.0 * rc}, 90.0, 3.0});
  const Vec2 ko_lo = mid - Vec2{rc, 0.75 * rc};
  const Vec2 ko_hi = mid + Vec2{rc, 0.75 * rc};
  terrain.keep_out.push_back(make_rect(ko_lo, ko_hi));

  // A route may clip a keep-out corner by up to one cell diagonal and
  // straightened chords hug the polygon, so the check uses the rectangle
  // inset by 2.5 cells. The cell size is bounded from the largest domain
  // the router can rasterize (M1, M2 and M1 shifted by the march offset,
  // padded twice).
  BBox domain = tb;
  domain.expand(sc.m1.bbox().lo + leg.offset);
  domain.expand(sc.m1.bbox().hi + leg.offset);
  const double pad = terrain.padding_cr * rc;
  const double extent = std::max(domain.width(), domain.height()) + 4.0 * pad;
  const double margin = 2.5 * extent / terrain.max_cells;
  leg.keep_out.push_back({ko_lo + Vec2{margin, margin},
                          ko_hi - Vec2{margin, margin}});

  Rng rng(seed * 7919 + static_cast<std::uint64_t>(id));
  for (int k = 1; k <= kMissionDeployments; ++k) {
    leg.deployments.push_back(jitter_inside(
        sc.m1,
        optimal_coverage_positions(sc.m1, kMissionRobots, k, uniform_density())
            .positions,
        kMissionJitterM, rng));
  }
  return leg;
}

struct ExecTotals {
  int runs = 0;
  int connected = 0;
  double central_s = 0.0;
  double decentral_s = 0.0;
  double sent = 0.0;
  double delivered = 0.0;
};

}  // namespace

void run_mission_terrain(const RunArgs& args, Report& report) {
  std::vector<Leg> legs;
  for (int id : {1, 5}) legs.push_back(make_leg(id, args.seed));

  // Set-up: construct both terrain planners, repeated; median is setup_s.
  std::vector<double> builds;
  for (int i = 0; i < kMissionSetupRepeats; ++i) {
    for (Leg& leg : legs) leg.planner.reset();
    const Clock::time_point t0 = Clock::now();
    for (Leg& leg : legs) {
      leg.planner = std::make_unique<MarchPlanner>(leg.m1, leg.m2_shape,
                                                   leg.r_c, leg.options);
    }
    builds.push_back(seconds_between(t0, Clock::now()));
  }
  std::cerr << "mission_terrain: planners built in " << median_of(builds)
            << " s\n";

  // Every distinct request planned once up front: contract-checked and
  // kept as the byte reference.
  std::vector<double> link_ratios, distance_ratios;
  bool injected = false;
  for (Leg& leg : legs) {
    for (std::size_t k = 0; k < leg.deployments.size(); ++k) {
      const Clock::time_point t0 = Clock::now();
      MarchPlan plan = leg.planner->plan(leg.deployments[k], leg.offset);
      std::cerr << "mission_terrain: scenario " << leg.scenario_id
                << " deployment " << k << " planned in "
                << seconds_between(t0, Clock::now()) << " s\n";
      report.attempted();
      leg.reference_bytes.push_back(encode_plan(plan));
      leg.total_time.push_back(plan.total_time);
      if (args.inject_violation && !injected) {
        enter_keep_out(&plan, leg.keep_out.front());
        injected = true;
      }
      const PlanQuality q = check_contract(
          plan, leg.r_c, leg.keep_out,
          "mission_terrain scenario " + std::to_string(leg.scenario_id) +
              " deployment " + std::to_string(k),
          report);
      link_ratios.push_back(q.link_ratio);
      distance_ratios.push_back(q.distance / q.chord_sum);
    }
  }

  // Missions cycle through the deployments; each leg draws a fresh fault
  // campaign over the plan's timeline (see kMissionCrashes).
  std::uint64_t mission_index = 0;
  Rng campaign_rng(args.seed * 104729 + 1);
  fault::CampaignOptions co;
  co.crashes = kMissionCrashes;
  co.stuck = 0;
  co.slowdowns = 0;
  co.noise_bursts = 0;
  co.link_dropouts = kMissionLinkDropouts;
  // One mission; returns its wall time (planning + both executions, both
  // legs). Byte comparison and bookkeeping happen off the clock.
  auto mission = [&](obs::Registry* registry, ExecTotals& ex,
                     PlannerLayers* layers, std::uint64_t* next_seq) {
    const std::size_t k = mission_index++ % kMissionDeployments;
    double wall = 0.0;
    for (Leg& leg : legs) {
      const fault::FaultSchedule campaign = fault::random_campaign(
          campaign_rng, kMissionRobots, 0.0, leg.total_time[k], co);
      fault::FaultSchedule without_crashes;
      for (const fault::FaultEvent& e : campaign.events) {
        if (e.kind != fault::FaultKind::kCrash) without_crashes.add(e);
      }
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      const MarchPlan plan = leg.planner->plan(leg.deployments[k], leg.offset);
      const Clock::time_point t1 = Clock::now();
      const double cpu1 = process_cpu_seconds();

      ExecutionOptions eo;
      eo.registry = registry;
      const ExecutionReport central = ExecutionEngine(leg.r_c, eo).run(
          plan, campaign, leg.m2_world);
      const Clock::time_point t2 = Clock::now();

      DecentralizedOptions dopt;
      dopt.loss_rate = kMissionLossRate;
      dopt.loss_seed = args.seed * 31 + 7;
      dopt.delay_seed = args.seed * 17 + 3;
      dopt.registry = registry;
      const DecentralizedReport dec = DecentralizedEngine(leg.r_c, dopt).run(
          plan, without_crashes, leg.m2_world);
      const Clock::time_point t3 = Clock::now();
      wall += seconds_between(t0, t3);

      report.attempted();
      if (encode_plan(plan) != leg.reference_bytes[k]) {
        report.violation("mission_terrain scenario " +
                         std::to_string(leg.scenario_id) + " deployment " +
                         std::to_string(k) +
                         ": repeat differs from the reference plan bytes");
      }
      ex.runs += 2;
      ex.connected += (central.connected_throughout ? 1 : 0) +
                      (dec.exec.connected_throughout ? 1 : 0);
      ex.central_s += seconds_between(t1, t2);
      ex.decentral_s += seconds_between(t2, t3);
      ex.sent += static_cast<double>(dec.messages_sent);
      ex.delivered += static_cast<double>(dec.messages_delivered);
      if (layers != nullptr) {
        layers->plans += 1.0;
        layers->wall_s += seconds_between(t0, t1);
        layers->cpu_util += cpu1 - cpu0;  // CPU seconds until normalized
        layers->nested_routing_s +=
            span_seconds(*registry, 2, "terrain_routing", next_seq);
        layers->t_triangles += static_cast<double>(plan.t_stats.triangles);
        layers->adjust_steps += plan.adjust_steps;
      }
    }
    return wall;
  };

  // Warm-up mission (allocator, arena threads), untimed.
  ExecTotals warm;
  mission(nullptr, warm, nullptr, nullptr);

  const double untraced_budget = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<double> untraced;
  ExecTotals ex;
  const Clock::time_point loop_start = Clock::now();
  while (seconds_between(loop_start, Clock::now()) < untraced_budget) {
    untraced.push_back(mission(nullptr, ex, nullptr, nullptr));
  }
  const double loop_wall = seconds_between(loop_start, Clock::now());

  const Summary lat = summarize(untraced);
  report.metric("setup_s", median_of(builds), "s");
  report.metric("latency_p50_s", lat.p50, "s");
  report.metric("latency_tail_s", lat.tail, "s");
  report.metric("goodput_ops_s",
                static_cast<double>(untraced.size()) / loop_wall, "1/s");
  report.metric("stable_link_ratio", mean_of(link_ratios), "ratio");
  report.metric("distance_ratio", mean_of(distance_ratios), "ratio");
  report.summary_detail("latency_s", lat);
  report.detail("distinct_plans", static_cast<double>(link_ratios.size()));

  if (args.trace) {
    obs::Registry registry;
    for (Leg& leg : legs) leg.planner->set_observer(&registry);
    PlannerLayers layers;
    layers.before = read_totals(registry);
    std::uint64_t next_seq = 0;
    std::vector<double> traced;
    ExecTotals tex;
    const Clock::time_point traced_start = Clock::now();
    while (seconds_between(traced_start, Clock::now()) < args.seconds / 2.0) {
      traced.push_back(mission(&registry, tex, &layers, &next_seq));
    }
    for (Leg& leg : legs) leg.planner->set_observer(nullptr);
    layers.after = read_totals(registry);
    layers.cpu_util = layers.wall_s > 0.0 ? layers.cpu_util / layers.wall_s : 0.0;
    layers.t_triangles /= layers.plans;
    layers.adjust_steps /= layers.plans;
    emit_planner_layers(layers, report);
    report.metric("march.planner_build_s", median_of(builds), "s");
    report.metric("bench.trace_overhead_ratio",
                  summarize(traced).p50 / lat.p50, "ratio");
    emit_idle_serving_layers(report);

    const double per_run = std::max(1, tex.runs / 2);
    auto total = [&](const char* key) { return layers.after.at(key); };
    report.metric("march.exec_central_s", tex.central_s / per_run, "s");
    report.metric("march.exec_ticks", total("anr_exec_ticks_total") / per_run,
                  "count");
    report.metric("march.exec_pauses", total("anr_exec_pauses_total") / per_run,
                  "count");
    report.metric("march.exec_recoveries",
                  total("anr_exec_recoveries_total") / per_run, "count");
    report.metric("march.exec_decentral_s", tex.decentral_s / per_run, "s");
    report.metric("net.rounds", total("anr_dex_rounds_total") / per_run,
                  "count");
    report.metric("net.messages_sent",
                  total("anr_dex_messages_total") / per_run, "count");
    report.metric("net.retransmissions",
                  total("anr_dex_retransmissions_total") / per_run, "count");
    report.metric("net.delivery_ratio",
                  tex.sent > 0.0 ? tex.delivered / tex.sent : 0.0, "ratio");
    report.metric("march.exec_connected_ratio",
                  tex.runs > 0 ? static_cast<double>(tex.connected) / tex.runs
                               : 0.0,
                  "ratio");
  }
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
