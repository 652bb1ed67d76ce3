// plan_10k: one client, closed loop, calling MarchPlanner::plan() on a
// 10k-robot deployment — scenario 1 scaled about its centroids to hold
// the paper's robot density (the bench_scale geometry, multigrid
// harmonic path), with the task arena at its default thread count.
// Nearly all the time is mesh extraction, the harmonic map, rotation
// search and CVT adjustment; serving, terrain and execution do no work.
//
// The seed jitters every lattice site by up to kPlan10kJitter of the lattice
// spacing (sites that would leave M1 stay put), so each seed is a
// different deployment of the same size and density.
#include <cmath>
#include <memory>
#include <stdexcept>

#include "util.h"
#include "workloads.h"

namespace perfbench {

using namespace anr;

namespace {

FieldOfInterest scaled_foi(const FieldOfInterest& foi, double s) {
  const Vec2 c = foi.centroid();
  auto scale_poly = [&](const Polygon& p) {
    std::vector<Vec2> pts;
    pts.reserve(p.size());
    for (Vec2 q : p.points()) pts.push_back(c + (q - c) * s);
    return Polygon(std::move(pts));
  };
  std::vector<Polygon> holes;
  for (const Polygon& h : foi.holes()) holes.push_back(scale_poly(h));
  return FieldOfInterest(scale_poly(foi.outer()), std::move(holes));
}

// Triangular lattice of exactly n sites over m1, then seeded jitter.
std::vector<Vec2> jittered_lattice(const FieldOfInterest& m1, int n,
                                   std::uint64_t seed) {
  double h = std::sqrt(2.0 * m1.area() /
                       (std::sqrt(3.0) * static_cast<double>(n)));
  std::vector<Vec2> pts = m1.lattice_points(h);
  for (int guard = 0; static_cast<int>(pts.size()) < n && guard < 64; ++guard) {
    h *= 0.97;
    pts = m1.lattice_points(h);
  }
  if (static_cast<int>(pts.size()) > n) pts.resize(static_cast<std::size_t>(n));
  Rng rng(seed);
  return jitter_inside(m1, std::move(pts), kPlan10kJitter * h, rng);
}

}  // namespace

void run_plan_10k(const RunArgs& args, Report& report) {
  const Scenario sc = scenario(1);
  const double r_c = sc.comm_range;
  const double s = std::sqrt(static_cast<double>(kPlan10kRobots) /
                             static_cast<double>(sc.num_robots));
  const FieldOfInterest m1 = scaled_foi(sc.m1, s);
  const FieldOfInterest m2 = scaled_foi(sc.m2_shape, s);
  const std::vector<Vec2> deploy =
      jittered_lattice(m1, kPlan10kRobots, args.seed);
  const double gap = (m1.bbox().width() + m2.bbox().width()) / 2.0 +
                     kPlan10kSeparationCr * r_c;
  const Vec2 offset = m1.centroid() + Vec2{gap, 0.0} - m2.centroid();
  if (!net::is_connected(deploy, r_c)) {
    throw std::runtime_error("generated deployment is not connected");
  }

  PlannerOptions opt;
  opt.mesher.target_grid_points = kPlan10kRobots;
  opt.cvt_samples = 2 * kPlan10kRobots;
  opt.max_adjust_steps = 3;

  // Set-up: planner construction (M2 meshing, harmonic map, CVT
  // sampling), repeated; the median is setup_s.
  std::vector<double> builds;
  std::unique_ptr<MarchPlanner> planner;
  for (int i = 0; i < kSetupRepeats; ++i) {
    planner.reset();
    const Clock::time_point t0 = Clock::now();
    planner = std::make_unique<MarchPlanner>(m1, m2, r_c, opt);
    builds.push_back(seconds_between(t0, Clock::now()));
  }

  // Warm-up plan (arena threads start, allocator settles); it is also
  // the reference every timed repeat must reproduce byte for byte.
  MarchPlan reference = planner->plan(deploy, offset);
  report.attempted();
  const std::string reference_bytes = encode_plan(reference);
  const PlanQuality q = check_contract(reference, r_c, {}, "plan_10k", report);

  // Untraced half (the whole run without --trace 1), then the traced half.
  const double untraced_budget = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<double> untraced, traced;
  auto timed_plan = [&](std::vector<double>& samples) {
    const Clock::time_point t0 = Clock::now();
    const MarchPlan plan = planner->plan(deploy, offset);
    samples.push_back(seconds_between(t0, Clock::now()));
    report.attempted();
    std::string bytes = encode_plan(plan);
    if (args.inject_violation && samples.size() == 1) bytes[bytes.size() / 2] ^= 1;
    if (bytes != reference_bytes) {
      report.violation("plan_10k: repeat " + std::to_string(samples.size()) +
                       " differs from the reference plan bytes");
    }
    return plan;
  };

  const Clock::time_point loop_start = Clock::now();
  while (seconds_between(loop_start, Clock::now()) < untraced_budget) {
    timed_plan(untraced);
  }
  const double loop_wall = seconds_between(loop_start, Clock::now());

  const Summary lat = summarize(untraced);
  report.metric("setup_s", median_of(builds), "s");
  report.metric("latency_p50_s", lat.p50, "s");
  report.metric("latency_tail_s", lat.tail, "s");
  report.metric("goodput_ops_s", static_cast<double>(untraced.size()) / loop_wall,
                "1/s");
  report.metric("stable_link_ratio", q.link_ratio, "ratio");
  report.metric("distance_ratio", q.distance / q.chord_sum, "ratio");
  report.summary_detail("latency_s", lat);
  report.detail("robots", static_cast<double>(deploy.size()));

  if (args.trace) {
    obs::Registry registry;
    planner->set_observer(&registry);
    PlannerLayers layers;
    layers.before = read_totals(registry);
    std::uint64_t next_seq = 0;
    double cpu = 0.0;
    const Clock::time_point traced_start = Clock::now();
    while (seconds_between(traced_start, Clock::now()) < args.seconds / 2.0) {
      const double cpu0 = process_cpu_seconds();
      const MarchPlan plan = timed_plan(traced);
      cpu += process_cpu_seconds() - cpu0;
      layers.nested_routing_s +=
          span_seconds(registry, 2, "terrain_routing", &next_seq);
      layers.t_triangles += static_cast<double>(plan.t_stats.triangles);
      layers.adjust_steps += plan.adjust_steps;
    }
    planner->set_observer(nullptr);
    layers.after = read_totals(registry);
    layers.plans = static_cast<double>(traced.size());
    for (double t : traced) layers.wall_s += t;
    layers.cpu_util = layers.wall_s > 0.0 ? cpu / layers.wall_s : 0.0;
    layers.t_triangles /= layers.plans;
    layers.adjust_steps /= layers.plans;
    emit_planner_layers(layers, report);
    report.metric("march.planner_build_s", median_of(builds), "s");
    report.metric("bench.trace_overhead_ratio",
                  summarize(traced).p50 / lat.p50, "ratio");
    emit_idle_serving_layers(report);
    emit_idle_execution_layers(report);
  }
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
