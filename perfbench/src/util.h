// Shared pieces of the benchmark runner: run arguments, the result
// report, latency summaries, the plan-contract checker, registry totals
// and process resource probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "anr/anr.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupt the first checked plan (self-test of the contract check).
  bool inject_violation = false;
};

/// Median plus the highest percentile that leaves at least ten samples
/// beyond it (nearest rank). With ten or fewer samples no such
/// percentile exists; `tail` is then the maximum and `tail_percentile`
/// reads 100.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
};
Summary summarize(std::vector<double> samples);
double mean_of(const std::vector<double>& v);
double median_of(std::vector<double> v);

/// Everything one run reports. Metrics are flat name -> (value, unit);
/// `detail` carries the context and the per-metric notes (sample counts,
/// tail percentiles, reconciliation tolerances).
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit);
  void detail(const std::string& key, anr::json::Value value);
  void summary_detail(const std::string& key, const Summary& s);

  /// One operation attempted / failed (errors, rejects, lost responses).
  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  void failed(std::uint64_t n = 1) { failed_ += n; }
  /// A contract or determinism violation: counts as a failed operation
  /// and makes the run incorrect (the command exits nonzero).
  void violation(const std::string& what);

  /// A distinct plan that breaks C = 1 or lets the boundary ring gap
  /// exceed r_c. Counted and reported (bench.plans_c_broken,
  /// bench.plans_gap_over_rc), not failed: the planner does not hold
  /// these on every input yet.
  void plan_defect(const std::string& kind, const std::string& what);
  std::uint64_t plan_defects(const std::string& kind) const;

  bool correct() const { return violations_.empty(); }
  std::uint64_t attempted_count() const { return attempted_; }
  std::uint64_t failed_count() const { return failed_; }

  anr::json::Value to_json(const RunArgs& args) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  anr::json::Object detail_;
  std::vector<std::string> violations_;
  std::map<std::string, std::uint64_t> defects_;
  anr::json::Array defect_log_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Axis-aligned region a route must never enter (a keep-out rectangle
/// already inset by the rasterization margin).
struct Box {
  anr::Vec2 lo;
  anr::Vec2 hi;
};

/// The paper's contract, measured on one plan.
struct PlanQuality {
  double link_ratio = 0.0;  ///< simulated L
  double distance = 0.0;    ///< D
  double chord_sum = 0.0;   ///< sum of |final - start|
};

/// Checks the paper's contract on one plan: L in [0, 1], D >= the chord
/// sum and, when `keep_out` is non-empty, that no trajectory sample lies
/// inside any box (each failure a violation labelled with `label`); and
/// C = 1 over the simulated timeline and max_boundary_gap <= r_c (each
/// failure a plan defect, see Report::plan_defect).
PlanQuality check_contract(const anr::MarchPlan& plan, double r_c,
                           const std::vector<Box>& keep_out,
                           const std::string& label, Report& report);

/// Routes robot 0 through the middle of `box` after its last waypoint.
/// Used only by --inject-violation.
void enter_keep_out(anr::MarchPlan* plan, const Box& box);

/// Registry contents folded over the "shard" label: counters and gauges
/// by value, histograms by sum. Keys are the metric name plus any
/// remaining labels, e.g. anr_plan_stage_seconds{stage=extraction}.
struct Totals {
  std::map<std::string, double> value;

  double at(const std::string& key) const;
};
Totals read_totals(const anr::obs::Registry& registry);

/// Planner-stage layer numbers over a set of plans, from the planner's
/// own stage histograms and counters (deltas between two Totals).
/// `wall_s` is the caller's own timing of those plans; `nested_routing_s`
/// is terrain routing run inside another stage (counted once).
struct PlannerLayers {
  double plans = 0.0;
  double wall_s = 0.0;
  double nested_routing_s = 0.0;
  double cpu_util = 0.0;  ///< process CPU s / wall s inside plan()
  double t_triangles = 0.0;  ///< per plan
  double adjust_steps = 0.0;
  Totals before;
  Totals after;
};
/// Emits mesh.*, harmonic.*, coverage.*, terrain.* and the planner part
/// of march.* (per-plan means) plus the stage reconciliation.
void emit_planner_layers(const PlannerLayers& layers, Report& report);

/// Sum of span durations at `depth` named `name` (any name when null)
/// among spans numbered `*next_seq` or later; advances `*next_seq` past
/// the newest span read.
double span_seconds(const anr::obs::Registry& registry, int depth,
                    const char* name, std::uint64_t* next_seq);

/// Moves every point by up to `amplitude` along each axis; points that
/// would leave `region` stay where they are.
std::vector<anr::Vec2> jitter_inside(const anr::FieldOfInterest& region,
                                     std::vector<anr::Vec2> points,
                                     double amplitude, anr::Rng& rng);

/// Per-layer metrics of layers a workload does not run, reported as 0:
/// the serving path (runtime.*, shard.*, io.*, open-loop generator) and
/// plan execution (march.exec_*, net.*).
void emit_idle_serving_layers(Report& report);
void emit_idle_execution_layers(Report& report);

double peak_rss_mb();
double process_cpu_seconds();

/// Workload entry points; each fills `report` and returns normally.
void run_plan_10k(const RunArgs& args, Report& report);
void run_serve_zipf(const RunArgs& args, Report& report);
void run_mission_terrain(const RunArgs& args, Report& report);

}  // namespace perfbench
