#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>

namespace perfbench {

using namespace anr;

// Largest share of plan() wall time the stage spans may leave
// unattributed before the traced run flags the planner breakdown as not
// reconciling (input checks, repair and trajectory building sit between
// the stage spans).
constexpr double kStageTolerance = 0.10;

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = median_of(samples);
  const std::size_t n = samples.size();
  if (n > 10) {
    s.tail = samples[n - 11];
    s.tail_percentile =
        100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    s.tail = samples.back();
    s.tail_percentile = 100.0;
  }
  return s;
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Report::metric(const std::string& name, double value, const char* unit) {
  metrics_[name] = {value, unit};
}

void Report::detail(const std::string& key, json::Value value) {
  detail_[key] = std::move(value);
}

void Report::summary_detail(const std::string& key, const Summary& s) {
  json::Object o;
  o.emplace("samples", s.count);
  o.emplace("p50", s.p50);
  o.emplace("tail", s.tail);
  o.emplace("tail_percentile", s.tail_percentile);
  detail(key, json::Value(std::move(o)));
}

void Report::violation(const std::string& what) {
  std::cerr << "VIOLATION: " << what << "\n";
  violations_.push_back(what);
  ++failed_;
}

void Report::plan_defect(const std::string& kind, const std::string& what) {
  std::cerr << "warning: plan defect " << kind << ": " << what << "\n";
  ++defects_[kind];
  defect_log_.push_back(kind + ": " + what);
}

std::uint64_t Report::plan_defects(const std::string& kind) const {
  auto it = defects_.find(kind);
  return it == defects_.end() ? 0 : it->second;
}

json::Value Report::to_json(const RunArgs& args) const {
  json::Object metrics;
  for (const auto& [name, vu] : metrics_) {
    json::Object m;
    m.emplace("value", vu.first);
    m.emplace("unit", vu.second);
    metrics.emplace(name, json::Value(std::move(m)));
  }
  json::Array violations;
  for (const std::string& v : violations_) violations.push_back(v);

  json::Object doc;
  doc.emplace("workload", args.workload);
  doc.emplace("seed", static_cast<double>(args.seed));
  doc.emplace("seconds", args.seconds);
  doc.emplace("trace", args.trace);
  doc.emplace("correct", correct());
  doc.emplace("attempted", static_cast<double>(attempted_));
  doc.emplace("failed", static_cast<double>(failed_));
  doc.emplace("violations", json::Value(std::move(violations)));
  doc.emplace("plan_defects", json::Value(defect_log_));
  doc.emplace("metrics", json::Value(std::move(metrics)));
  doc.emplace("detail", json::Value(detail_));
  return json::Value(std::move(doc));
}

PlanQuality check_contract(const MarchPlan& plan, double r_c,
                           const std::vector<Box>& keep_out,
                           const std::string& label, Report& report) {
  PlanQuality q;
  if (plan.trajectories.empty()) {
    report.violation(label + ": plan has no trajectories");
    return q;
  }
  const TransitionMetrics m =
      simulate_transition(plan.trajectories, r_c, plan.transition_end);
  q.link_ratio = m.stable_link_ratio;
  q.distance = m.total_distance;
  for (const Trajectory& t : plan.trajectories) {
    if (!t.empty()) q.chord_sum += distance(t.start(), t.end());
  }

  if (!m.global_connectivity) {
    report.plan_defect("c_broken", label + ": disconnected at t=" +
                                       std::to_string(m.first_disconnect_time));
  }
  if (!(m.stable_link_ratio >= 0.0 && m.stable_link_ratio <= 1.0 + 1e-12)) {
    report.violation(label + ": L outside [0, 1]: " +
                     std::to_string(m.stable_link_ratio));
  }
  if (!std::isfinite(q.distance) || q.distance < q.chord_sum - 1e-6) {
    report.violation(label + ": D below the chord sum");
  }
  if (!(plan.max_boundary_gap <= r_c)) {
    report.plan_defect("gap_over_rc", label + ": boundary gap " +
                                          std::to_string(plan.max_boundary_gap));
  }
  if (!keep_out.empty()) {
    int inside = 0;
    for (const Trajectory& t : plan.trajectories) {
      for (int k = 0; k <= 200; ++k) {
        const double tt = t.start_time() + (t.end_time() - t.start_time()) *
                                               static_cast<double>(k) / 200.0;
        const Vec2 p = t.position(tt);
        for (const Box& b : keep_out) {
          if (p.x > b.lo.x && p.x < b.hi.x && p.y > b.lo.y && p.y < b.hi.y) {
            ++inside;
          }
        }
      }
    }
    if (inside > 0) {
      report.violation(label + ": " + std::to_string(inside) +
                       " trajectory samples inside keep-out");
    }
  }
  return q;
}

void enter_keep_out(MarchPlan* plan, const Box& box) {
  Trajectory& t = plan->trajectories.front();
  t.append(lerp(box.lo, box.hi, 0.5), t.end_time() + 1.0);
}

double Totals::at(const std::string& key) const {
  auto it = value.find(key);
  return it == value.end() ? 0.0 : it->second;
}

Totals read_totals(const obs::Registry& registry) {
  Totals t;
  for (const obs::MetricSnapshot& m : registry.snapshot()) {
    std::string key = m.name;
    std::string labels;
    for (const auto& [k, v] : m.labels) {
      if (k == "shard") continue;
      labels += (labels.empty() ? "" : ",") + k + "=" + v;
    }
    if (!labels.empty()) key += "{" + labels + "}";
    t.value[key] += m.type == obs::MetricType::kHistogram ? m.sum : m.value;
  }
  return t;
}

void emit_planner_layers(const PlannerLayers& l, Report& r) {
  const double plans = std::max(1.0, l.plans);
  auto delta = [&](const std::string& key) {
    return l.after.at(key) - l.before.at(key);
  };
  auto stage = [&](const char* name) {
    return delta(std::string("anr_plan_stage_seconds{stage=") + name + "}");
  };
  const double extraction = stage("extraction");
  const double harmonic = stage("harmonic_map");
  const double rotation = stage("rotation_search");
  const double interpolation = stage("interpolation");
  const double adjustment = stage("adjustment");
  const double routing = stage("terrain_routing");
  const double attributed = extraction + harmonic + rotation + interpolation +
                            adjustment + routing - l.nested_routing_s;
  const double unattributed = l.wall_s - attributed;

  r.metric("mesh.extraction_s", extraction / plans, "s");
  r.metric("mesh.t_triangles", l.t_triangles, "count");
  r.metric("harmonic.map_s", harmonic / plans, "s");
  r.metric("harmonic.multigrid_used",
           delta("anr_harmonic_multigrid_total") / plans, "ratio");
  r.metric("harmonic.rotation_search_s", rotation / plans, "s");
  r.metric("harmonic.rotation_evaluations",
           delta("anr_rotation_probes_total") / plans, "count");
  r.metric("harmonic.interpolation_s", interpolation / plans, "s");
  r.metric("march.repaired_robots",
           delta("anr_plan_repaired_robots_total") / plans, "count");
  r.metric("march.snapped_targets",
           delta("anr_plan_snapped_targets_total") / plans, "count");
  r.metric("coverage.adjustment_s", adjustment / plans, "s");
  r.metric("coverage.adjust_steps", l.adjust_steps, "count");
  r.metric("march.unattributed_s", unattributed / plans, "s");
  r.metric("common.task_arena_cpu_util", l.cpu_util, "ratio");
  r.metric("terrain.routing_s", routing / plans, "s");
  const double solves = delta("anr_fmm_solves_total");
  double fallbacks = 0.0;
  for (const char* reason : {"blocked_start", "unreachable", "stuck_descent",
                             "out_of_domain", "connectivity"}) {
    fallbacks +=
        delta(std::string("anr_fmm_fallbacks_total{reason=") + reason + "}");
  }
  r.metric("terrain.fmm_solves", solves / plans, "count");
  r.metric("terrain.fmm_fallback_ratio", solves > 0 ? fallbacks / solves : 0.0,
           "ratio");

  const double share = l.wall_s > 0.0 ? unattributed / l.wall_s : 0.0;
  const bool ok = share >= -kStageTolerance && share <= kStageTolerance;
  r.metric("bench.stage_reconcile_ratio",
           l.wall_s > 0.0 ? attributed / l.wall_s : 0.0, "ratio");
  json::Object o;
  o.emplace("plans", l.plans);
  o.emplace("plan_wall_s", l.wall_s);
  o.emplace("stage_sum_s", attributed);
  o.emplace("unattributed_share", share);
  o.emplace("tolerance", kStageTolerance);
  o.emplace("within_tolerance", ok);
  r.detail("reconcile_planner_stages", json::Value(std::move(o)));
  if (!ok) {
    std::cerr << "warning: planner stages leave " << share * 100.0
              << "% of plan time unattributed (tolerance "
              << kStageTolerance * 100.0 << "%)\n";
  }
}

std::vector<Vec2> jitter_inside(const FieldOfInterest& region,
                                std::vector<Vec2> points, double amplitude,
                                Rng& rng) {
  for (Vec2& p : points) {
    const Vec2 q = p + Vec2{rng.uniform(-amplitude, amplitude),
                            rng.uniform(-amplitude, amplitude)};
    if (region.contains(q)) p = q;
  }
  return points;
}

void emit_idle_serving_layers(Report& r) {
  for (const char* name :
       {"runtime.queue_wait_p50_s", "runtime.queue_wait_tail_s",
        "runtime.plan_exec_p50_s", "runtime.build_wait_s",
        "runtime.frontend_overhead_p50_s", "io.decode_s",
        "bench.generator_lag_tail_s"}) {
    r.metric(name, 0.0, "s");
  }
  for (const char* name :
       {"runtime.cache_constructions", "runtime.cache_coalesced",
        "runtime.admit_accept", "runtime.admit_shed", "runtime.admit_reject",
        "shard.rerouted", "bench.backlog_end_nominal",
        "bench.backlog_end_overload"}) {
    r.metric(name, 0.0, "count");
  }
  for (const char* name :
       {"runtime.cache_hit_ratio", "runtime.admit_pressure_max",
        "shard.jobs_max_over_mean", "bench.shed_ratio",
        "bench.serve_reconcile_ratio"}) {
    r.metric(name, 0.0, "ratio");
  }
  r.metric("io.plan_bytes", 0.0, "bytes");
}

void emit_idle_execution_layers(Report& r) {
  r.metric("march.exec_central_s", 0.0, "s");
  r.metric("march.exec_decentral_s", 0.0, "s");
  for (const char* name : {"march.exec_ticks", "march.exec_pauses",
                           "march.exec_recoveries", "net.rounds",
                           "net.messages_sent", "net.retransmissions"}) {
    r.metric(name, 0.0, "count");
  }
  r.metric("net.delivery_ratio", 0.0, "ratio");
  r.metric("march.exec_connected_ratio", 0.0, "ratio");
}

double span_seconds(const obs::Registry& registry, int depth, const char* name,
                    std::uint64_t* next_seq) {
  double total = 0.0;
  std::uint64_t next = *next_seq;
  for (const obs::SpanRecord& s : registry.span_snapshot()) {
    if (s.seq < *next_seq) continue;
    next = std::max(next, s.seq + 1);
    if (s.depth != depth) continue;
    if (name != nullptr && std::string(s.name) != name) continue;
    total += s.dur_s;
  }
  *next_seq = next;
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

}  // namespace perfbench
