#include "fault/fault_model.h"

#include <algorithm>
#include <cmath>

namespace anr::fault {

namespace {

bool window_active(const FaultEvent& e, double t) {
  if (e.kind == FaultKind::kCrash) return t >= e.t_start;
  return t >= e.t_start && t < e.t_end();
}

// splitmix64: the standard 64-bit finalizer-style mixer. Good avalanche,
// stateless — exactly what a (seed, robot, tick) -> noise hash needs.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform double in (0, 1] from a hash (never 0 so log() is safe).
double unit_open(std::uint64_t h) {
  return (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
}

}  // namespace

FaultModel::FaultModel(FaultSchedule schedule, std::uint64_t noise_seed)
    : schedule_(std::move(schedule)), noise_seed_(noise_seed) {
  schedule_.normalize();
}

RobotFaultState FaultModel::robot_state(int robot, double t) const {
  RobotFaultState s;
  for (const FaultEvent& e : schedule_.events) {
    if (e.robot != robot) continue;
    switch (e.kind) {
      case FaultKind::kCrash:
        if (t >= e.t_start && (!s.crashed || e.t_start < s.crash_time)) {
          s.crashed = true;
          s.crash_time = e.t_start;
        }
        break;
      case FaultKind::kStuck:
        if (window_active(e, t)) s.stuck = true;
        break;
      case FaultKind::kSlowdown:
        if (window_active(e, t)) {
          s.speed_factor = std::min(s.speed_factor, e.severity);
        }
        break;
      case FaultKind::kPositionNoise:
        if (window_active(e, t)) {
          s.noise_sigma = std::max(s.noise_sigma, e.severity);
        }
        break;
      default:
        break;
    }
  }
  return s;
}

double FaultModel::range_factor(double t) const {
  double f = 1.0;
  for (const FaultEvent& e : schedule_.events) {
    if (e.kind == FaultKind::kRangeDegradation && window_active(e, t)) {
      f = std::min(f, e.severity);
    }
  }
  return f;
}

bool FaultModel::link_dropped(int a, int b, double t) const {
  for (const FaultEvent& e : schedule_.events) {
    if (e.kind != FaultKind::kLinkDropout || !window_active(e, t)) continue;
    if ((e.link_a == a && e.link_b == b) || (e.link_a == b && e.link_b == a)) {
      return true;
    }
  }
  return false;
}

std::vector<std::pair<int, int>> FaultModel::dropped_links(double t) const {
  std::vector<std::pair<int, int>> out;
  dropped_links_into(t, out);
  return out;
}

void FaultModel::dropped_links_into(
    double t, std::vector<std::pair<int, int>>& out) const {
  out.clear();
  for (const FaultEvent& e : schedule_.events) {
    if (e.kind == FaultKind::kLinkDropout && window_active(e, t)) {
      out.emplace_back(std::min(e.link_a, e.link_b),
                       std::max(e.link_a, e.link_b));
    }
  }
}

std::vector<const FaultEvent*> FaultModel::activated(double t_prev,
                                                     double t) const {
  std::vector<const FaultEvent*> out;
  activated_into(t_prev, t, out);
  return out;
}

void FaultModel::activated_into(double t_prev, double t,
                                std::vector<const FaultEvent*>& out) const {
  out.clear();
  for (const FaultEvent& e : schedule_.events) {
    if (e.t_start > t_prev && e.t_start <= t) out.push_back(&e);
  }
}

std::vector<const FaultEvent*> FaultModel::cleared(double t_prev,
                                                   double t) const {
  std::vector<const FaultEvent*> out;
  cleared_into(t_prev, t, out);
  return out;
}

void FaultModel::cleared_into(double t_prev, double t,
                              std::vector<const FaultEvent*>& out) const {
  out.clear();
  for (const FaultEvent& e : schedule_.events) {
    if (e.kind == FaultKind::kCrash) continue;
    double end = e.t_end();
    if (end > t_prev && end <= t) out.push_back(&e);
  }
}

Vec2 FaultModel::noise_offset(int robot, std::int64_t tick,
                              double sigma) const {
  if (sigma <= 0.0) return {};
  std::uint64_t base =
      mix64(noise_seed_ ^ mix64(static_cast<std::uint64_t>(robot) ^
                                (static_cast<std::uint64_t>(tick) << 20)));
  double u1 = unit_open(base);
  double u2 = unit_open(mix64(base));
  // Box–Muller: two independent N(0, sigma) axes from two uniforms.
  double r = sigma * std::sqrt(-2.0 * std::log(u1));
  double phi = 2.0 * 3.14159265358979323846 * u2;
  return {r * std::cos(phi), r * std::sin(phi)};
}

}  // namespace anr::fault
