// Unit + property tests: Polygon operations and half-plane clipping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "coverage/grid_cvt.h"
#include "foi/scenario.h"
#include "geom/polygon.h"
#include "geom/polygon_clip.h"
#include "geom/segment.h"
#include "test_util.h"

namespace anr {
namespace {

TEST(Polygon, SquareBasics) {
  Polygon sq = make_rect({0, 0}, {2, 3});
  EXPECT_DOUBLE_EQ(sq.area(), 6.0);
  EXPECT_GT(sq.signed_area(), 0.0);
  EXPECT_EQ(sq.centroid(), (Vec2{1.0, 1.5}));
  EXPECT_DOUBLE_EQ(sq.perimeter(), 10.0);
  auto bb = sq.bbox();
  EXPECT_EQ(bb.lo, (Vec2{0, 0}));
  EXPECT_EQ(bb.hi, (Vec2{2, 3}));
}

TEST(Polygon, Containment) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  EXPECT_TRUE(sq.contains({5, 5}));
  EXPECT_TRUE(sq.contains({0, 5}));    // boundary
  EXPECT_TRUE(sq.contains({10, 10}));  // corner
  EXPECT_FALSE(sq.contains({11, 5}));
  EXPECT_FALSE(sq.contains({-0.1, 5}));
}

TEST(Polygon, ConcaveContainment) {
  // L-shape: the notch is outside.
  Polygon l({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  EXPECT_TRUE(l.contains({1, 3}));
  EXPECT_TRUE(l.contains({3, 1}));
  EXPECT_FALSE(l.contains({3, 3}));  // notch
  EXPECT_DOUBLE_EQ(l.area(), 12.0);
}

TEST(Polygon, MakeCcw) {
  Polygon cw({{0, 0}, {0, 1}, {1, 1}, {1, 0}});
  EXPECT_LT(cw.signed_area(), 0.0);
  cw.make_ccw();
  EXPECT_GT(cw.signed_area(), 0.0);
}

TEST(Polygon, BoundaryDistanceAndClosestPoint) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  EXPECT_DOUBLE_EQ(sq.boundary_distance({5, 5}), 5.0);
  EXPECT_DOUBLE_EQ(sq.boundary_distance({5, 12}), 2.0);
  EXPECT_EQ(sq.closest_boundary_point({5, 12}), (Vec2{5, 10}));
}

TEST(Polygon, SegmentCrossesBoundary) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  EXPECT_TRUE(sq.segment_crosses_boundary({5, 5}, {15, 5}));
  EXPECT_FALSE(sq.segment_crosses_boundary({2, 2}, {8, 8}));   // inside
  EXPECT_FALSE(sq.segment_crosses_boundary({12, 0}, {12, 10}));  // outside
}

TEST(Polygon, Densified) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  Polygon d = sq.densified(1.0);
  EXPECT_EQ(d.size(), 40u);
  EXPECT_NEAR(d.area(), sq.area(), 1e-9);
  EXPECT_NEAR(d.perimeter(), sq.perimeter(), 1e-9);
}

TEST(Polygon, Transforms) {
  Polygon sq = make_rect({0, 0}, {2, 2});
  Polygon t = sq.translated({5, 7});
  EXPECT_EQ(t.centroid(), (Vec2{6, 8}));
  Polygon s = sq.scaled(3.0, sq.centroid());
  EXPECT_NEAR(s.area(), 36.0, 1e-9);
  EXPECT_EQ(s.centroid(), sq.centroid());
  Polygon r = sq.rotated(M_PI / 2.0, sq.centroid());
  EXPECT_NEAR(r.area(), 4.0, 1e-9);
}

TEST(Polygon, WithArea) {
  Polygon c = make_circle({3, 4}, 10.0);
  Polygon scaled = c.with_area(1234.5);
  EXPECT_NEAR(scaled.area(), 1234.5, 1e-6);
  EXPECT_NEAR(scaled.centroid().x, 3.0, 1e-9);
}

TEST(Polygon, CircleAreaConverges) {
  Polygon c = make_circle({0, 0}, 1.0, 256);
  EXPECT_NEAR(c.area(), M_PI, 1e-3);
  EXPECT_NEAR(c.perimeter(), 2.0 * M_PI, 1e-3);
}

TEST(Polygon, PerimeterParamAndPointAtParam) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  // Vertex 0 is (0,0); walking CCW: (10,0) at s=10, (10,10) at s=20...
  EXPECT_DOUBLE_EQ(sq.perimeter_param({5, 0}), 5.0);
  EXPECT_DOUBLE_EQ(sq.perimeter_param({10, 5}), 15.0);
  Vec2 p = sq.point_at_param(25.0);
  EXPECT_EQ(p, (Vec2{5, 10}));
  // Wraps modulo perimeter, including negatives.
  EXPECT_EQ(sq.point_at_param(45.0), (Vec2{5, 0}));
  EXPECT_EQ(sq.point_at_param(-5.0), (Vec2{0, 5}));
}

TEST(Polygon, ParamRoundTrip) {
  Polygon c = make_circle({3, -2}, 20.0, 48);
  for (double s : {0.0, 13.7, 55.5, 101.2}) {
    Vec2 p = c.point_at_param(s);
    EXPECT_NEAR(c.perimeter_param(p), std::fmod(s, c.perimeter()), 1e-6);
  }
}

TEST(Clip, HalfPlaneSquare) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  // Keep x <= 4.
  HalfPlane hp{{4, 0}, {1, 0}};
  Polygon clipped = clip(sq, hp);
  EXPECT_NEAR(clipped.area(), 40.0, 1e-9);
  for (Vec2 p : clipped.points()) {
    EXPECT_LE(p.x, 4.0 + 1e-9);
  }
}

TEST(Clip, BisectorKeepsCloserSide) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  Vec2 a{2, 5}, b{8, 5};
  Polygon cell = clip(sq, bisector_half_plane(a, b));
  EXPECT_NEAR(cell.area(), 50.0, 1e-9);
  EXPECT_TRUE(cell.contains({1, 5}));
  EXPECT_FALSE(cell.contains({9, 5}));
}

TEST(Clip, EmptyResult) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  HalfPlane hp{{-5, 0}, {1, 0}};  // keep x <= -5: nothing
  EXPECT_LT(clip(sq, hp).size(), 3u);
}

TEST(Clip, MultipleHalfPlanes) {
  Polygon sq = make_rect({0, 0}, {10, 10});
  std::vector<HalfPlane> hps{{{4, 0}, {1, 0}}, {{0, 6}, {0, 1}}};
  Polygon c = clip(sq, hps);
  EXPECT_NEAR(c.area(), 24.0, 1e-9);
}

// Property: clipping a random convex polygon halves along a bisector
// conserves total area across the two sides.
class ClipProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClipProperty, BisectorPartitionsArea) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Polygon c = make_circle({0, 0}, 5.0 + rng.uniform(0.0, 5.0), 48);
  Vec2 a{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
  Vec2 b{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
  if (distance(a, b) < 1e-6) b = a + Vec2{1.0, 0.0};
  Polygon left = clip(c, bisector_half_plane(a, b));
  Polygon right = clip(c, bisector_half_plane(b, a));
  EXPECT_NEAR(left.area() + right.area(), c.area(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClipProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// Containment as it stood before the bounding-box prefilter: the distance
// to every edge, then the crossing number. Polygon::contains must return
// the same boolean for every point.
bool reference_contains(const Polygon& poly, Vec2 p) {
  const std::vector<Vec2>& pts = poly.points();
  if (pts.size() < 3) return false;
  const std::size_t n = pts.size();
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    Vec2 a = pts[j], b = pts[i];
    if (point_segment_distance(p, Segment{a, b}) < 1e-9) return true;
    bool straddles = (b.y > p.y) != (a.y > p.y);
    if (straddles) {
      double x_cross = b.x + (p.y - b.y) * (a.x - b.x) / (a.y - b.y);
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

// Probe points around the edges and vertices (every edge of a small
// polygon, about 16 spread over a large one): offsets from 0 through the
// 1e-9 boundary tolerance and the 1e-6 prefilter margin, along the edge
// normal, along the edge past its endpoints, and diagonally.
std::vector<Vec2> near_boundary_probes(const Polygon& poly) {
  const std::vector<double> deltas = {0.0,   1e-12, 1e-11, 1e-10, 5e-10,
                                      9e-10, 1e-9,  2e-9,  1e-8,  1e-7,
                                      9e-7,  1e-6,  1.000001e-6,    2e-6,
                                      1e-5};
  std::vector<Vec2> out;
  const std::vector<Vec2>& pts = poly.points();
  const std::size_t n = pts.size();
  for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 16)) {
    const Vec2 a = pts[i], b = pts[(i + 1) % n];
    const Vec2 d = b - a;
    const double len = d.norm();
    const Vec2 dir = len > 0.0 ? d / len : Vec2{1.0, 0.0};
    const Vec2 normal{-dir.y, dir.x};
    for (double delta : deltas) {
      for (double sign : {-1.0, 1.0}) {
        const double o = sign * delta;
        for (double t : {0.0, 0.25, 0.5, 1.0}) {
          out.push_back(lerp(a, b, t) + normal * o);
        }
        out.push_back(a - dir * delta + normal * o);
        out.push_back(b + dir * delta + normal * o);
        out.push_back(a + Vec2{o, 0.0});
        out.push_back(a + Vec2{0.0, o});
        out.push_back(a + Vec2{o, o});
        out.push_back(a + Vec2{o, -o});
      }
    }
  }
  return out;
}

int count_mismatches(const Polygon& poly, const std::vector<Vec2>& probes) {
  int bad = 0;
  for (Vec2 p : probes) {
    if (poly.contains(p) != reference_contains(poly, p)) {
      ADD_FAILURE() << "contains(" << p.x << ", " << p.y
                    << ") differs from the unfiltered reference";
      if (++bad >= 5) break;
    }
  }
  return bad;
}

Polygon shifted(const Polygon& poly, Vec2 by) {
  std::vector<Vec2> pts = poly.points();
  for (Vec2& p : pts) p += by;
  return Polygon(std::move(pts));
}

TEST(PointInPolygon, PrefilterMatchesUnfilteredReference) {
  std::vector<Polygon> polys = {
      make_rect({0, 0}, {10, 10}),
      Polygon({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}}),
      make_circle({3.0, -2.0}, 7.5, 48),
      // Zero-length edges: repeated vertices, including the closing edge.
      Polygon({{0, 0}, {5, 0}, {5, 0}, {5, 5}, {2, 7}, {2, 7}, {0, 5}, {0, 0}}),
      // Horizontal and vertical runs plus a sliver spike.
      Polygon({{0, 0}, {6, 0}, {6, 1e-7}, {6.5, 3}, {6, 3}, {0, 3}}),
  };
  for (int id = 1; id <= 6; ++id) {
    const Scenario sc = scenario(id);
    polys.push_back(sc.m1.outer());
    polys.push_back(sc.m2_shape.outer());
    for (const Polygon& h : sc.m2_shape.holes()) polys.push_back(h);
  }
  const std::size_t base = polys.size();
  for (std::size_t k = 0; k < base; ++k) {
    polys.push_back(shifted(polys[k], {1e6, -1e6}));
    polys.push_back(shifted(polys[k], {3e7, 2e8}));
  }

  std::uint64_t seed = 11;
  for (const Polygon& poly : polys) {
    BBox bb = poly.bbox();
    const double pad = 0.1 * std::max(bb.width(), bb.height());
    std::vector<Vec2> probes = near_boundary_probes(poly);
    Rng rng(seed++);
    for (int k = 0; k < 1000; ++k) {
      probes.push_back({rng.uniform(bb.lo.x - pad, bb.hi.x + pad),
                        rng.uniform(bb.lo.y - pad, bb.hi.y + pad)});
    }
    ASSERT_EQ(count_mismatches(poly, probes), 0)
        << "polygon with " << poly.size() << " vertices near (" << bb.lo.x
        << ", " << bb.lo.y << ")";
  }
}

// The CVT sample lattice of every scenario's M2 is a raster of contains()
// verdicts. Pinned as (count, fnv1a64 of the sample bytes) from the
// unfiltered implementation, so any changed verdict on the raster shows.
TEST(PointInPolygon, GridCvtSampleSetsPinned) {
  struct Pin {
    int scenario;
    int target;
    std::size_t count;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {1, 4000, 3989, 0x3c1df00bd69548d4ull},
      {1, 8000, 8001, 0xb6d358caac57ba02ull},
      {2, 4000, 3995, 0x38fec9eadf9b8022ull},
      {2, 8000, 7991, 0x8a2918f62cb6d371ull},
      {3, 4000, 3998, 0x300c180edc97362bull},
      {3, 8000, 7991, 0x774ef8330df1eac9ull},
      {4, 4000, 3996, 0x6ec2a90fff733d39ull},
      {4, 8000, 8001, 0x29cb3d25fee62028ull},
      {5, 4000, 3994, 0xb2ad138f9d9d1643ull},
      {5, 8000, 7988, 0xebcebda7b717609eull},
      {6, 4000, 3997, 0x27f6f78d2accf1c4ull},
      {6, 8000, 7998, 0xcaa65b6a60f6addbull},
  };
  for (const Pin& pin : pins) {
    const GridCvt cvt(scenario(pin.scenario).m2_shape, uniform_density(),
                      pin.target);
    const std::vector<Vec2>& s = cvt.samples();
    EXPECT_EQ(s.size(), pin.count) << "scenario " << pin.scenario;
    EXPECT_EQ(fnv1a64(std::string_view(reinterpret_cast<const char*>(s.data()),
                                       s.size() * sizeof(Vec2))),
              pin.hash)
        << "scenario " << pin.scenario << " at " << pin.target << " samples";
  }
}

}  // namespace
}  // namespace anr
