#include "stencil/pattern.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "stencil/generator.hpp"
#include "util/rng.hpp"

namespace smart::stencil {
namespace {

TEST(StencilPattern, InsertsCentreAndDedups) {
  const StencilPattern p(2, {Point(1, 0), Point(1, 0), Point(-1, 0)});
  EXPECT_EQ(p.size(), 3);
  EXPECT_TRUE(p.contains(Point(0, 0)));
}

TEST(StencilPattern, RejectsBadDims) {
  EXPECT_THROW(StencilPattern(1, {}), std::invalid_argument);
  EXPECT_THROW(StencilPattern(4, {}), std::invalid_argument);
}

TEST(StencilPattern, RejectsOffsetBeyondDims) {
  EXPECT_THROW(StencilPattern(2, {Point(0, 0, 1)}), std::invalid_argument);
}

TEST(StencilPattern, OrderIsMaxChebyshev) {
  const StencilPattern p(2, {Point(3, 0), Point(0, -2)});
  EXPECT_EQ(p.order(), 3);
}

TEST(StencilPattern, CountsPerOrder) {
  const StencilPattern p = make_star(2, 2);
  EXPECT_EQ(p.count_of_order(0), 1);
  EXPECT_EQ(p.count_of_order(1), 4);
  EXPECT_EQ(p.count_of_order(2), 4);
  EXPECT_EQ(p.count_of_order(3), 0);
}

TEST(StencilPattern, PointsOfOrder) {
  const StencilPattern p = make_star(2, 1);
  EXPECT_EQ(p.points_of_order(1).size(), 4u);
  EXPECT_EQ(p.points_of_order(0).size(), 1u);
}

TEST(StencilPattern, StarClassification) {
  for (int dims : {2, 3}) {
    for (int r = 1; r <= 4; ++r) {
      const auto p = make_star(dims, r);
      EXPECT_EQ(p.classify(), Shape::kStar) << dims << "d r" << r;
      EXPECT_EQ(p.size(), 2 * dims * r + 1);
    }
  }
}

TEST(StencilPattern, BoxClassification) {
  for (int dims : {2, 3}) {
    for (int r = 1; r <= 3; ++r) {
      const auto p = make_box(dims, r);
      EXPECT_EQ(p.classify(), Shape::kBox) << dims << "d r" << r;
      int volume = 1;
      for (int a = 0; a < dims; ++a) volume *= 2 * r + 1;
      EXPECT_EQ(p.size(), volume);
    }
  }
}

TEST(StencilPattern, CrossClassification) {
  for (int dims : {2, 3}) {
    for (int r = 1; r <= 4; ++r) {
      const auto p = make_cross(dims, r);
      EXPECT_EQ(p.classify(), Shape::kCross) << dims << "d r" << r;
      EXPECT_EQ(p.size(), (dims == 2 ? 4 : 8) * r + 1);
    }
  }
}

TEST(StencilPattern, IrregularClassification) {
  const StencilPattern p(2, {Point(1, 0), Point(1, 1), Point(2, 1)});
  EXPECT_EQ(p.classify(), Shape::kIrregular);
}

TEST(StencilPattern, CentreOnlyIsIrregular) {
  const StencilPattern p(2, {});
  EXPECT_EQ(p.classify(), Shape::kIrregular);
  EXPECT_EQ(p.order(), 0);
}

TEST(StencilPattern, Name) {
  EXPECT_EQ(make_star(2, 3).name(), "star2d3r");
  EXPECT_EQ(make_box(3, 4).name(), "box3d4r");
  EXPECT_EQ(make_cross(2, 1).name(), "cross2d1r");
}

TEST(StencilPattern, PlanesAlong) {
  const auto star = make_star(2, 2);
  EXPECT_EQ(star.planes_along(0), 5);  // x in {-2,-1,0,1,2}
  EXPECT_EQ(star.planes_along(1), 5);
  const StencilPattern thin(2, {Point(1, 0), Point(2, 0)});
  EXPECT_EQ(thin.planes_along(1), 1);
  EXPECT_EQ(thin.planes_along(0), 3);
  EXPECT_THROW(thin.planes_along(2), std::invalid_argument);
}

TEST(StencilPattern, HashDistinguishes) {
  EXPECT_NE(make_star(2, 2).hash(), make_star(2, 3).hash());
  EXPECT_NE(make_star(2, 2).hash(), make_box(2, 2).hash());
  EXPECT_EQ(make_star(3, 2).hash(), make_star(3, 2).hash());
}

TEST(StencilPattern, EqualityIsCanonical) {
  const StencilPattern a(2, {Point(1, 0), Point(-1, 0)});
  const StencilPattern b(2, {Point(-1, 0), Point(1, 0), Point(0, 0)});
  EXPECT_EQ(a, b);
}

TEST(Gallery, CoversShapesOrdersDims) {
  const auto gallery = representative_gallery();
  EXPECT_EQ(gallery.size(), 24u);  // {star,box,cross} x orders 1-4 x {2D,3D}
  int stars = 0;
  int boxes = 0;
  int crosses = 0;
  for (const auto& p : gallery) {
    switch (p.classify()) {
      case Shape::kStar: ++stars; break;
      case Shape::kBox: ++boxes; break;
      case Shape::kCross: ++crosses; break;
      case Shape::kIrregular: ADD_FAILURE() << p.name(); break;
    }
  }
  EXPECT_EQ(stars, 8);
  EXPECT_EQ(boxes, 8);
  EXPECT_EQ(crosses, 8);
}

/// The iostream spelling StencilPattern::name reproduces.
std::string ostream_name(const StencilPattern& p) {
  const Shape shape = p.classify();
  std::ostringstream os;
  os << to_string(shape) << p.dims() << 'd' << p.order() << 'r';
  if (shape == Shape::kIrregular) os << p.size() << 'p';
  return os.str();
}

TEST(StencilPattern, NameMatchesOstream) {
  std::vector<StencilPattern> patterns = representative_gallery();
  patterns.push_back(StencilPattern(2, {}));
  patterns.push_back(StencilPattern(3, {Point{4, -4, 4}}));
  for (int dims = 2; dims <= 3; ++dims) {
    GeneratorConfig config;
    config.dims = dims;
    const RandomStencilGenerator generator(config);
    util::Rng rng(static_cast<std::uint64_t>(dims) * 977);
    for (auto& p : generator.generate_batch(rng, 200)) {
      patterns.push_back(std::move(p));
    }
  }
  for (const auto& p : patterns) EXPECT_EQ(p.name(), ostream_name(p));
}

}  // namespace
}  // namespace smart::stencil
