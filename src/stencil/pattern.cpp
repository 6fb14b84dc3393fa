#include "stencil/pattern.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "util/rng.hpp"

namespace smart::stencil {

std::string to_string(Shape shape) {
  switch (shape) {
    case Shape::kStar: return "star";
    case Shape::kBox: return "box";
    case Shape::kCross: return "cross";
    case Shape::kIrregular: return "irr";
  }
  return "?";
}

StencilPattern::StencilPattern(int dims, std::vector<Point> offsets)
    : dims_(dims), order_(0), offsets_(std::move(offsets)) {
  if (dims_ < 2 || dims_ > kMaxDims) {
    throw std::invalid_argument("StencilPattern: dims must be 2 or 3");
  }
  for (const Point& p : offsets_) {
    for (int a = dims_; a < kMaxDims; ++a) {
      if (p[a] != 0) {
        throw std::invalid_argument(
            "StencilPattern: offset uses axis beyond dims");
      }
    }
  }
  offsets_.push_back(Point{});  // ensure the centre is present
  std::sort(offsets_.begin(), offsets_.end());
  offsets_.erase(std::unique(offsets_.begin(), offsets_.end()),
                 offsets_.end());
  for (const Point& p : offsets_) order_ = std::max(order_, p.order());
}

bool StencilPattern::contains(const Point& p) const {
  return std::binary_search(offsets_.begin(), offsets_.end(), p);
}

std::vector<Point> StencilPattern::points_of_order(int n) const {
  std::vector<Point> out;
  for (const Point& p : offsets_) {
    if (p.order() == n) out.push_back(p);
  }
  return out;
}

int StencilPattern::count_of_order(int n) const {
  int count = 0;
  for (const Point& p : offsets_) {
    if (p.order() == n) ++count;
  }
  return count;
}

Shape StencilPattern::classify() const {
  if (order_ == 0) return Shape::kIrregular;  // degenerate: centre only
  bool all_axis = true;
  bool all_diag = true;
  for (const Point& p : offsets_) {
    if (p.is_centre()) continue;
    if (!p.on_axis()) all_axis = false;
    if (!p.on_diagonal(dims_)) all_diag = false;
  }
  // Star: every axis point up to the order along every axis.
  if (all_axis) {
    const int expected = 2 * dims_ * order_ + 1;
    if (size() == expected) return Shape::kStar;
    return Shape::kIrregular;
  }
  // Cross: every full-diagonal point up to the order.
  if (all_diag) {
    const int diag_dirs = dims_ == 2 ? 4 : 8;
    const int expected = diag_dirs * order_ + 1;
    if (size() == expected) return Shape::kCross;
    return Shape::kIrregular;
  }
  // Box: the complete Chebyshev ball of radius `order`.
  long long volume = 1;
  for (int a = 0; a < dims_; ++a) volume *= (2 * order_ + 1);
  if (static_cast<long long>(size()) == volume) return Shape::kBox;
  return Shape::kIrregular;
}

int StencilPattern::planes_along(int axis) const {
  if (axis < 0 || axis >= dims_) {
    throw std::invalid_argument("planes_along: bad axis");
  }
  bool seen[2 * 127 + 1] = {};
  int count = 0;
  for (const Point& p : offsets_) {
    const int idx = p[axis] + 127;
    if (!seen[idx]) {
      seen[idx] = true;
      ++count;
    }
  }
  return count;
}

std::uint64_t StencilPattern::hash() const noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(dims_);
  for (const Point& p : offsets_) {
    std::uint64_t word = 0;
    for (int a = 0; a < kMaxDims; ++a) {
      word = (word << 8) |
             static_cast<std::uint8_t>(p.coords[static_cast<std::size_t>(a)]);
    }
    h = util::hash_combine(h, word);
  }
  return h;
}

std::string StencilPattern::name() const {
  const Shape shape = classify();
  const auto append_int = [](std::string& out, int value) {
    char buf[16];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  };
  // Fits the short-string buffer for every paper-sized stencil.
  std::string out = to_string(shape);
  append_int(out, dims_);
  out += 'd';
  append_int(out, order_);
  out += 'r';
  if (shape == Shape::kIrregular) {
    append_int(out, size());
    out += 'p';
  }
  return out;
}

StencilPattern make_star(int dims, int radius) {
  std::vector<Point> pts;
  for (int a = 0; a < dims; ++a) {
    for (int r = 1; r <= radius; ++r) {
      Point plus;
      Point minus;
      plus.coords[static_cast<std::size_t>(a)] = static_cast<std::int8_t>(r);
      minus.coords[static_cast<std::size_t>(a)] = static_cast<std::int8_t>(-r);
      pts.push_back(plus);
      pts.push_back(minus);
    }
  }
  return StencilPattern(dims, std::move(pts));
}

StencilPattern make_box(int dims, int radius) {
  std::vector<Point> pts;
  const int zlo = dims >= 3 ? -radius : 0;
  const int zhi = dims >= 3 ? radius : 0;
  for (int x = -radius; x <= radius; ++x) {
    for (int y = -radius; y <= radius; ++y) {
      for (int z = zlo; z <= zhi; ++z) {
        pts.push_back(dims == 2 ? Point{x, y} : Point{x, y, z});
      }
    }
  }
  return StencilPattern(dims, std::move(pts));
}

StencilPattern make_cross(int dims, int radius) {
  std::vector<Point> pts;
  const int num_dirs = dims == 2 ? 4 : 8;
  for (int dir = 0; dir < num_dirs; ++dir) {
    const int sx = (dir & 1) != 0 ? 1 : -1;
    const int sy = (dir & 2) != 0 ? 1 : -1;
    const int sz = (dir & 4) != 0 ? 1 : -1;
    for (int r = 1; r <= radius; ++r) {
      pts.push_back(dims == 2 ? Point{sx * r, sy * r}
                              : Point{sx * r, sy * r, sz * r});
    }
  }
  return StencilPattern(dims, std::move(pts));
}

std::vector<StencilPattern> representative_gallery() {
  std::vector<StencilPattern> gallery;
  for (int dims : {2, 3}) {
    for (int radius = 1; radius <= 4; ++radius) {
      gallery.push_back(make_star(dims, radius));
    }
    for (int radius = 1; radius <= 4; ++radius) {
      gallery.push_back(make_box(dims, radius));
    }
    for (int radius = 1; radius <= 4; ++radius) {
      gallery.push_back(make_cross(dims, radius));
    }
  }
  return gallery;
}

}  // namespace smart::stencil
