#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/serialize_io.hpp"
#include "util/task_pool.hpp"

namespace smart::ml {

void FeatureBinner::fit(const Matrix& x, int max_bins) {
  if (max_bins < 2 || max_bins > kMaxBins) {
    throw std::invalid_argument("FeatureBinner: max_bins out of range");
  }
  edges_.assign(x.cols(), {});
  std::vector<float> column(x.rows());
  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      column[r] = x.at(r, f);
      // Reject NaN at training time: it breaks nth_element's ordering
      // below, and quarantined rows (the NaN-times convention) must never
      // reach a fit. Prediction-time NaN is defined instead: it routes
      // right at every split (see RegressionTree::predict_row).
      if (std::isnan(column[r])) {
        throw std::invalid_argument(
            "FeatureBinner::fit: NaN feature value (train on finite rows)");
      }
    }
    // Only max_bins-1 quantile ranks are needed, not a total order: select
    // each rank with nth_element over the remaining suffix (the ranks are
    // ascending, so after partitioning at `done` every later rank lives in
    // (done, end)). Yields the same edge values as a full sort at O(n)
    // per column instead of O(n log n).
    auto& edges = edges_[f];
    std::size_t done = column.size();  // sentinel: nothing partitioned yet
    for (int b = 1; b < max_bins; ++b) {
      const std::size_t idx =
          std::min(x.rows() - 1, b * x.rows() / static_cast<std::size_t>(max_bins));
      if (done == column.size()) {
        std::nth_element(column.begin(),
                         column.begin() + static_cast<std::ptrdiff_t>(idx),
                         column.end());
        done = idx;
      } else if (idx > done) {
        std::nth_element(column.begin() + static_cast<std::ptrdiff_t>(done) + 1,
                         column.begin() + static_cast<std::ptrdiff_t>(idx),
                         column.end());
        done = idx;
      }
      const float edge = column[idx];
      if (edges.empty() || edge > edges.back()) edges.push_back(edge);
    }
  }
}

int FeatureBinner::bin_of(std::size_t f, float v) const {
  const auto& edges = edges_[f];
  return static_cast<int>(
      std::upper_bound(edges.begin(), edges.end(), v) - edges.begin());
}

std::vector<std::uint8_t> FeatureBinner::bin_matrix(const Matrix& x) const {
  if (x.cols() != edges_.size()) {
    throw std::invalid_argument("FeatureBinner::bin_matrix: width mismatch");
  }
  std::vector<std::uint8_t> out(x.rows() * x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      out[r * x.cols() + f] = static_cast<std::uint8_t>(bin_of(f, x.at(r, f)));
    }
  }
  return out;
}

namespace {

struct SplitChoice {
  int feature = -1;
  int bin = -1;          // go left if bin(value) <= bin
  double gain = 0.0;
  float threshold = 0.0;
};

}  // namespace

void RegressionTree::fit(const Matrix& x, std::span<const std::uint8_t> binned,
                         const FeatureBinner& binner,
                         std::span<const double> gradients,
                         std::span<const double> hessians,
                         std::span<const std::size_t> rows,
                         const TreeParams& params) {
  nodes_.clear();
  split_gains_.clear();
  depth_ = 0;
  std::vector<std::size_t> mutable_rows(rows.begin(), rows.end());
  build(x, binned, binner, gradients, hessians, mutable_rows, params, 0);
}

int RegressionTree::build(const Matrix& x, std::span<const std::uint8_t> binned,
                          const FeatureBinner& binner,
                          std::span<const double> g, std::span<const double> h,
                          std::vector<std::size_t>& rows,
                          const TreeParams& params, int depth) {
  depth_ = std::max(depth_, depth);
  double g_total = 0.0;
  double h_total = 0.0;
  for (std::size_t r : rows) {
    g_total += g[r];
    h_total += h[r];
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_index)].weight =
      -g_total / (h_total + params.lambda);

  if (depth >= params.max_depth ||
      static_cast<int>(rows.size()) < 2 * params.min_samples_leaf) {
    return node_index;
  }

  // Best split: one histogram pass per feature. Features are independent,
  // so big nodes fan the search over the task pool; folding the per-feature
  // candidates in feature order with a strict > comparison picks exactly
  // the split the serial scan picks (ties keep the lowest feature index).
  const double parent_score = g_total * g_total / (h_total + params.lambda);
  const std::size_t width = x.cols();
  const auto best_for_feature = [&](std::size_t f, std::vector<double>& gh,
                                    std::vector<int>& counts) {
    SplitChoice choice;
    const int nbins = binner.bins(f);
    if (nbins < 2) return choice;
    std::fill(gh.begin(), gh.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t r : rows) {
      const int b = binned[r * width + f];
      gh[static_cast<std::size_t>(b) * 2] += g[r];
      gh[static_cast<std::size_t>(b) * 2 + 1] += h[r];
      ++counts[b];
    }
    double gl = 0.0;
    double hl = 0.0;
    int left_count = 0;
    for (int b = 0; b + 1 < nbins; ++b) {
      gl += gh[static_cast<std::size_t>(b) * 2];
      hl += gh[static_cast<std::size_t>(b) * 2 + 1];
      left_count += counts[b];
      const int right_count = static_cast<int>(rows.size()) - left_count;
      if (left_count < params.min_samples_leaf ||
          right_count < params.min_samples_leaf) {
        continue;
      }
      const double gr = g_total - gl;
      const double hr = h_total - hl;
      const double gain = gl * gl / (hl + params.lambda) +
                          gr * gr / (hr + params.lambda) - parent_score;
      if (gain > choice.gain) {
        choice.feature = static_cast<int>(f);
        choice.bin = b;
        choice.gain = gain;
      }
    }
    return choice;
  };
  const auto pick = [](SplitChoice a, SplitChoice b) {
    return b.gain > a.gain ? b : a;
  };
  SplitChoice best;
  if (rows.size() >= 2048 && width > 1) {
    best = util::parallel_reduce(
        width, SplitChoice{},
        [&](std::size_t f) {
          std::vector<double> gh(static_cast<std::size_t>(kMaxBins) * 2);
          std::vector<int> counts(kMaxBins);
          return best_for_feature(f, gh, counts);
        },
        pick);
  } else {
    std::vector<double> gh(static_cast<std::size_t>(kMaxBins) * 2);
    std::vector<int> counts(kMaxBins);
    for (std::size_t f = 0; f < width; ++f) {
      best = pick(best, best_for_feature(f, gh, counts));
    }
  }
  if (best.feature < 0 || best.gain < params.min_gain) return node_index;
  split_gains_.emplace_back(best.feature, best.gain);

  // Partition rows by the chosen bin boundary.
  std::vector<std::size_t> left_rows;
  std::vector<std::size_t> right_rows;
  for (std::size_t r : rows) {
    const int b = binned[r * width + static_cast<std::size_t>(best.feature)];
    (b <= best.bin ? left_rows : right_rows).push_back(r);
  }
  rows.clear();
  rows.shrink_to_fit();

  // Record a real-valued threshold so prediction needs no binner: the
  // midpoint is the bin's upper edge.
  // upper_bound semantics: bin b spans (edge[b-1], edge[b]].
  // Reconstruct the edge via a probe value search is overkill; store the
  // max left-side feature value instead.
  float threshold = -std::numeric_limits<float>::infinity();
  for (std::size_t r : left_rows) {
    threshold = std::max(threshold, x.at(r, static_cast<std::size_t>(best.feature)));
  }

  const int left = build(x, binned, binner, g, h, left_rows, params, depth + 1);
  const int right = build(x, binned, binner, g, h, right_rows, params, depth + 1);
  Node& node = nodes_[static_cast<std::size_t>(node_index)];
  node.feature = best.feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

void RegressionTree::save(std::ostream& out) const {
  out << "tree " << nodes_.size() << ' ' << depth_ << ' '
      << split_gains_.size() << '\n';
  for (const Node& n : nodes_) {
    out << n.feature << ' ';
    util::write_f64(out, static_cast<double>(n.threshold));
    out << ' ' << n.left << ' ' << n.right << ' ';
    util::write_f64(out, n.weight);
    out << '\n';
  }
  for (const auto& [feature, gain] : split_gains_) {
    out << feature << ' ';
    util::write_f64(out, gain);
    out << '\n';
  }
}

RegressionTree RegressionTree::load(std::istream& in) {
  util::expect_word(in, "tree", "RegressionTree::load");
  const std::size_t num_nodes = util::read_size(in, "tree node count");
  const int depth = util::read_int(in, "tree depth");
  const std::size_t num_gains = util::read_size(in, "tree gain count");
  RegressionTree tree;
  tree.depth_ = depth;
  tree.nodes_.resize(num_nodes);
  const long long n = static_cast<long long>(num_nodes);
  for (Node& node : tree.nodes_) {
    node.feature = util::read_int(in, "tree node feature");
    node.threshold =
        static_cast<float>(util::read_f64(in, "tree node threshold", false));
    node.left = util::read_int(in, "tree node left");
    node.right = util::read_int(in, "tree node right");
    node.weight = util::read_f64(in, "tree node weight");
    if (node.feature >= 0 &&
        (node.left < 0 || node.left >= n || node.right < 0 || node.right >= n)) {
      throw std::runtime_error("RegressionTree::load: dangling child link");
    }
  }
  tree.split_gains_.resize(num_gains);
  for (auto& [feature, gain] : tree.split_gains_) {
    feature = util::read_int(in, "tree gain feature");
    gain = util::read_f64(in, "tree gain value");
  }
  return tree;
}

double RegressionTree::predict_row(std::span<const float> features) const {
  if (nodes_.empty()) return 0.0;
  int idx = 0;
  while (nodes_[static_cast<std::size_t>(idx)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    // `<=` is false for NaN, so a NaN feature routes right at every split
    // (the explicit contract shared with FlatForest's forest walk).
    idx = features[static_cast<std::size_t>(n.feature)] <= n.threshold
              ? n.left
              : n.right;
  }
  return nodes_[static_cast<std::size_t>(idx)].weight;
}

}  // namespace smart::ml
