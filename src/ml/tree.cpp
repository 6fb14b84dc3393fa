#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "util/serialize_io.hpp"

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
};

}  // namespace

struct RegressionTree::Workspace {
  /// Gradient, hessian and row count of one (feature, bin) cell.
  struct HistBin {
    double g = 0.0;
    double h = 0.0;
    int count = 0;
  };

  const Matrix& x;
  std::span<const std::uint8_t> binned;
  const FeatureBinner& binner;
  std::span<const double> g;
  std::span<const double> h;
  const TreeParams& params;
  std::vector<std::size_t> rows;         // a node owns a [begin, end) range
  std::vector<std::size_t> spill;        // right rows during a partition
  std::vector<std::size_t> hist_offset;  // feature f's first bin in hist
  std::vector<HistBin> hist;             // all features' bins, back to back
};

void RegressionTree::fit(const Matrix& x, std::span<const std::uint8_t> binned,
                         const FeatureBinner& binner,
                         std::span<const double> gradients,
                         std::span<const double> hessians,
                         std::span<const std::size_t> rows,
                         const TreeParams& params) {
  nodes_.clear();
  split_gains_.clear();
  depth_ = 0;
  Workspace ws{x,
               binned,
               binner,
               gradients,
               hessians,
               params,
               std::vector<std::size_t>(rows.begin(), rows.end()),
               std::vector<std::size_t>(rows.size()),
               std::vector<std::size_t>(x.cols()),
               {}};
  std::size_t total_bins = 0;
  for (std::size_t f = 0; f < x.cols(); ++f) {
    ws.hist_offset[f] = total_bins;
    total_bins += static_cast<std::size_t>(binner.bins(f));
  }
  ws.hist.resize(total_bins);
  build(ws, 0, rows.size(), 0);
}

int RegressionTree::build(Workspace& ws, std::size_t begin, std::size_t end,
                          int depth) {
  const TreeParams& params = ws.params;
  const std::span<const double> g = ws.g;
  const std::span<const double> h = ws.h;
  std::size_t* const rows = ws.rows.data();
  depth_ = std::max(depth_, depth);
  double g_total = 0.0;
  double h_total = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    g_total += g[rows[i]];
    h_total += h[rows[i]];
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_index)].weight =
      -g_total / (h_total + params.lambda);

  const std::size_t n = end - begin;
  if (depth >= params.max_depth ||
      static_cast<int>(n) < 2 * params.min_samples_leaf) {
    return node_index;
  }

  // Every feature's histogram in one row-major pass: each row reads its
  // `width` bins from one contiguous stretch of `binned`. Each bin adds its
  // rows in range order; the fitted bits depend on that order.
  const std::size_t width = ws.x.cols();
  const std::size_t* const offset = ws.hist_offset.data();
  Workspace::HistBin* const hist = ws.hist.data();
  std::fill(ws.hist.begin(), ws.hist.end(), Workspace::HistBin{});
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = rows[i];
    const std::uint8_t* const brow = ws.binned.data() + r * width;
    const double gr = g[r];
    const double hr = h[r];
    for (std::size_t f = 0; f < width; ++f) {
      Workspace::HistBin& bin = hist[offset[f] + brow[f]];
      bin.g += gr;
      bin.h += hr;
      ++bin.count;
    }
  }

  // Best split: scan each feature's bins left to right. The strict >
  // keeps the first (feature, bin) that reaches the best gain.
  const double parent_score = g_total * g_total / (h_total + params.lambda);
  SplitChoice best;
  for (std::size_t f = 0; f < width; ++f) {
    const int nbins = ws.binner.bins(f);
    const Workspace::HistBin* const fhist = hist + offset[f];
    double gl = 0.0;
    double hl = 0.0;
    int left_count = 0;
    for (int b = 0; b + 1 < nbins; ++b) {
      gl += fhist[b].g;
      hl += fhist[b].h;
      left_count += fhist[b].count;
      const int right_count = static_cast<int>(n) - left_count;
      if (left_count < params.min_samples_leaf ||
          right_count < params.min_samples_leaf) {
        continue;
      }
      const double gr = g_total - gl;
      const double hr = h_total - hl;
      const double gain = gl * gl / (hl + params.lambda) +
                          gr * gr / (hr + params.lambda) - parent_score;
      if (gain > best.gain) {
        best.feature = static_cast<int>(f);
        best.bin = b;
        best.gain = gain;
      }
    }
  }
  if (best.feature < 0 || best.gain < params.min_gain) return node_index;
  split_gains_.emplace_back(best.feature, best.gain);

  // Stable in-place partition by the chosen bin boundary: left rows move
  // forward in order, right rows wait in the spill buffer and follow them.
  // Record a real-valued threshold on the way so prediction needs no
  // binner: the max left-side feature value (bin b spans
  // (edge[b-1], edge[b]], so every right value is above it).
  const auto feature = static_cast<std::size_t>(best.feature);
  float threshold = -std::numeric_limits<float>::infinity();
  std::size_t mid = begin;
  std::size_t spilled = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = rows[i];
    if (ws.binned[r * width + feature] <= best.bin) {
      threshold = std::max(threshold, ws.x.at(r, feature));
      rows[mid++] = r;
    } else {
      ws.spill[spilled++] = r;
    }
  }
  std::copy_n(ws.spill.data(), spilled, rows + mid);

  const int left = build(ws, begin, mid, depth + 1);
  const int right = build(ws, mid, end, depth + 1);
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
