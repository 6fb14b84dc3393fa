// Batched-inference speedup bench: times the GPU advisor's prediction sweep
// through the batched predict_table path against an equivalent per-variant
// prediction loop (one model invocation per (triple, GPU), re-encoding the
// stencil each call — the cost profile of the pre-batching implementation).
// The baseline is pinned to the legacy scalar dense kernels (SMART_SIMD
// off, strict precision; GBR has one forest walk, which reads neither
// knob); the batched path is timed twice, once in the default strict/f64
// mode (checked BITWISE identical to the baseline) and once in relaxed/f32
// mode (checked against a relative-error gate; bitwise for GBR, whose
// forest walk is exact). All runs are single-threaded
// (util::SerialSection), so the speedups measure encoding caching +
// vectorized kernels, not thread fan-out. Every timing is the min over
// SMART_BENCH_REPEATS runs (default 3) — the least-interference estimate.
//
// Appends one trajectory point per regressor kind to BENCH_advisor.json
// (override the path with SMART_BENCH_JSON; scripts/check.sh runs this as
// its bench-smoke step).
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>

#include "common.hpp"
#include "ml/simd.hpp"

namespace {

using Clock = std::chrono::steady_clock;

template <typename F>
double wall_ms(F&& f) {
  const auto start = Clock::now();
  f();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string timestamp_utc() {
  const std::time_t now = std::time(nullptr);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  return buf;
}

struct BenchPoint {
  std::string kind;
  std::size_t pairs = 0;
  double per_call_ms = 0.0;    // scalar strict baseline (SMART_SIMD off)
  double batched_ms = 0.0;     // batched, strict/f64 (bitwise contract)
  double batched_f32_ms = 0.0; // batched, relaxed/f32 (tolerance contract)
  double speedup = 0.0;        // per_call / batched_f32 (the headline)
  double speedup_f64 = 0.0;    // per_call / batched (bit-identical path)
};

/// Appends the points to a JSON array file (created if missing). The file
/// is a flat array of objects so successive runs build a perf trajectory.
void append_json(const std::string& path, const std::vector<BenchPoint>& points,
                 double scale) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  // Drop everything after the final ']' and the ']' itself; start a fresh
  // array when the file is empty or not an array.
  std::string body;
  const auto open = existing.find('[');
  const auto close = existing.rfind(']');
  if (open != std::string::npos && close != std::string::npos && close > open) {
    body = existing.substr(0, close);
    // Trim trailing whitespace so the separator lands cleanly.
    while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
      body.pop_back();
    }
  } else {
    body = "[";
  }
  std::ostringstream out;
  out << body;
  const std::string stamp = timestamp_utc();
  for (const BenchPoint& p : points) {
    out << (body.size() > 1 ? ",\n" : "\n");
    out << "  {\"bench\": \"advisor_batch\", \"date\": \"" << stamp
        << "\", \"scale\": " << scale << ", \"kind\": \"" << p.kind
        << "\", \"pairs\": " << p.pairs << ", \"per_call_ms\": "
        << smart::util::format_double(p.per_call_ms, 2)
        << ", \"batched_ms\": " << smart::util::format_double(p.batched_ms, 2)
        << ", \"batched_f32_ms\": "
        << smart::util::format_double(p.batched_f32_ms, 2)
        << ", \"speedup\": " << smart::util::format_double(p.speedup, 2)
        << ", \"speedup_f64\": "
        << smart::util::format_double(p.speedup_f64, 2) << ", \"isa\": \""
        << smart::ml::dispatch_isa() << "\"}";
    body += "x";  // any non-"[" content switches to the comma separator
  }
  out << "\n]\n";
  std::ofstream f(path, std::ios::trunc);
  f << out.str();
}

}  // namespace

int main() {
  using namespace smart;
  bench::print_banner(
      "advisor batch inference speedup",
      "batched predict_table vs per-variant prediction calls (PR 2)");

  const auto cfg = bench::scaled_profile_config(2);
  const auto ds = core::build_profile_dataset(cfg);
  core::RegressionConfig rc;
  rc.instance_cap = static_cast<std::size_t>(util::scaled(80000, 1500));

  util::Table table({"regressor", "pairs", "per-call(ms)", "f64(ms)",
                     "f32(ms)", "f64(x)", "f32(x)", "identical", "f32-ok"});
  std::vector<BenchPoint> points;
  bool all_identical = true;
  bool all_f32_ok = true;

  // Min over repeats: inference is deterministic per mode, so the fastest
  // run is the least-interference estimate (bench_profile's convention).
  const int repeats = [] {
    const char* env = std::getenv("SMART_BENCH_REPEATS");
    const int r = env ? std::atoi(env) : 3;
    return r > 0 ? r : 1;
  }();

  for (const auto kind :
       {core::RegressorKind::kGbr, core::RegressorKind::kMlp,
        core::RegressorKind::kConvMlp}) {
    core::RegressionConfig kind_rc = rc;
    if (kind == core::RegressorKind::kConvMlp) {
      // Inference timing is independent of fit quality; trim the epochs so
      // the (expensive) ConvMLP training doesn't dominate the bench.
      kind_rc.epochs = 4;
    }
    core::RegressionTask task(ds, kind_rc);
    task.fit_full(kind);

    // The advisor's sweep: every (stencil, OC, setting) triple crossed with
    // every GPU, capped like the Fig. 14/15 budget.
    const auto starts = task.triple_starts();
    const std::size_t budget =
        std::min(starts.size(),
                 static_cast<std::size_t>(util::scaled(8000, 300)));
    const std::vector<std::size_t> idxs(starts.begin(),
                                        starts.begin() +
                                            static_cast<std::ptrdiff_t>(budget));
    std::vector<std::size_t> gpus(ds.num_gpus());
    for (std::size_t g = 0; g < gpus.size(); ++g) gpus[g] = g;

    // Force one thread: the speedups below must come from the encoding
    // cache and the vectorized kernels alone.
    const util::SerialSection serial;

    // Baseline: the legacy scalar path — per-variant calls with the fused
    // dense kernels off and strict precision, i.e. the pre-SIMD cost
    // profile of the NN kinds.
    std::vector<double> per_call(idxs.size() * gpus.size());
    double t_base = std::numeric_limits<double>::infinity();
    {
      const ml::SimdSection simd_off(false);
      const ml::PrecisionSection strict(ml::Precision::kStrict);
      for (int rep = 0; rep < repeats; ++rep) {
        t_base = std::min(t_base, wall_ms([&] {
          std::size_t i = 0;
          for (const std::size_t idx : idxs) {
            const auto& ins = task.instances()[idx];
            for (const std::size_t g : gpus) {
              per_call[i++] = task.predict_variant(
                  ds.stencils[ins.stencil], ds.problems[ins.stencil], ins.oc,
                  ds.settings[ins.stencil][ins.oc][ins.setting], g);
            }
          }
        }));
      }
    }

    // Batched, strict/f64: must be BITWISE identical to the baseline.
    core::PredictionTable pred_table;
    double t_batch = std::numeric_limits<double>::infinity();
    {
      const ml::SimdSection simd_on(true);
      const ml::PrecisionSection strict(ml::Precision::kStrict);
      for (int rep = 0; rep < repeats; ++rep) {
        t_batch = std::min(
            t_batch, wall_ms([&] { pred_table = task.predict_table(idxs, gpus); }));
      }
    }

    bool identical = pred_table.time_ms.size() == per_call.size();
    for (std::size_t i = 0; identical && i < per_call.size(); ++i) {
      identical = std::bit_cast<std::uint64_t>(per_call[i]) ==
                  std::bit_cast<std::uint64_t>(pred_table.time_ms[i]);
    }
    all_identical = all_identical && identical;

    // Batched, relaxed/f32: tolerance-gated (bitwise for GBR — the forest
    // traversal is exact in every precision mode).
    core::PredictionTable f32_table;
    double t_f32 = std::numeric_limits<double>::infinity();
    {
      const ml::SimdSection simd_on(true);
      const ml::PrecisionSection relaxed(ml::Precision::kRelaxed);
      for (int rep = 0; rep < repeats; ++rep) {
        t_f32 = std::min(
            t_f32, wall_ms([&] { f32_table = task.predict_table(idxs, gpus); }));
      }
    }

    bool f32_ok = f32_table.time_ms.size() == per_call.size();
    for (std::size_t i = 0; f32_ok && i < per_call.size(); ++i) {
      if (kind == core::RegressorKind::kGbr) {
        f32_ok = std::bit_cast<std::uint64_t>(per_call[i]) ==
                 std::bit_cast<std::uint64_t>(f32_table.time_ms[i]);
      } else {
        f32_ok = std::fabs(f32_table.time_ms[i] - per_call[i]) <=
                 1e-3 * std::fabs(per_call[i]);
      }
    }
    all_f32_ok = all_f32_ok && f32_ok;

    BenchPoint p;
    p.kind = core::to_string(kind);
    p.pairs = per_call.size();
    p.per_call_ms = t_base;
    p.batched_ms = t_batch;
    p.batched_f32_ms = t_f32;
    p.speedup = t_f32 > 0.0 ? t_base / t_f32 : 0.0;
    p.speedup_f64 = t_batch > 0.0 ? t_base / t_batch : 0.0;
    points.push_back(p);

    table.row()
        .add(p.kind)
        .add(static_cast<long long>(p.pairs))
        .add(p.per_call_ms, 1)
        .add(p.batched_ms, 1)
        .add(p.batched_f32_ms, 1)
        .add(p.speedup_f64, 2)
        .add(p.speedup, 2)
        .add(identical ? "yes" : "NO")
        .add(f32_ok ? "yes" : "NO");
  }

  bench::emit(table, "advisor_batch");

  double log_sum = 0.0;
  for (const BenchPoint& p : points) log_sum += std::log(p.speedup);
  std::cout << "   geomean f32 speedup: "
            << util::format_double(
                   std::exp(log_sum / static_cast<double>(points.size())), 2)
            << "x across " << points.size() << " regressor kinds ("
            << ml::dispatch_isa() << " kernel, min of " << repeats
            << " repeats)\n";

  if (!all_identical) {
    std::cout << "FAIL: f64 batched predictions diverge from per-variant "
                 "calls\n";
    return 1;
  }
  if (!all_f32_ok) {
    std::cout << "FAIL: f32 batched predictions outside the tolerance gate\n";
    return 1;
  }

  const char* env_path = std::getenv("SMART_BENCH_JSON");
  const std::string json_path = env_path ? env_path : "BENCH_advisor.json";
  append_json(json_path, points, util::experiment_scale());
  std::cout << "   [json] " << json_path << "\n";
  return 0;
}
