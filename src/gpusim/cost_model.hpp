// Analytic GPU kernel cost model for stencil variants.
//
// This is the substitute for the paper's physical GPUs + CUDA kernels (see
// DESIGN.md "Substitutions"). Given a stencil pattern, a problem size, an
// optimization combination, a parameter setting, and a GPU spec, it
// estimates the execution time of one stencil sweep as
//
//     T = overlap(T_mem, T_compute) + T_sync + T_launch
//
// where
//  * T_mem models DRAM traffic (cold reads + cache-limited neighbour
//    redundancy + tile halos + spills) over occupancy-dependent sustained
//    bandwidth with a latency-bound floor,
//  * T_compute models FLOPs plus per-point instruction overhead over the
//    sustained FP64 rate, scaled by SM utilization,
//  * T_sync models the per-plane block barrier of streaming kernels (hidden
//    partially by prefetching),
//  * register and shared-memory pressure feed an occupancy model, and
//    exceeding hard limits makes the variant *crash* (paper Sec. III-A
//    observes such crashes, e.g. TB without ST on 3-D order-4 stencils).
//
// The model is deterministic; measurement noise is added by the Simulator.
#pragma once

#include <string_view>

#include "gpusim/gpu_spec.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/opt.hpp"
#include "gpusim/params.hpp"
#include "gpusim/problem.hpp"
#include "stencil/pattern.hpp"

namespace smart::gpusim {

struct KernelProfile {
  bool ok = false;
  // One fixed literal per crash kind, non-empty iff !ok; the numbers behind
  // it are in regs_per_thread / smem_per_block_bytes.
  std::string_view crash_reason;

  double time_ms = 0.0;      // modelled execution time of one sweep

  // Diagnostics (also useful for tests and the examples' explain output).
  double regs_per_thread = 0.0;
  double smem_per_block_bytes = 0.0;
  double occupancy = 0.0;
  long long total_blocks = 0;
  double dram_traffic_bytes = 0.0;
  double flops = 0.0;
  double t_mem_ms = 0.0;
  double t_comp_ms = 0.0;
  double t_sync_ms = 0.0;
};

/// Setting-independent analysis of one (pattern, problem, OC, GPU) tuple:
/// everything KernelCostModel::evaluate needs that does not depend on the
/// parameter setting, computed once by analyze() and reused across the
/// whole per-setting sweep. This is the profiling hot-path contract: the
/// pattern walks (planes_along, hash) and the OC/GPU-derived coefficients
/// are paid once per (pattern, OC, GPU), never per sample.
///
/// An analysis borrows the GpuSpec it was built from (`gpu` pointer) and is
/// bound to the constants of the model that produced it; keep the spec
/// alive and evaluate through the same model.
struct KernelAnalysis {
  bool ok = false;            // false => every evaluate() reports the crash
  std::string_view crash_reason;  // set when !ok (invalid OC / dims mismatch)
  OptCombination oc;
  const GpuSpec* gpu = nullptr;

  // --- pattern/problem-derived ---------------------------------------
  int d = 0;
  double r = 0.0;             // stencil order
  double nnz = 0.0;           // accessed points
  double volume = 0.0;        // problem points
  bool merging = false;       // oc.bm || oc.cm
  bool periodic = false;
  double halo2 = 0.0;         // 2r
  double X = 0.0, Y = 0.0, Z = 0.0;
  double extent[3] = {};      // problem extent per axis
  double planes[3] = {};      // pattern.planes_along per axis (axes < d)
  double bytes_ideal = 0.0;   // volume * 8
  double regs_base = 0.0;     // base + per-dim registers
  double stream_regs[3] = {}; // ST plane-buffer registers per stream axis
  double prefetch_regs[3] = {};  // PR buffer registers per stream axis
  double kept_planes_st[3] = {}; // smem planes kept per stream axis (ST)
  double kept_planes_nost = 1.0; // smem planes kept without ST
  double extra_2d = 0.0;         // 2-D cached cross-row read redundancy
  double read_scale_3d = 1.0;    // 3-D uncached-plane read factor
  double fp64_per_point = 0.0;   // FP64 ops per point (RT applied)
  double overhead_ops = 0.0;     // INT/FP32 ops per point (periodic applied)

  // --- GPU-derived coefficients ---------------------------------------
  double smem_limit_bytes = 0.0;
  double sms_d = 0.0;            // double(gpu.sms)
  double peak_bw_gbs = 0.0;      // mem_bw_gbs * peak_bw_frac
  double bw_per_thread_gbs = 0.0;
  double fp64_rate = 0.0;        // fp64_tflops * 1e12 * sustained_fp64_frac
  double alu_rate = 0.0;         // alu_tops * 1e12
  double sync_cycles = 0.0;
  double clock_hz = 0.0;         // clock_ghz * 1e9
  double launch_s = 0.0;         // launch_us * 1e-6
  double per_sync_st = 0.0;      // streaming barrier cost (PR hide applied)

  // --- identity (lets the Simulator reseed noise without re-hashing) ---
  std::uint64_t pattern_hash = 0;
  std::uint64_t gpu_hash = 0;
  std::uint64_t noise_seed_prefix = 0;  // filled by Simulator::analyze
};

/// Tunable model constants (calibrated once; exposed for ablation benches).
struct CostConstants {
  double regs_base = 26.0;          // addressing + loop state
  double regs_per_dim = 1.5;
  double regs_stream_per_plane = 2.2;
  double retime_reg_scale = 0.45;   // RT homogenizes stream registers
  double retime_reg_overhead = 6.0;
  double prefetch_regs = 6.0;
  double merge_reg_growth = 0.27;   // per extra merged point
  double unroll_reg_growth = 0.08;
  double spill_threshold = 255.0;   // regs/thread before spilling
  double crash_regs = 440.0;        // beyond this the build fails
  double spill_bytes_per_reg = 4.0; // DRAM bytes per point per spilled reg

  double l2_row_reuse_extra = 0.15;   // 2-D cached cross-row redundancy
  double uncached_plane_cost = 0.85;  // 3-D re-read fraction per spilled plane
  double nosmem_halo_penalty = 1.6;   // halo via cache instead of smem
  double nosmem_traffic_scale = 1.08;
  double bm_coalesce_penalty = 0.35;  // per merged point along x
  double cm_traffic_scale = 1.02;
  double merge_reuse_gain = 0.04;     // per log2(merge) off the x axis

  double flops_per_point_factor = 2.0;  // one FMA pair per tap
  double instr_overhead_ops = 16.0;     // per point, amortized by merging
  double retime_compute_overhead = 0.05;
  double compute_sat_occupancy = 0.25;

  double periodic_wrap_ops = 6.0;    // extra index arithmetic per point
  double periodic_halo_scale = 1.04; // wrapped halo lines coalesce worse

  double prefetch_sync_hide = 0.30;  // fraction of sync cost left with PR
  double tb_sync_growth = 0.30;      // extra sync per fused step
  double mlp_loads_per_thread = 4.0; // in-flight loads (latency floor)
  double overlap_fraction = 0.35;    // min(Tmem,Tcomp) not hidden
};

class KernelCostModel {
 public:
  explicit KernelCostModel(CostConstants constants = {})
      : c_(constants) {}

  /// Phase 1: computes every setting-independent quantity of the variant
  /// family (pattern walks, OC validity, occupancy inputs, traffic and
  /// compute coefficients) once. The result is reusable across any number
  /// of evaluate() calls and across threads (it is read-only), and borrows
  /// the GpuSpec — keep it alive for the analysis' lifetime.
  KernelAnalysis analyze(const stencil::StencilPattern& pattern,
                         const ProblemSize& problem, const OptCombination& oc,
                         const GpuSpec& gpu) const;

  /// Phase 2: applies the per-setting arithmetic to a cached analysis.
  /// Bit-identical to the one-shot evaluate() below for the same inputs.
  KernelProfile evaluate(const KernelAnalysis& analysis,
                         const ParamSetting& setting) const;

  /// One-shot convenience: analyze + evaluate. Never throws for resource
  /// overflows — those are reported as crashes in the profile (exactly how
  /// a failed CUDA launch shows up to an autotuner).
  KernelProfile evaluate(const stencil::StencilPattern& pattern,
                         const ProblemSize& problem, const OptCombination& oc,
                         const ParamSetting& setting, const GpuSpec& gpu) const {
    return evaluate(analyze(pattern, problem, oc, gpu), setting);
  }

  const CostConstants& constants() const noexcept { return c_; }

 private:
  CostConstants c_;
};

}  // namespace smart::gpusim
