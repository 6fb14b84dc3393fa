#include "gpusim/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace smart::gpusim {

namespace {

double ceil_div(double a, double b) { return std::ceil(a / b); }

}  // namespace

KernelAnalysis KernelCostModel::analyze(const stencil::StencilPattern& pattern,
                                        const ProblemSize& problem,
                                        const OptCombination& oc,
                                        const GpuSpec& gpu) const {
  KernelAnalysis a;
  a.oc = oc;
  a.gpu = &gpu;
  if (!oc.is_valid()) {
    a.crash_reason = "invalid optimization combination";
    return a;
  }
  const int d = pattern.dims();
  if (problem.dims() != d) {
    a.crash_reason = "problem/pattern dimensionality mismatch";
    return a;
  }
  a.ok = true;

  a.d = d;
  a.r = static_cast<double>(pattern.order());
  a.nnz = static_cast<double>(pattern.size());
  a.volume = static_cast<double>(problem.volume());
  a.merging = oc.bm || oc.cm;
  a.periodic = problem.boundary == stencil::Boundary::kPeriodic;
  a.halo2 = 2.0 * a.r;
  a.X = problem.nx;
  a.Y = problem.ny;
  a.Z = problem.nz;
  for (int axis = 0; axis < d; ++axis) {
    a.extent[axis] = static_cast<double>(problem.extent(axis));
    a.planes[axis] = static_cast<double>(pattern.planes_along(axis));
  }
  a.bytes_ideal = a.volume * 8.0;
  a.regs_base = c_.regs_base + c_.regs_per_dim * d;

  // Per-stream-axis register and shared-memory coefficients (the stream
  // axis is the only setting field the pattern walks depend on, and it has
  // at most two legal values — hoist both).
  for (int axis = 0; axis < d; ++axis) {
    double stream_regs = c_.regs_stream_per_plane * a.planes[axis];
    if (oc.rt) {
      stream_regs = stream_regs * c_.retime_reg_scale + c_.retime_reg_overhead;
    }
    a.stream_regs[axis] = stream_regs;
    a.prefetch_regs[axis] =
        c_.prefetch_regs + 1.2 * (a.nnz / std::max(1.0, a.planes[axis]));
    a.kept_planes_st[axis] =
        d == 3 ? (oc.rt ? 2.0 : std::min(2.0 * a.r + 1.0, a.planes[axis]))
               : 1.0;
  }
  a.kept_planes_nost =
      d == 3 ? std::min(2.0 * a.r + 1.0, a.planes[2]) : 1.0;

  // DRAM-read redundancy factors of the non-streamed paths (fully
  // determined by pattern geometry, problem extents and the L2 size).
  if (d == 2) {
    const double rows = a.planes[1];
    const double row_ws = rows * a.X * 8.0;
    a.extra_2d = row_ws <= gpu.l2_mb * 1024.0 * 1024.0
                     ? c_.l2_row_reuse_extra * (rows - 1.0)
                     : 0.5 * (rows - 1.0);
  } else {
    const double planes_z = a.planes[2];
    const double plane_bytes = a.X * a.Y * 8.0;
    const double l2_planes =
        std::max(1.0, std::floor(gpu.l2_mb * 1024.0 * 1024.0 / plane_bytes));
    const double uncached = std::max(0.0, planes_z - l2_planes);
    a.read_scale_3d = 1.0 + c_.uncached_plane_cost * uncached;
  }

  // Per-point op counts (the RT and periodic adjustments are OC/problem
  // level; only the TB redundancy factor remains per-setting).
  double fp64_per_point = c_.flops_per_point_factor * a.nnz;
  if (oc.rt) fp64_per_point *= 1.0 + c_.retime_compute_overhead;
  a.fp64_per_point = fp64_per_point;
  double overhead_ops = c_.instr_overhead_ops + 2.0 * a.nnz;
  if (a.periodic) overhead_ops += c_.periodic_wrap_ops;
  a.overhead_ops = overhead_ops;

  // GPU-derived coefficients, grouped exactly as the evaluate() arithmetic
  // consumes them so the per-setting expressions stay bit-identical.
  a.smem_limit_bytes = gpu.smem_per_block_kb * 1024.0;
  a.sms_d = static_cast<double>(gpu.sms);
  a.peak_bw_gbs = gpu.mem_bw_gbs * gpu.peak_bw_frac;
  a.bw_per_thread_gbs = gpu.bw_per_thread_gbs;
  a.fp64_rate = gpu.fp64_tflops * 1e12 * gpu.sustained_fp64_frac;
  a.alu_rate = gpu.alu_tops * 1e12;
  a.sync_cycles = gpu.sync_cycles;
  a.clock_hz = gpu.clock_ghz * 1e9;
  a.launch_s = gpu.launch_us * 1e-6;
  double per_sync = gpu.sync_cycles / a.clock_hz;
  if (oc.pr) per_sync *= c_.prefetch_sync_hide;
  a.per_sync_st = per_sync;

  a.pattern_hash = pattern.hash();
  a.gpu_hash = gpu.hash();
  return a;
}

KernelProfile KernelCostModel::evaluate(const KernelAnalysis& a,
                                        const ParamSetting& s) const {
  KernelProfile p;
  if (!a.ok) {
    p.crash_reason = a.crash_reason;
    return p;
  }
  const int d = a.d;
  const OptCombination& oc = a.oc;
  const double r = a.r;
  const double volume = a.volume;
  const bool merging = a.merging;
  const double m = static_cast<double>(s.merge_factor);
  const double t = static_cast<double>(s.tb_depth);
  const int stream_axis = oc.st ? s.stream_dim : -1;
  if (oc.st && (stream_axis < 0 || stream_axis >= d)) {
    throw std::invalid_argument("planes_along: bad axis");
  }

  // ----- Tile geometry -------------------------------------------------
  // mx/my/mz: thread-coarsening factors per axis from merging.
  const double mx = (merging && s.merge_dim == 0) ? m : 1.0;
  const double my = (merging && s.merge_dim == 1) ? m : 1.0;
  const double mz = (merging && s.merge_dim == 2) ? m : 1.0;
  const double tile_x = s.block_x * mx;
  // In a streaming kernel the y-threads cooperate on one plane row-set; in
  // a non-streaming 3-D kernel each thread covers one z (times merging).
  const double tile_y = s.block_y * my;

  // ----- Register pressure ---------------------------------------------
  double regs = a.regs_base;
  if (oc.st) {
    regs += a.stream_regs[stream_axis] + 4.0;
  }
  if (oc.pr) {
    // Prefetch buffers hold the next plane's contribution per thread.
    regs += a.prefetch_regs[stream_axis];
  }
  if (oc.tb) {
    // With streaming, TB keeps t partial time-planes flowing through the
    // pipeline; without it the temporal halo lives in registers/smem and
    // each thread is coarsened over the trapezoid's redundant cells.
    regs += oc.st ? 4.0 * t : 8.0 * t + 1.0 * (2.0 * r * t + 1.0);
  }
  if (merging) regs *= 1.0 + c_.merge_reg_growth * (m - 1.0);
  regs *= 1.0 + c_.unroll_reg_growth * (s.unroll - 1.0);
  p.regs_per_thread = regs;
  if (regs > c_.crash_regs) {
    p.crash_reason = "register pressure: regs/thread exceeds the build limit";
    return p;
  }
  const double spilled_regs = std::max(0.0, regs - c_.spill_threshold);

  // ----- Shared memory ---------------------------------------------------
  double smem = 0.0;
  const double halo2 = a.halo2;
  if (oc.st && s.use_smem) {
    const double kept_planes = a.kept_planes_st[stream_axis];
    smem = (tile_x + halo2) * (tile_y + halo2) * 8.0 * kept_planes;
    if (oc.tb) smem *= t;
  } else if (!oc.st && s.use_smem) {
    smem = (tile_x + halo2) * (tile_y + halo2) * 8.0 * a.kept_planes_nost;
  }
  if (oc.tb && !oc.st) {
    // Without streaming, temporal blocking must keep the whole fused-time
    // working set of the tile resident: the tile plus a halo of r*t cells,
    // across 2*r*t+1 z-planes for 3-D stencils. This is what makes TB
    // infeasible for high-order 3-D stencils without ST (paper Sec. III-A).
    const double halo_t = 2.0 * r * t;
    const double planes_t = d == 3 ? 2.0 * r * t + 1.0 : 1.0;
    // x2: ping-pong buffers — the fused time loop reads step s-1 while
    // writing step s, so both versions of the tile must be resident.
    const double tb_smem =
        (tile_x + halo_t) * (tile_y + halo_t) * 16.0 * planes_t;
    smem = std::max(smem, tb_smem);
  }
  p.smem_per_block_bytes = smem;
  if (smem > a.smem_limit_bytes) {
    p.crash_reason = "shared memory: block exceeds the per-block limit";
    return p;
  }

  // ----- Occupancy and device concurrency --------------------------------
  const OccupancyResult occ =
      compute_occupancy(*a.gpu, s.threads_per_block(), regs, smem);
  if (occ.blocks_per_sm == 0) {
    p.crash_reason = "unlaunchable: zero occupancy";
    return p;
  }
  p.occupancy = occ.occupancy;

  const double X = a.X;
  const double Y = a.Y;
  const double Z = a.Z;
  double blocks = 0.0;
  double stream_iters = 0.0;
  if (oc.st) {
    const double stream_extent = a.extent[stream_axis];
    const double tiles_stream =
        ceil_div(stream_extent, static_cast<double>(s.stream_tile));
    if (d == 2) {
      blocks = ceil_div(X, tile_x) * tiles_stream;
    } else {
      // Stream along z: xy tile; stream along y: xz tile (x stays coalesced).
      const double other = stream_axis == 2 ? Y : Z;
      blocks = ceil_div(X, tile_x) * ceil_div(other, tile_y) * tiles_stream;
    }
    stream_iters =
        ceil_div(std::min(static_cast<double>(s.stream_tile), stream_extent),
                 static_cast<double>(s.unroll));
  } else {
    if (d == 2) {
      blocks = ceil_div(X, tile_x) * ceil_div(Y, tile_y);
    } else {
      blocks = ceil_div(X, tile_x) * ceil_div(Y, tile_y) * ceil_div(Z, mz);
    }
  }
  p.total_blocks = static_cast<long long>(blocks);

  const double concurrent_blocks =
      std::min(blocks, static_cast<double>(occ.blocks_per_sm) * a.sms_d);
  const double resident_threads = concurrent_blocks * s.threads_per_block();
  const double sm_util = std::min(1.0, blocks / a.sms_d);
  const double waves =
      std::max(1.0, std::ceil(blocks / std::max(1.0, concurrent_blocks)));

  // ----- DRAM traffic ----------------------------------------------------
  const double bytes_ideal = a.bytes_ideal;
  double read = bytes_ideal;
  if (oc.st) {
    // Streaming reuses planes along the stream axis; the residual traffic
    // is tile halos (free via smem, costlier via cache) plus the re-read
    // of 2r halo planes at each stream-tile boundary.
    double halo_frac = halo2 / tile_x;
    if (d == 3) halo_frac += halo2 / tile_y;
    if (!s.use_smem) halo_frac *= c_.nosmem_halo_penalty;
    halo_frac += halo2 / static_cast<double>(s.stream_tile);
    read *= 1.0 + halo_frac;
    if (!s.use_smem) read *= c_.nosmem_traffic_scale;
  } else if (d == 2) {
    read *= 1.0 + a.extra_2d;
  } else {
    // 3-D without streaming: distinct z-planes are separate streams; only
    // as many planes as fit in L2 get reused across neighbouring threads.
    read *= a.read_scale_3d;
    if (s.use_smem) {
      // Spatial smem tiling recovers intra-tile reuse but pays tile halos.
      const double tiled = 1.0 + halo2 / tile_x + halo2 / tile_y;
      read = std::min(read, bytes_ideal * tiled);
    }
  }
  if (oc.bm && s.merge_dim == 0) {
    // Block merging along the contiguous dimension de-coalesces loads:
    // each merged point widens the per-thread stride (paper Sec. II-B2).
    read *= 1.0 + c_.bm_coalesce_penalty * (m - 1.0);
  } else if (oc.cm) {
    read *= c_.cm_traffic_scale;
  } else if (oc.bm) {
    read *= std::max(0.85, 1.0 - c_.merge_reuse_gain * std::log2(m));
  }

  double traffic = read + bytes_ideal;  // + one write per output point
  double redundant_compute = 0.0;
  if (oc.tb) {
    if (oc.st) {
      // Streamed TB: fused steps divide traffic; halo redundancy grows
      // only in the tiled dimensions, relative to the already-haloed tile.
      const double ext =
          ((tile_x + 2.0 * r * t) * (tile_y + 2.0 * r * t)) /
          ((tile_x + halo2) * (tile_y + halo2));
      traffic = traffic / t * ext;
      redundant_compute += 0.5 * (ext - 1.0) + 0.04 * t;
    } else {
      // TB without streaming: every fused step recomputes the full
      // trapezoid halo around the bare tile (no streaming pipeline to
      // amortize it), so redundancy is charged in full — this is why the
      // paper never observes TB/TB_BM/TB_CM as a best OC (Fig. 2).
      const double ext = ((tile_x + 2.0 * r * t) * (tile_y + 2.0 * r * t)) /
                         (tile_x * tile_y);
      traffic = traffic / t * ext;
      redundant_compute += 1.2 * (ext - 1.0) + 0.04 * t;
    }
  }
  traffic += volume * spilled_regs * c_.spill_bytes_per_reg * 2.0;
  if (a.periodic) {
    // Wrapped halo reads touch the opposite domain edge: extra uncoalesced
    // lines proportional to the boundary surface.
    traffic *= c_.periodic_halo_scale;
  }
  p.dram_traffic_bytes = traffic;

  // ----- Memory time -------------------------------------------------------
  // Below the saturation knee the achieved bandwidth is limited by
  // memory-level parallelism (resident threads x per-thread throughput);
  // at the knee it clips to the sustained fraction of peak. This is what
  // lets a desktop GPU match an HBM part on low-occupancy variants while
  // losing at full occupancy (paper Sec. III-D).
  const double bw =
      std::min(a.peak_bw_gbs, resident_threads * a.bw_per_thread_gbs) * 1e9;
  const double t_mem = traffic / bw;

  // ----- Compute time ------------------------------------------------------
  // FP64 arithmetic runs on the (possibly narrow) FP64 pipe; per-point loop
  // overhead (addressing, predicates) runs on the INT/FP32 pipes and only
  // binds when it exceeds the FP64 work — this is what keeps low-order
  // stencils competitive on consumer GPUs with 1/32 FP64 rate.
  double fp64_per_point = a.fp64_per_point;
  fp64_per_point *= 1.0 + redundant_compute;
  const double overhead_per_point = a.overhead_ops / (m * s.unroll);
  p.flops = volume * fp64_per_point;
  const double comp_eff =
      std::min(1.0, occ.occupancy / c_.compute_sat_occupancy) * sm_util;
  const double t_fp64 =
      volume * fp64_per_point / (a.fp64_rate * std::max(0.05, comp_eff));
  const double t_alu = volume * overhead_per_point /
                       (a.alu_rate * std::max(0.05, comp_eff));
  const double t_comp = std::max(t_fp64, t_alu);

  // ----- Synchronization ---------------------------------------------------
  double t_sync = 0.0;
  if (oc.st) {
    double iters = stream_iters;
    if (oc.tb) iters *= 1.0 + c_.tb_sync_growth * t;
    t_sync = iters * a.per_sync_st * waves;
  } else if (oc.tb) {
    // Unstreamed TB: load/compute/store barriers per fused step.
    t_sync = waves * 4.0 * t * a.sync_cycles / a.clock_hz;
  } else if (s.use_smem) {
    t_sync = waves * a.sync_cycles / a.clock_hz;
  }

  const double t_launch = a.launch_s / (oc.tb ? t : 1.0);
  const double t_core = std::max(t_mem, t_comp) +
                        c_.overlap_fraction * std::min(t_mem, t_comp);
  const double total = t_core + t_sync + t_launch;

  p.t_mem_ms = t_mem * 1e3;
  p.t_comp_ms = t_comp * 1e3;
  p.t_sync_ms = t_sync * 1e3;
  p.time_ms = total * 1e3;
  p.ok = true;
  return p;
}

}  // namespace smart::gpusim
