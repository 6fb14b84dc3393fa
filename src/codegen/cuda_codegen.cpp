#include "codegen/cuda_codegen.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace smart::codegen {

namespace {

/// Indentation-tracking emitter; every open_brace() has to be matched,
/// which is what keeps the generated code structurally well-formed.
class SourceWriter {
 public:
  void line(const std::string& text = "") {
    for (int i = 0; i < indent_; ++i) out_ << "  ";
    out_ << text << '\n';
  }
  void open(const std::string& head) {
    line(head + " {");
    ++indent_;
  }
  void close(const std::string& tail = "") {
    --indent_;
    line("}" + tail);
  }
  std::string str() const { return out_.str(); }
  int depth() const { return indent_; }

 private:
  std::ostringstream out_;
  int indent_ = 0;
};

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  std::replace(s.begin(), s.end(), '_', '_');
  return s;
}

const char* axis_name(int axis) {
  return axis == 0 ? "x" : axis == 1 ? "y" : "z";
}

std::string offset_coord(const char* base, int delta) {
  if (delta == 0) return base;
  std::ostringstream os;
  os << base << (delta > 0 ? " + " : " - ") << std::abs(delta);
  return os.str();
}

/// A global-memory load of in[(x+dx, y+dy, z+dz)] under the boundary rule.
/// `stream_axis` >= 0 substitutes the streaming coordinate (s<axis>) for
/// that axis's base variable.
std::string global_load(const stencil::Point& d, int dims,
                        stencil::Boundary boundary, int stream_axis = -1) {
  std::ostringstream os;
  const char* bx = stream_axis == 0 ? "sx" : "gx";
  const char* by = stream_axis == 1 ? "sy" : "gy";
  const char* bz = stream_axis == 2 ? "sz" : "gz";
  const std::string xs = offset_coord(bx, d[0]);
  const std::string ys = offset_coord(by, d[1]);
  const std::string zs = dims == 3 ? offset_coord(bz, d[2]) : "0";
  if (boundary == stencil::Boundary::kPeriodic) {
    os << "in[gidx(wrap(" << xs << ", NX), wrap(" << ys << ", NY), "
       << (dims == 3 ? "wrap(" + zs + ", NZ)" : zs) << ")]";
  } else {
    os << "load_or_zero(in, " << xs << ", " << ys << ", " << zs << ")";
  }
  return os.str();
}

}  // namespace

std::string variant_name(const stencil::StencilPattern& pattern,
                         const gpusim::OptCombination& oc,
                         const gpusim::ParamSetting& setting) {
  std::ostringstream os;
  os << pattern.name() << '_' << lower(oc.name()) << "_b" << setting.block_x
     << 'x' << setting.block_y;
  if (setting.merge_factor > 1) os << "_m" << setting.merge_factor;
  if (setting.unroll > 1) os << "_u" << setting.unroll;
  if (setting.tb_depth > 1) os << "_t" << setting.tb_depth;
  return os.str();
}

GeneratedKernel CudaKernelGenerator::generate(
    const stencil::StencilPattern& pattern, const gpusim::OptCombination& oc,
    const gpusim::ParamSetting& s, const gpusim::ProblemSize& problem) const {
  const int dims = pattern.dims();
  if (problem.dims() != dims) {
    throw std::invalid_argument("codegen: problem/pattern dims mismatch");
  }
  const gpusim::ParamSpace space(oc, dims);
  if (!space.is_valid(s)) {
    throw std::invalid_argument("codegen: setting invalid for OC " + oc.name());
  }

  GeneratedKernel result;
  result.name = "kernel_" + variant_name(pattern, oc, s);
  const auto offsets = pattern.offsets();
  const int r = pattern.order();
  const bool merging = oc.bm || oc.cm;
  const bool periodic = problem.boundary == stencil::Boundary::kPeriodic;

  SourceWriter w;
  w.line("// Auto-generated by StencilMART CudaKernelGenerator.");
  w.line("// stencil:  " + pattern.name() + " (" +
         std::to_string(pattern.size()) + " taps, order " + std::to_string(r) +
         ")");
  w.line("// variant:  " + oc.name() + "  [" + s.to_string() + "]");
  w.line("// problem:  " + std::to_string(problem.nx) + " x " +
         std::to_string(problem.ny) + " x " + std::to_string(problem.nz) +
         ", boundary " + stencil::to_string(problem.boundary));
  w.line();
  w.line("#define NX " + std::to_string(problem.nx));
  w.line("#define NY " + std::to_string(problem.ny));
  if (dims == 3) w.line("#define NZ " + std::to_string(problem.nz));
  w.line("#define BX " + std::to_string(s.block_x));
  w.line("#define BY " + std::to_string(s.block_y));
  if (merging) w.line("#define MERGE " + std::to_string(s.merge_factor));
  if (oc.st) {
    w.line("#define STREAM_TILE " + std::to_string(s.stream_tile));
    w.line("#define UNROLL " + std::to_string(s.unroll));
  }
  if (oc.tb) w.line("#define TB_DEPTH " + std::to_string(s.tb_depth));
  w.line("#define NNZ " + std::to_string(pattern.size()));
  w.line();
  w.line("__constant__ double coef[NNZ];");
  w.line();
  w.line("__device__ __forceinline__ long gidx(long x, long y, long z) {");
  if (dims == 3) {
    w.line("  return (z * NY + y) * NX + x;");
  } else {
    w.line("  (void)z; return y * (long)NX + x;");
  }
  w.line("}");
  if (periodic) {
    w.line("__device__ __forceinline__ long wrap(long i, long n) {");
    w.line("  return (i % n + n) % n;");
    w.line("}");
  } else {
    w.line("__device__ __forceinline__ double load_or_zero(");
    w.line("    const double* __restrict__ in, long x, long y, long z) {");
    if (dims == 3) {
      w.line("  if (x < 0 || x >= NX || y < 0 || y >= NY || z < 0 || z >= NZ)");
    } else {
      w.line("  if (x < 0 || x >= NX || y < 0 || y >= NY)");
    }
    w.line("    return 0.0;  // Dirichlet-zero boundary");
    w.line("  return in[gidx(x, y, z)];");
    w.line("}");
  }
  w.line();

  // ---- Shared-memory tile declaration -----------------------------------
  int smem_doubles = 0;
  const int tile_x = s.block_x * ((merging && s.merge_dim == 0) ? s.merge_factor : 1);
  const int tile_y = s.block_y * ((merging && s.merge_dim == 1) ? s.merge_factor : 1);
  if (s.use_smem) {
    const int planes = oc.st && dims == 3
                           ? (oc.rt ? 2 : std::min(2 * r + 1,
                                                   pattern.planes_along(s.stream_dim)))
                           : 1;
    smem_doubles = (tile_x + 2 * r) * (tile_y + 2 * r) * planes *
                   (oc.tb && oc.st ? s.tb_depth : 1);
  }
  result.smem_doubles = smem_doubles;

  w.open("extern \"C\" __global__ void " + result.name +
         "(const double* __restrict__ in, double* __restrict__ out)");
  if (smem_doubles > 0) {
    w.line("__shared__ double tile[" + std::to_string(smem_doubles) + "];");
  }

  // ---- Thread-to-point mapping -------------------------------------------
  w.line("const long tx = threadIdx.x;");
  w.line("const long ty = threadIdx.y;");
  w.line("long gx = (long)blockIdx.x * " + std::to_string(tile_x) + " + tx;");
  if (oc.st) {
    const char* sd = axis_name(s.stream_dim);
    const char* other = dims == 3 ? (s.stream_dim == 2 ? "y" : "z") : "y";
    if (dims == 3) {
      w.line(std::string("long g") + other + " = (long)blockIdx.y * " +
             std::to_string(tile_y) + " + ty;");
      w.line(std::string("long g") + sd +
             " = (long)blockIdx.z * STREAM_TILE;  // streaming start");
    } else {
      w.line("long gy = (long)blockIdx.y * STREAM_TILE;  // streaming start");
    }
  } else {
    w.line("long gy = (long)blockIdx.y * " + std::to_string(tile_y) + " + ty;");
    if (dims == 3) w.line("long gz = (long)blockIdx.z;");
  }
  if (dims == 2 && !oc.st) w.line("(void)0;  // 2-D: z fixed at 0");

  // ---- Merging loop ---------------------------------------------------------
  if (merging) {
    const char* axis = axis_name(s.merge_dim);
    if (oc.bm) {
      w.line("// block merging: MERGE adjacent points along " +
             std::string(axis));
      w.open("for (int m = 0; m < MERGE; ++m)");
      w.line(std::string("const long c") + axis + " = g" + axis + " * MERGE + m;");
    } else {
      w.line("// cyclic merging: MERGE points strided by the grid extent");
      w.open("for (int m = 0; m < MERGE; ++m)");
      w.line(std::string("const long c") + axis + " = g" + axis +
             " + (long)m * (N" + std::string(1, static_cast<char>(std::toupper(*axis))) +
             " / MERGE);");
    }
  }

  // ---- Streaming / plain body ------------------------------------------------
  auto emit_taps = [&](const std::string& target) {
    w.line("double acc = 0.0;");
    for (std::size_t p = 0; p < offsets.size(); ++p) {
      w.line("acc += coef[" + std::to_string(p) + "] * " +
             global_load(offsets[p], dims, problem.boundary,
                         oc.st ? s.stream_dim : -1) +
             ";");
    }
    w.line(target + " = acc;");
  };

  if (oc.st) {
    if (oc.rt) {
      w.line("// retiming: per-plane partial sums retired as the stream advances");
      w.line("double partial[" + std::to_string(2 * r + 1) + "] = {0.0};");
    }
    if (oc.pr) {
      w.line("double prefetch_buf[" +
             std::to_string(std::max<std::size_t>(1, offsets.size() /
                            static_cast<std::size_t>(std::max(1, pattern.planes_along(s.stream_dim))))) +
             "];  // next-plane loads in flight");
    }
    if (oc.tb) w.line("// temporal blocking: TB_DEPTH fused time steps in the pipeline");
    w.line("#pragma unroll UNROLL");
    w.open("for (int sp = 0; sp < STREAM_TILE; ++sp)");
    const char* sd = axis_name(s.stream_dim);
    w.line(std::string("const long s") + sd + " = g" + sd + " + sp;");
    if (s.use_smem) {
      w.line("// stage the incoming plane of the tile through shared memory");
      w.line("tile[(ty + " + std::to_string(r) + ") * " +
             std::to_string(tile_x + 2 * r) + " + (tx + " + std::to_string(r) +
             ")] = " + (periodic
                            ? std::string("in[gidx(wrap(gx, NX), wrap(gy, NY), ") +
                                  (dims == 3 ? "wrap(s" + std::string(sd) + ", NZ)" : "0") + ")]"
                            : std::string("load_or_zero(in, gx, gy, ") +
                                  (dims == 3 ? "s" + std::string(sd) : "0") + ")") +
             ";");
      w.line("__syncthreads();");
      result.has_barrier = true;
    }
    if (oc.pr) {
      w.line("// prefetch the next plane while computing the current one");
      w.line("prefetch_buf[0] = " +
             (periodic ? "in[gidx(wrap(gx, NX), wrap(gy, NY), 0)]"
                       : std::string("load_or_zero(in, gx, gy, ") +
                             (dims == 3 ? "s" + std::string(sd) + " + 1" : "0") + ")") +
             ";");
    }
    if (oc.rt) {
      w.line("// accumulate this plane's taps into the retimed partial sums");
      for (int plane = -r; plane <= r; ++plane) {
        w.line("partial[" + std::to_string(plane + r) +
               "] += coef[0] /* plane " + std::to_string(plane) +
               " taps */ * tile[0];");
      }
      w.line("out[gidx(gx, gy, " + (dims == 3 ? "s" + std::string(sd) : "0") +
             ")] = partial[0];  // fully retired plane leaves the pipeline");
    } else {
      emit_taps("out[gidx(gx, gy, " +
                std::string(dims == 3 ? "s" + std::string(sd) : "0") + ")]");
    }
    if (s.use_smem) {
      w.line("__syncthreads();  // release the tile before the next plane");
    }
    w.close();  // streaming loop
  } else if (oc.tb) {
    w.line("// unstreamed temporal blocking: fused time loop over the");
    w.line("// trapezoid; ping-pong buffers live in shared memory");
    w.open("for (int t = 0; t < TB_DEPTH; ++t)");
    emit_taps("out[gidx(gx, gy, " + std::string(dims == 3 ? "gz" : "0") + ")]");
    w.line("__syncthreads();  // step barrier between fused time steps");
    result.has_barrier = true;
    w.close();
  } else {
    if (s.use_smem) {
      w.line("tile[ty * " + std::to_string(tile_x) + " + tx] = " +
             (periodic ? "in[gidx(wrap(gx, NX), wrap(gy, NY), 0)]"
                       : std::string("load_or_zero(in, gx, gy, ") +
                             (dims == 3 ? "gz" : "0") + ")") +
             ";");
      w.line("__syncthreads();");
      result.has_barrier = true;
    }
    emit_taps("out[gidx(gx, gy, " + std::string(dims == 3 ? "gz" : "0") +
              ")]");
  }

  if (merging) w.close();  // merging loop
  w.close();               // kernel

  if (w.depth() != 0) {
    throw std::logic_error("codegen: unbalanced braces");
  }
  result.source = w.str();
  return result;
}

std::string CudaKernelGenerator::generate_harness(
    const stencil::StencilPattern& pattern, const gpusim::OptCombination& oc,
    const gpusim::ParamSetting& s, const gpusim::ProblemSize& /*problem*/,
    const GeneratedKernel& kernel) const {
  const int dims = pattern.dims();
  const bool merging = oc.bm || oc.cm;
  const int tile_x = s.block_x * ((merging && s.merge_dim == 0) ? s.merge_factor : 1);
  const int tile_y = s.block_y * ((merging && s.merge_dim == 1) ? s.merge_factor : 1);

  SourceWriter w;
  w.line("// Host harness for " + kernel.name + " (allocation, launch,");
  w.line("// golden CPU verification). Generated by StencilMART.");
  w.line("#include <cstdio>");
  w.line("#include <cuda_runtime.h>");
  w.line("#include <vector>");
  w.line();
  w.open("int main()");
  w.line("const long n = (long)NX * NY" +
         std::string(dims == 3 ? " * NZ" : "") + ";");
  w.line("std::vector<double> host_in(n), host_out(n), golden(n);");
  w.line("for (long i = 0; i < n; ++i) host_in[i] = 0.5 * (i % 101);");
  w.line("double *dev_in = nullptr, *dev_out = nullptr;");
  w.line("cudaMalloc(&dev_in, n * sizeof(double));");
  w.line("cudaMalloc(&dev_out, n * sizeof(double));");
  w.line("cudaMemcpy(dev_in, host_in.data(), n * sizeof(double), cudaMemcpyHostToDevice);");
  w.line("double host_coef[NNZ];");
  w.line("for (int c = 0; c < NNZ; ++c) host_coef[c] = 1.0 / NNZ;");
  w.line("cudaMemcpyToSymbol(coef, host_coef, sizeof(host_coef));");
  w.line();
  w.line("const dim3 block(BX, BY);");
  if (oc.st) {
    if (dims == 3) {
      w.line("const dim3 grid((NX + " + std::to_string(tile_x - 1) + ") / " +
             std::to_string(tile_x) + ",");
      w.line("               (NY + " + std::to_string(tile_y - 1) + ") / " +
             std::to_string(tile_y) + ",");
      w.line("               (NZ + STREAM_TILE - 1) / STREAM_TILE);");
    } else {
      w.line("const dim3 grid((NX + " + std::to_string(tile_x - 1) + ") / " +
             std::to_string(tile_x) + ", (NY + STREAM_TILE - 1) / STREAM_TILE);");
    }
  } else {
    w.line("const dim3 grid((NX + " + std::to_string(tile_x - 1) + ") / " +
           std::to_string(tile_x) + ", (NY + " + std::to_string(tile_y - 1) +
           ") / " + std::to_string(tile_y) +
           (dims == 3 ? ", NZ);" : ");"));
  }
  w.line("cudaEvent_t start, stop;");
  w.line("cudaEventCreate(&start);");
  w.line("cudaEventCreate(&stop);");
  w.line("cudaEventRecord(start);");
  w.line(kernel.name + "<<<grid, block>>>(dev_in, dev_out);");
  w.line("cudaEventRecord(stop);");
  w.line("cudaEventSynchronize(stop);");
  w.line("float ms = 0.0f;");
  w.line("cudaEventElapsedTime(&ms, start, stop);");
  w.line("cudaMemcpy(host_out.data(), dev_out, n * sizeof(double), cudaMemcpyDeviceToHost);");
  w.line("std::printf(\"" + kernel.name + ": %.3f ms\\n\", ms);");
  w.line("cudaFree(dev_in);");
  w.line("cudaFree(dev_out);");
  w.line("return 0;");
  w.close();
  return w.str();
}

}  // namespace smart::codegen
