// Process-wide inference-mode switches for the vectorized kernels
// (DESIGN.md §13).
//
// Two independent knobs govern the dense (MLP/ConvMLP) inference hot paths:
//
//  - simd_enabled(): whether the fused dense kernels (fused
//    bias+activation matmul epilogues in Sequential::infer) are used at
//    all. These kernels are *strict*: they perform the exact same
//    floating-point operations in the exact same per-element order as the
//    legacy scalar code, so toggling this knob never changes a single
//    output bit — it only changes how fast the bits are produced. Default
//    on; SMART_SIMD=0 forces the legacy scalar paths (the escape hatch the
//    check.sh equivalence matrix exercises). GBDT inference does not read
//    it: every GBDT prediction runs the one forest walk of
//    ml/flat_forest.hpp.
//
//  - inference_precision(): kStrict (default, "f64" on the CLI) keeps the
//    historical bit-exact contract. kRelaxed ("f32") additionally allows
//    the dense kernels to reassociate float accumulation and contract
//    mul+add into FMA on ISAs that have it — faster, but only
//    tolerance-equivalent to the strict path. GBDT prediction is exact in
//    either mode (the forest walk reads neither knob).
//
// The relaxed dense kernel is compiled for several x86 ISA levels and
// dispatched once at runtime (dispatch_isa()); on non-x86 or pre-AVX2
// hardware it falls back to the portable scalar-vector build, so a binary
// built on one machine runs (and stays deterministic per machine) anywhere.
//
// Both knobs read their environment default lazily on first use and can be
// overridden for a scope with the RAII sections below (mirroring
// util::SerialSection) — that is how benches pin the per-call baseline to
// the scalar path while the batched path runs vectorized, and how tests
// compare the modes in-process. Overrides are process-global, not
// thread-local, because the serve daemon evaluates batches on its own
// batcher thread; set them before spawning readers.
#pragma once

namespace smart::ml {

enum class Precision {
  kStrict,   // "f64": bit-identical to the historical scalar path
  kRelaxed,  // "f32": reassociated/FMA float accumulation, tolerance-gated
};

/// Fused dense kernels enabled? (SMART_SIMD env, default on.)
bool simd_enabled() noexcept;
void set_simd_enabled(bool on) noexcept;

/// Current inference precision (SMART_PRECISION env: "f64" | "f32").
Precision inference_precision() noexcept;
void set_inference_precision(Precision p) noexcept;

/// Parses "f64"/"f32"; throws std::invalid_argument on anything else.
Precision precision_from_string(const char* name);
const char* to_string(Precision p) noexcept;

/// ISA level the relaxed dense kernel dispatched to on this machine
/// ("avx512f", "avx2+fma" or "scalar") — surfaced by benches and `serve
/// --timing` so recorded numbers name the kernel that produced them.
const char* dispatch_isa() noexcept;

/// RAII override of simd_enabled() for a scope; restores the previous
/// value on destruction. Process-global (see header comment).
class SimdSection {
 public:
  explicit SimdSection(bool on) noexcept : prev_(simd_enabled()) {
    set_simd_enabled(on);
  }
  ~SimdSection() { set_simd_enabled(prev_); }
  SimdSection(const SimdSection&) = delete;
  SimdSection& operator=(const SimdSection&) = delete;

 private:
  bool prev_;
};

/// RAII override of inference_precision() for a scope.
class PrecisionSection {
 public:
  explicit PrecisionSection(Precision p) noexcept
      : prev_(inference_precision()) {
    set_inference_precision(p);
  }
  ~PrecisionSection() { set_inference_precision(prev_); }
  PrecisionSection(const PrecisionSection&) = delete;
  PrecisionSection& operator=(const PrecisionSection&) = delete;

 private:
  Precision prev_;
};

}  // namespace smart::ml
