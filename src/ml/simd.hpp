// Process-wide inference precision for the dense kernels (DESIGN.md §13).
//
// Every dense (MLP/ConvMLP) inference step runs the fused
// bias+activation kernel of Dense::infer_fused; this knob only picks the
// arithmetic that kernel uses:
//
//  - kStrict ("f64" on the CLI, the default) keeps the bit-exact
//    contract: the fused kernel performs the same floating-point
//    operations in the same per-element order as forward(), so it is
//    bit-identical to the training-time pass.
//  - kRelaxed ("f32") lets the dense kernels reassociate float
//    accumulation and contract mul+add into FMA on ISAs that have it —
//    faster, but only tolerance-equivalent to the strict path.
//
// GBDT prediction reads no knob: every GBDT prediction runs the one
// forest walk of ml/flat_forest.hpp and is exact in either mode.
//
// The relaxed dense kernel is compiled for several x86 ISA levels and
// dispatched once at runtime; on non-x86 or pre-AVX2 hardware it falls
// back to the portable scalar-vector build, so a binary built on one
// machine runs (and stays deterministic per machine) anywhere.
//
// The precision reads its SMART_PRECISION default lazily on first use and
// can be overridden for a scope with PrecisionSection (mirroring
// util::SerialSection) — that is how tests compare the modes in-process.
// The override is process-global, not thread-local, because the serve
// daemon evaluates batches on its own batcher thread; set it before
// spawning readers.
#pragma once

namespace smart::ml {

enum class Precision {
  kStrict,   // "f64": bit-identical to the training-time forward pass
  kRelaxed,  // "f32": reassociated/FMA float accumulation, tolerance-gated
};

/// Current inference precision (SMART_PRECISION env: "f64" | "f32").
/// Throws std::invalid_argument when the first read finds a malformed
/// SMART_PRECISION.
Precision inference_precision();
void set_inference_precision(Precision p) noexcept;

/// Parses "f64"/"f32"; throws std::invalid_argument on anything else.
Precision precision_from_string(const char* name);
const char* to_string(Precision p) noexcept;

/// RAII override of inference_precision() for a scope; restores the
/// previous value on destruction. Process-global (see header comment).
class PrecisionSection {
 public:
  explicit PrecisionSection(Precision p) : prev_(inference_precision()) {
    set_inference_precision(p);
  }
  ~PrecisionSection() { set_inference_precision(prev_); }
  PrecisionSection(const PrecisionSection&) = delete;
  PrecisionSection& operator=(const PrecisionSection&) = delete;

 private:
  Precision prev_;
};

}  // namespace smart::ml
