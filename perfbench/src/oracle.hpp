// Output checks of the benchmark. Served replies are compared byte for byte
// with the per-item StencilMart::advise() + recommend_gpu() report computed
// in-process on the same artifact (the `smartctl advise --model` path, not
// the daemon's advise_batch path), corpora with their recorded content
// checksums. The same oracle yields the advice-quality metrics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "core/mart.hpp"

namespace perfbench {

smart::stencil::StencilPattern to_pattern(const Stencil& stencil);

/// Index of a GPU in the model's GPU table.
std::size_t gpu_index(const smart::core::StencilMart& mart, const char* gpu);

/// The payload a served reply to (verb, stencil, gpu) must carry: the
/// escaped advise report for advise; for predict, the protocol's
/// `predicted_ms=<hexfloat> ms=<3 decimals>` spelling of advise()'s model
/// estimate.
struct Expected {
  std::string payload;
  smart::core::OcAdvice advice;
};
Expected expected_reply(const smart::core::StencilMart& mart,
                        const smart::stencil::StencilPattern& pattern, Verb verb,
                        const char* gpu);

/// Collects check outcomes; every mismatch is one failed operation.
class Verifier {
 public:
  /// `line` must be exactly "ok <id> <payload>".
  bool reply(std::string_view what, std::string_view line, std::string_view id,
             std::string_view payload);
  /// `actual` must spell as the 16-hex-digit `expected`.
  bool checksum(std::string_view what, std::uint64_t actual,
                std::string_view expected_hex);
  bool check(bool ok, std::string_view what);
  /// Adds `checks` checks made elsewhere, `mismatches` of which failed.
  void tally(std::size_t checks, std::size_t mismatches, std::string_view what);

  std::size_t checks() const noexcept { return checks_; }
  std::size_t mismatches() const noexcept { return mismatches_; }
  /// The first few mismatch descriptions.
  const std::vector<std::string>& notes() const noexcept { return notes_; }

 private:
  bool record(bool ok, std::string note);

  std::size_t checks_ = 0;
  std::size_t mismatches_ = 0;
  std::vector<std::string> notes_;
};

std::string checksum_hex(std::uint64_t value);

/// Advice quality of one advise reply (paper Figs. 10-12, 14):
/// `regret` = the advised variant's tuned time over the best time
/// gpusim::RandomSearchTuner::tune_all finds over every OC with the same
/// sample budget; `ape` = |model estimate - tuned time| / tuned time.
struct QualityTerm {
  double regret = 0.0;
  double ape = 0.0;
};
QualityTerm quality_term(const smart::core::StencilMart& mart,
                         const smart::stencil::StencilPattern& pattern,
                         const char* gpu, const smart::core::OcAdvice& advice);

}  // namespace perfbench
