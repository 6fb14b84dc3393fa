#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "core/advisor_server.hpp"
#include "core/serve_protocol.hpp"
#include "gpusim/tuner.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace perfbench {

namespace core = smart::core;

smart::stencil::StencilPattern to_pattern(const Stencil& stencil) {
  std::vector<smart::stencil::Point> points;
  points.reserve(stencil.offsets.size());
  for (const Offset& o : stencil.offsets) points.emplace_back(o[0], o[1]);
  return smart::stencil::StencilPattern(2, std::move(points));
}

std::size_t gpu_index(const core::StencilMart& mart, const char* gpu) {
  const auto& gpus = mart.dataset().gpus;
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    if (gpus[g].name == gpu) return g;
  }
  throw std::out_of_range(std::string("model has no GPU ") + gpu);
}

Expected expected_reply(const core::StencilMart& mart,
                        const smart::stencil::StencilPattern& pattern, Verb verb,
                        const char* gpu) {
  Expected e;
  e.advice = mart.advise(pattern, gpu);
  if (verb == Verb::kAdvise) {
    e.payload = core::serve::escape_text(core::advise_report(
        pattern, gpu, e.advice, mart.recommend_gpu(pattern)));
  } else {
    char hex[48];
    std::snprintf(hex, sizeof hex, "%a", e.advice.predicted_time_ms);
    e.payload = std::string("predicted_ms=") + hex + " ms=" +
                smart::util::format_double(e.advice.predicted_time_ms, 3);
  }
  return e;
}

bool Verifier::record(bool ok, std::string note) {
  ++checks_;
  if (!ok) {
    ++mismatches_;
    if (notes_.size() < 8) notes_.push_back(std::move(note));
  }
  return ok;
}

bool Verifier::reply(std::string_view what, std::string_view line,
                     std::string_view id, std::string_view payload) {
  std::string want = "ok ";
  want += id;
  want += ' ';
  want += payload;
  if (line == want) return record(true, {});
  std::size_t at = 0;
  while (at < line.size() && at < want.size() && line[at] == want[at]) ++at;
  return record(false, std::string(what) + ": reply differs from the oracle at byte " +
                           std::to_string(at));
}

bool Verifier::checksum(std::string_view what, std::uint64_t actual,
                        std::string_view expected_hex) {
  const std::string got = checksum_hex(actual);
  return record(got == expected_hex, std::string(what) + ": checksum " + got +
                                         ", expected " + std::string(expected_hex));
}

bool Verifier::check(bool ok, std::string_view what) {
  return record(ok, std::string(what));
}

void Verifier::tally(std::size_t checks, std::size_t mismatches,
                     std::string_view what) {
  checks_ += checks;
  mismatches_ += mismatches;
  if (mismatches > 0 && notes_.size() < 8) {
    notes_.push_back(std::string(what) + ": " + std::to_string(mismatches) +
                     " of " + std::to_string(checks) + " differ");
  }
}

std::string checksum_hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

QualityTerm quality_term(const core::StencilMart& mart,
                         const smart::stencil::StencilPattern& pattern,
                         const char* gpu, const core::OcAdvice& advice) {
  const std::size_t g = gpu_index(mart, gpu);
  const smart::gpusim::Simulator sim(mart.config().profile.sim);
  const smart::gpusim::RandomSearchTuner tuner(sim, mart.config().tuning_samples);
  smart::util::Rng rng(smart::util::hash_combine(pattern.hash(), g));
  const auto results = tuner.tune_all(
      pattern, smart::gpusim::ProblemSize::paper_default(pattern.dims()),
      mart.dataset().gpus[g], rng);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& r : results) {
    if (r.ok()) best = std::min(best, r.best_time_ms);
  }
  if (!std::isfinite(best) || advice.expected_time_ms <= 0.0) {
    throw std::runtime_error("quality: no runnable variant for " + pattern.name());
  }
  QualityTerm t;
  t.regret = advice.expected_time_ms / best;
  t.ape = std::abs(advice.predicted_time_ms - advice.expected_time_ms) /
          advice.expected_time_ms;
  return t;
}

}  // namespace perfbench
