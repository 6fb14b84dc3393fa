// Heap-allocation budget of the serve request path: parse_request ->
// one-item StencilMart::advise_batch -> reply_payload -> ok_reply, the
// work a first-time advise or predict costs the daemon. This executable
// replaces the global operator new with a counting one, which is why it is
// not part of smart_tests and is not built in the sanitizer trees (their
// runtimes interpose operator new themselves).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/advisor_server.hpp"
#include "core/mart.hpp"
#include "core/serve_protocol.hpp"
#include "stencil/generator.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace smart::core {
namespace {

/// Allocations per request this path reached when the budget was set,
/// rounded up to whole allocations: 31.99 per advise (four variants) and
/// 23.01 per predict (one variant), of which parse 2, reply payload 1 and
/// reply line 1. A change that adds heap work per request fails here; one
/// that removes some should lower the budget.
constexpr double kAdviseBudget = 32.0;
constexpr double kPredictBudget = 24.0;

const StencilMart& serving_mart() {
  static const StencilMart mart = [] {
    MartConfig config;  // the serve defaults: 24 tuning samples, GBR
    config.profile.dims = 2;
    config.profile.num_stencils = 120;
    config.profile.samples_per_oc = 4;
    config.profile.seed = 20220530;
    StencilMart m(config);
    m.train();
    return m;
  }();
  return mart;
}

/// serve_cold-style traffic: distinct generated 2-D stencils spelled as
/// offsets=, GPUs in rotation.
std::vector<std::string> request_lines(const char* verb, int count) {
  static const char* const kGpus[] = {"P100", "V100", "2080Ti", "A100"};
  const stencil::RandomStencilGenerator generator(stencil::GeneratorConfig{});
  util::Rng rng(verb[0] == 'a' ? 41 : 43);
  std::vector<std::string> lines;
  for (int i = 0; i < count; ++i) {
    std::string line = std::string(verb) + " r" + std::to_string(i) +
                       " gpu=" + kGpus[i % 4] + " offsets=";
    const auto pattern = generator.generate(rng);
    bool first = true;
    for (const auto& p : pattern.offsets()) {
      if (!first) line += ';';
      first = false;
      line += std::to_string(p[0]) + ',' + std::to_string(p[1]);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

/// Mean allocations of one request's parse, advise and reply formatting.
double allocations_per_request(const std::vector<std::string>& lines) {
  const StencilMart& mart = serving_mart();
  // The daemon's reused batch slot: copy-assigning a pattern into it keeps
  // its storage once it has held a pattern as large.
  AdviseBatchItem item;
  item.pattern = stencil::make_box(2, 4);
  const auto serve_one = [&](const std::string& line) {
    const std::uint64_t before = g_allocations.load();
    const serve::ParseResult parsed = serve::parse_request(line);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    item.pattern = parsed.request.pattern;
    item.gpu = parsed.request.gpu;
    item.recommend = parsed.request.verb == serve::Verb::kAdvise;
    const auto results = mart.advise_batch({&item, 1});
    EXPECT_TRUE(results[0].ok()) << results[0].error;
    const std::string reply =
        serve::ok_reply(parsed.request.id, reply_payload(item, results[0]));
    EXPECT_FALSE(reply.empty());
    return g_allocations.load() - before;
  };
  serve_one(lines.front());  // warm-up: first-use statics, timer registry
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) total += serve_one(lines[i]);
  return static_cast<double>(total) / static_cast<double>(lines.size() - 1);
}

TEST(ServeAllocBudget, AdviseStaysWithinBudget) {
  const double per_request = allocations_per_request(request_lines("advise", 101));
  RecordProperty("allocations_per_advise", std::to_string(per_request));
  EXPECT_LE(per_request, kAdviseBudget);
}

TEST(ServeAllocBudget, PredictStaysWithinBudget) {
  const double per_request = allocations_per_request(request_lines("predict", 101));
  RecordProperty("allocations_per_predict", std::to_string(per_request));
  EXPECT_LE(per_request, kPredictBudget);
}

}  // namespace
}  // namespace smart::core
