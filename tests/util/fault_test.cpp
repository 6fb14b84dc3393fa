#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace smart::util {
namespace {

TEST(FaultSpec, EmptyStringParsesToDisabledSpec) {
  const FaultSpec spec = parse_fault_spec("");
  EXPECT_TRUE(spec.empty());
  EXPECT_FALSE(FaultInjector(spec).enabled());
}

TEST(FaultSpec, ParsesEveryElementKind) {
  const FaultSpec spec = parse_fault_spec(
      "seed=42;measure:transient:p=0.5:fails=3;measure:permanent:p=0.25;"
      "worker:p=0.125;io:p=1");
  EXPECT_EQ(spec.seed, 42u);
  ASSERT_EQ(spec.rules.size(), 4u);

  EXPECT_EQ(spec.rules[0].site, FaultSite::kMeasure);
  EXPECT_FALSE(spec.rules[0].permanent);
  EXPECT_DOUBLE_EQ(spec.rules[0].p, 0.5);
  EXPECT_EQ(spec.rules[0].fails, 3);

  EXPECT_EQ(spec.rules[1].site, FaultSite::kMeasure);
  EXPECT_TRUE(spec.rules[1].permanent);
  EXPECT_DOUBLE_EQ(spec.rules[1].p, 0.25);

  EXPECT_EQ(spec.rules[2].site, FaultSite::kWorker);
  EXPECT_FALSE(spec.rules[2].permanent);
  EXPECT_DOUBLE_EQ(spec.rules[2].p, 0.125);
  EXPECT_EQ(spec.rules[2].fails, 1);

  EXPECT_EQ(spec.rules[3].site, FaultSite::kIo);
  EXPECT_TRUE(spec.rules[3].permanent);
  EXPECT_DOUBLE_EQ(spec.rules[3].p, 1.0);
}

TEST(FaultSpec, ToStringRoundTrips) {
  const std::string text =
      "seed=7;measure:transient:p=0.05:fails=2;worker:p=0.001;io:p=0.3";
  const FaultSpec spec = parse_fault_spec(text);
  const FaultSpec again = parse_fault_spec(spec.to_string());
  EXPECT_EQ(again.seed, spec.seed);
  ASSERT_EQ(again.rules.size(), spec.rules.size());
  for (std::size_t r = 0; r < spec.rules.size(); ++r) {
    EXPECT_EQ(again.rules[r].site, spec.rules[r].site);
    EXPECT_EQ(again.rules[r].permanent, spec.rules[r].permanent);
    EXPECT_EQ(again.rules[r].p, spec.rules[r].p);  // bitwise
    EXPECT_EQ(again.rules[r].fails, spec.rules[r].fails);
  }
  EXPECT_EQ(again.to_string(), spec.to_string());
}

TEST(FaultSpec, ParsesServeSites) {
  // The serve daemon's sites use the short grammar: site:p=F[:fails=K].
  const FaultSpec spec =
      parse_fault_spec("seed=3;accept:p=0.5;read:p=0.25:fails=2;write:p=1");
  ASSERT_EQ(spec.rules.size(), 3u);
  EXPECT_EQ(spec.rules[0].site, FaultSite::kAccept);
  EXPECT_DOUBLE_EQ(spec.rules[0].p, 0.5);
  EXPECT_EQ(spec.rules[1].site, FaultSite::kRead);
  EXPECT_EQ(spec.rules[1].fails, 2);
  EXPECT_FALSE(spec.rules[1].permanent);
  EXPECT_EQ(spec.rules[2].site, FaultSite::kWrite);
  // to_string round trip covers the new sites too.
  const FaultSpec again = parse_fault_spec(spec.to_string());
  ASSERT_EQ(again.rules.size(), 3u);
  EXPECT_EQ(again.rules[0].site, FaultSite::kAccept);
  EXPECT_EQ(again.rules[1].site, FaultSite::kRead);
  EXPECT_EQ(again.rules[2].site, FaultSite::kWrite);
  EXPECT_EQ(again.to_string(), spec.to_string());
  // Serve sites are independent of each other and of the classic sites.
  const FaultInjector injector(parse_fault_spec("seed=3;read:p=1"));
  EXPECT_NE(injector.check(FaultSite::kRead, 1, 0), nullptr);
  EXPECT_EQ(injector.check(FaultSite::kAccept, 1, 0), nullptr);
  EXPECT_EQ(injector.check(FaultSite::kWrite, 1, 0), nullptr);
  EXPECT_EQ(injector.check(FaultSite::kIo, 1, 0), nullptr);
}

TEST(FaultSpec, RejectsMalformedServeElements) {
  EXPECT_THROW(parse_fault_spec("accept"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("read:p=2"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("write:p=0.5:fails=0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("accept:p=0.5:bogus=1"),
               std::invalid_argument);
}

TEST(FaultSpec, RejectsMalformedElements) {
  EXPECT_THROW(parse_fault_spec("bogus:p=0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("measure:sometimes:p=0.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("measure:transient:p=1.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("measure:transient:p=-0.1"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("measure:transient:p=abc"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("measure:permanent:p=0.5:fails=2"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("worker:p=0.5:fails=0"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("seed=notanumber"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("io:p=0.5:fails=1"), std::invalid_argument);
}

TEST(FaultInjector, DecisionIsPureAndDeterministic) {
  const FaultInjector injector(
      parse_fault_spec("seed=9;measure:transient:p=0.5"));
  for (std::uint64_t id = 0; id < 64; ++id) {
    const bool first =
        injector.check(FaultSite::kMeasure, id, 0) != nullptr;
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(injector.check(FaultSite::kMeasure, id, 0) != nullptr, first)
          << "identity " << id;
    }
  }
}

TEST(FaultInjector, ProbabilityZeroNeverFiresProbabilityOneAlwaysFires) {
  const FaultInjector never(parse_fault_spec("seed=1;measure:transient:p=0"));
  const FaultInjector always(parse_fault_spec("seed=1;measure:transient:p=1"));
  for (std::uint64_t id = 1; id <= 200; ++id) {
    EXPECT_EQ(never.check(FaultSite::kMeasure, id, 0), nullptr);
    EXPECT_NE(always.check(FaultSite::kMeasure, id, 0), nullptr);
  }
}

TEST(FaultInjector, HitRateTracksProbability) {
  const FaultInjector injector(
      parse_fault_spec("seed=77;measure:transient:p=0.2"));
  int hits = 0;
  constexpr int kTrials = 20000;
  for (std::uint64_t id = 0; id < kTrials; ++id) {
    if (injector.check(FaultSite::kMeasure, id, 0) != nullptr) ++hits;
  }
  const double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(FaultInjector, TransientFaultStopsAfterFailsAttempts) {
  const FaultInjector injector(
      parse_fault_spec("seed=5;measure:transient:p=1:fails=2"));
  const std::uint64_t id = 0xabcdef;
  EXPECT_NE(injector.check(FaultSite::kMeasure, id, 0), nullptr);
  EXPECT_NE(injector.check(FaultSite::kMeasure, id, 1), nullptr);
  EXPECT_EQ(injector.check(FaultSite::kMeasure, id, 2), nullptr);
  EXPECT_EQ(injector.check(FaultSite::kMeasure, id, 3), nullptr);
}

TEST(FaultInjector, PermanentFaultFiresAtEveryAttempt) {
  const FaultInjector injector(
      parse_fault_spec("seed=5;measure:permanent:p=1"));
  const std::uint64_t id = 0xabcdef;
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_NE(injector.check(FaultSite::kMeasure, id, attempt), nullptr);
  }
}

TEST(FaultInjector, SitesAreIndependent) {
  const FaultInjector injector(parse_fault_spec("seed=5;worker:p=1"));
  EXPECT_EQ(injector.check(FaultSite::kMeasure, 1, 0), nullptr);
  EXPECT_EQ(injector.check(FaultSite::kIo, 1, 0), nullptr);
  EXPECT_NE(injector.check(FaultSite::kWorker, 1, 0), nullptr);
}

TEST(FaultInjector, InjectThrowsTheMatchingExceptionType) {
  const FaultInjector injector(parse_fault_spec(
      "seed=2;measure:transient:p=1;worker:p=1;io:p=1"));
  try {
    injector.inject(FaultSite::kMeasure, 3, 0);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_NE(std::string(e.what()).find("transient"), std::string::npos);
  }
  EXPECT_THROW(injector.inject(FaultSite::kWorker, 3, 0), WorkerCrashError);
  try {
    injector.inject(FaultSite::kIo, 3, 0);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_FALSE(e.transient());
  }
  // A permanent measure fault is a non-transient FaultError.
  const FaultInjector perm(parse_fault_spec("seed=2;measure:permanent:p=1"));
  try {
    perm.inject(FaultSite::kMeasure, 3, 99);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_FALSE(e.transient());
  }
}

TEST(FaultInjector, DisabledInjectorNeverThrows) {
  const FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  for (std::uint64_t id = 0; id < 16; ++id) {
    EXPECT_NO_THROW(injector.inject(FaultSite::kMeasure, id, 0));
    EXPECT_NO_THROW(injector.inject(FaultSite::kWorker, id, 0));
    EXPECT_NO_THROW(injector.inject(FaultSite::kIo, id, 0));
  }
}

/// The ';'-separated elements of a spec, split as the parser splits them.
std::vector<std::string> spec_elements(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  for (std::string element; std::getline(stream, element, ';');) {
    out.push_back(element);
  }
  return out;
}

void mutate_spec(util::Rng& rng, std::string& text) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  static const char kAlphabet[] = ";:=.-+0123456789eEpxafilsmeasurtwkpnioN ";
  static const char* const kFragments[] = {
      ";", ":", "=", "p=", ":fails=", "seed=", "1e309", "nan", "-0", "0x1p-3",
      "2", "0.5", "99999999999999999999", "permanent", "transient", "io",
      "worker", "accept", "measure:", "-1", ""};
  switch (pick(6)) {
    case 0:  // flip one byte
      if (!text.empty()) text[pick(text.size())] = kAlphabet[pick(sizeof kAlphabet - 1)];
      break;
    case 1:  // insert a grammar fragment
      text.insert(pick(text.size() + 1), kFragments[pick(std::size(kFragments))]);
      break;
    case 2:  // delete a run of bytes
      if (!text.empty()) {
        const std::size_t at = pick(text.size());
        text.erase(at, 1 + pick(4));
      }
      break;
    case 3: {  // duplicate or drop an element
      auto elements = spec_elements(text);
      if (elements.empty()) break;
      const std::size_t e = pick(elements.size());
      if (rng.bernoulli(0.5)) {
        elements.insert(elements.begin() + static_cast<std::ptrdiff_t>(e),
                        elements[e]);
      } else {
        elements.erase(elements.begin() + static_cast<std::ptrdiff_t>(e));
      }
      text.clear();
      for (std::size_t i = 0; i < elements.size(); ++i) {
        if (i > 0) text += ';';
        text += elements[i];
      }
      break;
    }
    case 4:  // truncate
      text.resize(pick(text.size() + 1));
      break;
    default:  // replace a number with another spelling
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] >= '0' && text[i] <= '9') {
          std::size_t end = i;
          while (end < text.size() &&
                 ((text[end] >= '0' && text[end] <= '9') || text[end] == '.')) {
            ++end;
          }
          if (rng.bernoulli(0.5)) {
            text.replace(i, end - i, kFragments[6 + pick(8)]);
            break;
          }
          i = end;
        }
      }
      break;
  }
}

TEST(FaultSpec, MutationFuzzFailsNamedOrRoundTrips) {
  const std::vector<std::string> seeds = {
      "seed=42;measure:transient:p=0.5:fails=3;measure:permanent:p=0.25;"
      "worker:p=0.125;io:p=1",
      "seed=13;measure:transient:p=0.05;measure:permanent:p=0.01",
      "seed=7;accept:p=0.2;read:p=0.01:fails=2;write:p=0.3",
      "worker:p=0.001:fails=1000000;io:p=0",
      "measure:transient:p=1e-3"};
  util::Rng rng(20261019);
  int rejected = 0;
  int accepted = 0;
  for (int n = 0; n < 3000; ++n) {
    std::string text = seeds[static_cast<std::size_t>(n) % seeds.size()];
    const int edits = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int e = 0; e < edits; ++e) mutate_spec(rng, text);

    FaultSpec spec;
    try {
      spec = parse_fault_spec(text);
    } catch (const std::invalid_argument& error) {
      // The message quotes the offending element verbatim.
      const std::string what = error.what();
      const std::string prefix = "fault spec element '";
      ASSERT_EQ(what.rfind(prefix, 0), 0u) << what << " <- " << text;
      const std::size_t end = what.find("': ", prefix.size());
      ASSERT_NE(end, std::string::npos) << what;
      const std::string named = what.substr(prefix.size(), end - prefix.size());
      const auto elements = spec_elements(text);
      EXPECT_NE(std::find(elements.begin(), elements.end(), named),
                elements.end())
          << "'" << named << "' is not an element of " << text;
      ++rejected;
      continue;
    }
    ++accepted;
    const FaultSpec again = parse_fault_spec(spec.to_string());
    ASSERT_EQ(again.seed, spec.seed) << text;
    ASSERT_EQ(again.rules.size(), spec.rules.size()) << text;
    for (std::size_t r = 0; r < spec.rules.size(); ++r) {
      EXPECT_EQ(again.rules[r].site, spec.rules[r].site) << text;
      EXPECT_EQ(again.rules[r].permanent, spec.rules[r].permanent) << text;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(again.rules[r].p),
                std::bit_cast<std::uint64_t>(spec.rules[r].p))
          << text;
      EXPECT_EQ(again.rules[r].fails, spec.rules[r].fails) << text;
    }
    EXPECT_EQ(again.to_string(), spec.to_string());
  }
  EXPECT_GT(rejected, 300);
  EXPECT_GT(accepted, 300);
}

TEST(ScopedFaultInjection, InstallsAndRestoresTheGlobalInjector) {
  const std::string outer_spec = FaultInjector::global().spec().to_string();
  {
    const ScopedFaultInjection scoped("seed=11;io:p=1");
    EXPECT_TRUE(FaultInjector::global().enabled());
    EXPECT_NE(FaultInjector::global().check(FaultSite::kIo, 1, 0), nullptr);
    {
      const ScopedFaultInjection nested("");
      EXPECT_FALSE(FaultInjector::global().enabled());
    }
    EXPECT_TRUE(FaultInjector::global().enabled());
  }
  EXPECT_EQ(FaultInjector::global().spec().to_string(), outer_spec);
}

}  // namespace
}  // namespace smart::util
