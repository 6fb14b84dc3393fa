// Self-tests of the benchmark's own machinery: seeded inputs, statistics,
// span self time and the output verifier. Run with
//   python3 perfbench/run.py --self-test
// (or the perfbench_selftest binary of the benchmark build). Exits 1 on the
// first failed expectation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/serve_protocol.hpp"
#include "host_speed.hpp"
#include "oracle.hpp"
#include "spans.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                       \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: expectation failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                       \
      ++failures;                                                          \
    }                                                                      \
  } while (0)

using namespace perfbench;

std::vector<std::string> lines_of(const Stream& s) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < s.requests.size(); ++i) out.push_back(s.line(i));
  return out;
}

void streams_are_pure_functions_of_the_seed() {
  for (const Mix mix : {Mix::kCold, Mix::kHot}) {
    const StreamSpec spec{mix, 2000.0, 0.5, 1.0, 300, 1.1};
    const Stream a = make_stream(spec, 42), b = make_stream(spec, 42);
    const Stream c = make_stream(spec, 43);
    EXPECT(lines_of(a) == lines_of(b));
    EXPECT(a.send_us == b.send_us);
    EXPECT(a.warm == b.warm);
    EXPECT(lines_of(a) != lines_of(c));
    EXPECT(a.send_us != c.send_us);
    // ~3000 Poisson arrivals over 1.5 s at 2000 rps.
    EXPECT(a.requests.size() > 2700 && a.requests.size() < 3300);
    EXPECT(a.warm > 800 && a.warm < 1200);
    EXPECT(std::is_sorted(a.send_us.begin(), a.send_us.end()));
  }
  // Bursts: every arrival time repeats `burst` times, at the same mean rate.
  const Stream bursty = make_stream({Mix::kHot, 2000.0, 0.5, 1.0, 300, 1.1, 8}, 42);
  EXPECT(bursty.requests.size() % 8 == 0);
  EXPECT(bursty.requests.size() > 2400 && bursty.requests.size() < 3600);
  for (std::size_t i = 0; i + 8 <= bursty.send_us.size(); i += 8) {
    EXPECT(bursty.send_us[i] == bursty.send_us[i + 7]);
  }
  Rng r1(9), r2(9);
  EXPECT(poisson_schedule(r1, 1000.0, 2.0) == poisson_schedule(r2, 1000.0, 2.0));
}

void cold_stream_never_repeats_a_stencil() {
  const Stream s = make_stream({Mix::kCold, 2000.0, 0.5, 1.0, 0, 0.0}, 7);
  const InputProperties p = input_properties(s);
  EXPECT(p.repeat_share == 0.0);
  EXPECT(p.shared_variant_share == 0.0);
  EXPECT(p.first_time == p.timed);
  // 3 advise (4 variants each) : 1 predict (1 variant).
  EXPECT(p.variants_per_req > 2.9 && p.variants_per_req < 3.6);
}

void input_properties_are_exact() {
  Stream s;
  s.stencils.resize(2);
  s.requests = {{Verb::kPredict, 1, 0},   // warm-up: variant (0, 1)
                {Verb::kAdvise, 1, 0},    // first time; (0,1) shared, 3 new
                {Verb::kAdvise, 1, 0},    // repeat
                {Verb::kPredict, 2, 1}};  // first time; (1,2) new
  s.send_us = {0, 1, 2, 3};
  s.warm = 1;
  const InputProperties p = input_properties(s);
  EXPECT(p.timed == 3);
  EXPECT(p.first_time == 2);
  EXPECT(std::abs(p.repeat_share - 1.0 / 3.0) < 1e-12);
  EXPECT(std::abs(p.shared_variant_share - 1.0 / 5.0) < 1e-12);
  EXPECT(std::abs(p.variants_per_req - 5.0 / 2.0) < 1e-12);
}

void generated_stencils_parse_as_themselves() {
  Rng rng(3);
  for (int k = 0; k < 200; ++k) {
    const Stencil st = random_stencil(rng);
    EXPECT(std::is_sorted(st.offsets.begin(), st.offsets.end()));
    EXPECT(std::binary_search(st.offsets.begin(), st.offsets.end(), Offset{0, 0}));
    const auto parsed = smart::core::serve::parse_request(
        "advise x gpu=V100 offsets=" + st.spec);
    EXPECT(parsed.ok);
    EXPECT(parsed.request.pattern == to_pattern(st));
    EXPECT(parsed.request.pattern.order() >= 1 && parsed.request.pattern.order() <= 4);
  }
}

void percentiles_on_known_samples() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(percentile(v, 50.0) == 50.0);
  EXPECT(percentile(v, 99.0) == 99.0);
  EXPECT(percentile(v, 100.0) == 100.0);
  EXPECT(percentile(v, 1.0) == 1.0);
  EXPECT(percentile({7.0}, 99.0) == 7.0);
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.0);  // nearest rank: lower middle
  EXPECT(interquartile_mean({5.0, 1.0, 3.0, 2.0, 4.0, 100.0, 0.0}) == 3.0);  // 1..5
  EXPECT(interquartile_mean({8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0}) == 4.5);  // 3..6
  EXPECT(interquartile_mean({3.0, 1.0, 2.0}) == 2.0);  // nothing dropped
  std::vector<double> w(1000);
  for (int i = 0; i < 1000; ++i) w[static_cast<std::size_t>(i)] = i + 1;
  EXPECT(percentile(w, 99.0) == 990.0);  // 10 samples lie beyond it
  EXPECT(std::abs(geomean({1.0, 4.0}) - 2.0) < 1e-12);
}

void span_self_time_on_a_partly_covered_tree() {
  std::vector<Span> spans = {
      {"mart.parent", 0, 100, -1, -1, false},
      {"gpusim.a", 10, 30, 0, -1, false},
      {"gpusim.b", 20, 50, 0, -1, true},    // overlaps a
      {"ml.c", 90, 120, 0, -1, false},      // runs past the parent
      {"ml.grandchild", 92, 95, 3, -1, false},
  };
  const auto self = self_times_ns(spans);
  // Children cover [10, 50) and [90, 100) of the parent: 50 of 100.
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 27);
  EXPECT(self[4] == 3);
  const auto layers = self_time_by_layer_ms(spans);
  EXPECT(std::abs(layers.at("mart") - 50e-6) < 1e-12);
  EXPECT(std::abs(layers.at("gpusim") - 50e-6) < 1e-12);
  EXPECT(std::abs(layers.at("ml") - 30e-6) < 1e-12);
  SpanRecorder rec;
  rec.set_enabled(false);
  EXPECT(rec.open("x.y") == -1);
  EXPECT(rec.spans().empty());
}

void verifier_flags_corruption() {
  const std::string payload = "stencil star2d1r on V100:\\n  group        g1\\n";
  Verifier v;
  EXPECT(v.reply("exact", "ok r1 " + payload, "r1", payload));
  std::string corrupted = "ok r1 " + payload;
  corrupted[12] ^= 0x01;
  EXPECT(!v.reply("one flipped byte", corrupted, "r1", payload));
  EXPECT(!v.reply("wrong id", "ok r2 " + payload, "r1", payload));
  EXPECT(!v.reply("missing reply", "", "r1", payload));
  EXPECT(v.checksum("right", 0x2e5c80a812ebd0f9ull, "2e5c80a812ebd0f9"));
  EXPECT(!v.checksum("wrong", 0x2e5c80a812ebd0f8ull, "2e5c80a812ebd0f9"));
  v.tally(10, 2, "repeats");
  EXPECT(v.checks() == 16);
  EXPECT(v.mismatches() == 6);
  EXPECT(v.notes().size() == 5);
}

}  // namespace

void host_speed_window_median() {
  const auto t0 = Clock::now();
  const auto at = [t0](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  // A chunk every 0.1 s: 1 ms before 5 s, 3 ms from 5 s on.
  std::vector<SpeedSample> samples;
  for (int i = 0; i < 100; ++i) samples.push_back({at(0.1 * i + 0.05), i < 50 ? 1e-3 : 3e-3, {}});
  const auto med = [&](double from, double to, std::size_t min = 8) {
    return window_median(samples, at(from), at(to), 0.5, min);
  };
  // 0.5 s either side of the interval, and only that.
  EXPECT(med(1.0, 2.0) == 1e-3);
  EXPECT(med(6.0, 8.0) == 3e-3);
  EXPECT(med(5.3, 5.3) == 3e-3);  // 4.8..5.8: 2 fast, 8 slow
  EXPECT(med(4.7, 4.7) == 1e-3);  // 4.2..5.2: 8 fast, 2 slow
  // Fewer than min_samples near it: the nearest ones.
  EXPECT(med(40.0, 41.0) == 3e-3);
  EXPECT(med(-30.0, -29.0) == 1e-3);
  EXPECT(med(5.3, 5.3, 40) == 3e-3);  // 3.3..7.3: 17 fast, 23 slow
  // Steal: 10 of every 100 host ticks from 5 s on, none before.
  for (int i = 0; i < 100; ++i) {
    const unsigned long long ticks = 100ull * static_cast<unsigned long long>(i);
    const unsigned long long stolen = i < 50 ? 0 : 10ull * static_cast<unsigned long long>(i - 50);
    samples[static_cast<std::size_t>(i)].host = {stolen, ticks};
  }
  EXPECT(window_steal(samples, at(1.0), at(2.0)) == 0.0);
  EXPECT(std::abs(window_steal(samples, at(6.0), at(8.0)) - 0.1) < 1e-12);
  EXPECT(window_steal(samples, at(40.0), at(41.0)) == 0.0);  // no samples there
  bool threw = false;
  try {
    window_median({}, at(0.0), at(1.0));
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT(threw);
  // The live reference records chunks from its start.
  HostSpeed speed;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT(speed.samples().size() >= 2);
  const Interval now{Clock::now(), Clock::now()};
  EXPECT(speed.cpu_factor(now) > 0.0 && speed.wall_factor(now) >= speed.cpu_factor(now));
}

int main() {
  streams_are_pure_functions_of_the_seed();
  cold_stream_never_repeats_a_stencil();
  input_properties_are_exact();
  generated_stencils_parse_as_themselves();
  percentiles_on_known_samples();
  span_self_time_on_a_partly_covered_tree();
  verifier_flags_corruption();
  host_speed_window_median();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all passed\n");
  return 0;
}
