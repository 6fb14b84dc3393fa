#include "core/serialize.hpp"

#include "core/oc_merger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/serialize_io.hpp"

namespace smart::core {
namespace {

ProfileDataset make_dataset(bool varied = false) {
  ProfileConfig cfg;
  cfg.dims = 2;
  cfg.num_stencils = 6;
  cfg.samples_per_oc = 2;
  cfg.seed = 909;
  cfg.vary_problem_size = varied;
  cfg.vary_boundary = varied;
  return build_profile_dataset(cfg);
}

void expect_equal(const ProfileDataset& a, const ProfileDataset& b) {
  ASSERT_EQ(a.stencils.size(), b.stencils.size());
  for (std::size_t s = 0; s < a.stencils.size(); ++s) {
    EXPECT_EQ(a.stencils[s], b.stencils[s]);
    EXPECT_EQ(a.problems[s].nx, b.problems[s].nx);
    EXPECT_EQ(a.problems[s].boundary, b.problems[s].boundary);
    for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
      ASSERT_EQ(a.settings[s][oc].size(), b.settings[s][oc].size());
      for (std::size_t k = 0; k < a.settings[s][oc].size(); ++k) {
        EXPECT_EQ(a.settings[s][oc][k], b.settings[s][oc][k]);
      }
      for (std::size_t g = 0; g < a.num_gpus(); ++g) {
        ASSERT_EQ(a.times[s][g][oc].size(), b.times[s][g][oc].size());
        for (std::size_t k = 0; k < a.times[s][g][oc].size(); ++k) {
          const double ta = a.times[s][g][oc][k];
          const double tb = b.times[s][g][oc][k];
          if (std::isnan(ta)) {
            EXPECT_TRUE(std::isnan(tb));
          } else {
            // hexfloat encoding: bit-exact round trip.
            EXPECT_EQ(ta, tb);
          }
        }
      }
    }
  }
}

std::string serialized(const ProfileDataset& ds) {
  std::ostringstream out;
  save_dataset(ds, out);
  return out.str();
}

/// Byte offset where 1-based `line` of `text` starts.
std::size_t line_start(const std::string& text, std::size_t line) {
  std::size_t at = 0;
  for (std::size_t l = 1; l < line; ++l) at = text.find('\n', at) + 1;
  return at;
}

/// 1-based number of the first line of `text` that starts with `prefix`.
std::size_t first_line_of(const std::string& text, const std::string& prefix) {
  const std::size_t at = text.find('\n' + prefix);
  EXPECT_NE(at, std::string::npos) << prefix;
  std::size_t line = 2;
  for (std::size_t i = 0; i < at; ++i) line += text[i] == '\n' ? 1 : 0;
  return line;
}

std::string append_to_line(std::string text, std::size_t line,
                           const std::string& suffix) {
  return text.insert(text.find('\n', line_start(text, line)), suffix);
}

/// Replaces the first offset token of the first stencil record (line 3).
std::string with_first_offset(std::string text, const std::string& token) {
  std::size_t at = line_start(text, 3);
  for (int field = 0; field < 5; ++field) at = text.find(' ', at) + 1;
  return text.replace(at, text.find_first_of(";\n", at) - at, token);
}

/// Replaces field `index` (0-based) of the header line.
std::string with_header_field(std::string text, int index,
                              const std::string& value) {
  std::size_t at = line_start(text, 2);
  for (int field = 0; field < index; ++field) at = text.find(' ', at) + 1;
  return text.replace(at, text.find_first_of(" \n", at) - at, value);
}

/// Loads `text` as "corpus.txt", which must fail with a std::runtime_error
/// located at `line`; returns its message. Any other exception type (the
/// std::invalid_argument a bad offset used to raise from StencilPattern,
/// or a std::bad_alloc from a table sized by a corrupt count) escapes and
/// fails the calling test.
std::string load_error(const std::string& text, std::size_t line) {
  std::istringstream in(text);
  try {
    load_dataset(in, "corpus.txt");
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("corpus.txt:" + std::to_string(line) + ": ", 0), 0u)
        << what;
    return what;
  }
  ADD_FAILURE() << "corpus loaded; expected an error at line " << line;
  return {};
}

TEST(Serialize, RoundTripIsBitExact) {
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  const auto loaded = load_dataset(buffer);
  expect_equal(original, loaded);
  EXPECT_EQ(loaded.config.dims, original.config.dims);
  EXPECT_EQ(loaded.config.seed, original.config.seed);
}

TEST(Serialize, RoundTripWithExtensions) {
  const auto original = make_dataset(true);
  std::stringstream buffer;
  save_dataset(original, buffer);
  const auto loaded = load_dataset(buffer);
  expect_equal(original, loaded);
  EXPECT_TRUE(loaded.config.vary_problem_size);
}

TEST(Serialize, FileRoundTrip) {
  const auto original = make_dataset();
  const std::string path = testing::TempDir() + "smart_dataset_test.txt";
  save_dataset(original, path);
  const auto loaded = load_dataset(path);
  expect_equal(original, loaded);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream buffer("not-a-dataset\n");
  EXPECT_THROW(load_dataset(buffer), std::runtime_error);
}

TEST(Serialize, RejectsUnknownTag) {
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  std::string text = buffer.str();
  text += "bogus 1 2 3\n";
  std::stringstream corrupted(text);
  EXPECT_THROW(load_dataset(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsOutOfRangeIndices) {
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  std::string text = buffer.str();
  text += "time 99 0 0 0 1.0\n";
  std::stringstream corrupted(text);
  EXPECT_THROW(load_dataset(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsCorruptTimeValue) {
  // A half-parsable time token ("1.2.3" -> 1.2 under bare strtod) used to
  // load silently; strict parsing must throw instead.
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  std::string text = buffer.str();
  text += "time 0 0 0 2 1.2.3\n";
  std::stringstream corrupted(text);
  EXPECT_THROW(load_dataset(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsNonPositiveOrNonFiniteTime) {
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  for (const std::string bad : {"-1.5", "0", "inf", "nan"}) {
    std::stringstream corrupted(buffer.str() + "time 0 0 0 2 " + bad + "\n");
    EXPECT_THROW(load_dataset(corrupted), std::runtime_error) << bad;
  }
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_dataset("/nonexistent/dataset.txt"), std::runtime_error);
}

TEST(Serialize, ParseErrorsCarrySourceAndLineContext) {
  // Satellite contract: a bad record is reported as "<source>:<line>: ...",
  // pinpointing the offending line instead of a bare what() string.
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  const std::string text = buffer.str();
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  std::stringstream corrupted(text + "time 0 0 0 2 1.2.3\n");
  try {
    load_dataset(corrupted, "corpus.txt");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("corpus.txt:" + std::to_string(lines + 1) + ": "), 0u)
        << what;
    EXPECT_NE(what.find("unparsable time field '1.2.3'"), std::string::npos)
        << what;
  }
  // The default source name still provides the line number.
  std::stringstream bad_magic("not-a-dataset\n");
  try {
    load_dataset(bad_magic);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).find("<stream>:1: "), 0u) << e.what();
  }
}

TEST(Serialize, QuarantineRecordsRoundTrip) {
  auto original = make_dataset();
  original.quarantined.push_back(
      {1, 3, 0, "injected measure permanent fault (identity abc, attempt 0)"});
  original.quarantined.push_back(
      {4, 17, 2, "transient fault budget exhausted: injected fault"});
  std::stringstream buffer;
  save_dataset(original, buffer);
  const auto loaded = load_dataset(buffer);
  EXPECT_EQ(loaded.quarantined, original.quarantined);

  // Out-of-range quarantine indices are rejected with context.
  std::stringstream buffer2;
  save_dataset(make_dataset(), buffer2);
  std::stringstream corrupted(buffer2.str() + "quar 99 0 0 boom\n");
  EXPECT_THROW(load_dataset(corrupted), std::runtime_error);
}

TEST(Serialize, AtomicSaveLeavesDestinationIntactOnFailure) {
  const auto original = make_dataset();
  const std::string path = testing::TempDir() + "smart_atomic_dataset.txt";
  save_dataset(original, path);
  {
    // An injected io fault mid-save must not clobber the existing corpus.
    const util::ScopedFaultInjection faults("seed=1;io:p=1");
    EXPECT_THROW(save_dataset(original, path), std::runtime_error);
  }
  const auto loaded = load_dataset(path);
  expect_equal(original, loaded);
  std::remove(path.c_str());
}

TEST(Serialize, LoadedDatasetDrivesDownstreamTasks) {
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  const auto loaded = load_dataset(buffer);
  OcMerger merger;
  merger.fit(loaded);
  EXPECT_EQ(merger.num_groups(), 5);
  for (std::size_t s = 0; s < loaded.stencils.size(); ++s) {
    EXPECT_EQ(loaded.best_oc(s, 0), original.best_oc(s, 0));
  }
}

TEST(Serialize, WriterSpellsValuesAsIostreamDid) {
  // Times are spelled exactly as `out << std::hexfloat` (printf "%a"), a
  // NaN time as "crash", and the header noise sigma as
  // `out << std::setprecision(17)`.
  auto ds = make_dataset();
  ds.config.sim.noise_sigma = 0.1;
  const std::vector<double> values = {
      1.0,     DBL_MIN, DBL_TRUE_MIN, 3 * DBL_TRUE_MIN, DBL_MAX,
      std::numeric_limits<double>::quiet_NaN(), -1.0,
      std::numeric_limits<double>::infinity()};
  ds.times[0][0][0] = values;
  const std::string text = serialized(ds);
  for (std::size_t k = 0; k < values.size(); ++k) {
    std::ostringstream want;
    want << "\ntime 0 0 0 " << k << ' ';
    if (std::isnan(values[k])) {
      want << "crash";
    } else {
      want << std::hexfloat << values[k];
    }
    want << '\n';
    EXPECT_NE(text.find(want.str()), std::string::npos) << want.str();
  }
  std::ostringstream header;
  header << std::setprecision(17) << ds.config.dims << ' '
         << ds.config.max_order << ' ' << ds.stencils.size() << ' '
         << ds.config.samples_per_oc << ' ' << ds.config.seed << ' '
         << ds.config.sim.noise_sigma << " 0 0\n";
  EXPECT_EQ(text.substr(line_start(text, 2), header.str().size()),
            header.str());
}

TEST(Serialize, GoldenCorpusBytesAreStable) {
  // The paper-sized 2-D corpus (smartctl profile --dims 2 --stencils 500
  // --samples 4 --seed 20220530): the writer emits the bytes the iostream
  // writer did (pinned by size and FNV-1a digest), and save -> load -> save
  // reproduces them and the golden dataset checksum.
  ProfileConfig cfg;
  cfg.dims = 2;
  cfg.num_stencils = 500;
  cfg.samples_per_oc = 4;
  cfg.seed = 20220530;
  const std::string bytes = serialized(build_profile_dataset(cfg));
  EXPECT_EQ(bytes.size(), 9892824u);
  EXPECT_EQ(util::fnv1a64(bytes), 0x862be6203549a84fULL);
  std::istringstream in(bytes);
  const ProfileDataset loaded = load_dataset(in, "golden.txt");
  EXPECT_EQ(dataset_checksum(loaded), 0x2e5c80a812ebd0f9ULL);
  EXPECT_EQ(serialized(loaded), bytes);
}

TEST(Serialize, RejectsBadOffsetsAsLocatedRuntimeErrors) {
  // The first three used to get through: z != 0 in a 2-D corpus escaped
  // from StencilPattern as std::invalid_argument (a usage error to the
  // CLI), 200 wrapped to the int8 coordinate -56, and sscanf ignored the
  // trailing "junk".
  const std::string text = serialized(make_dataset());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"0:0:1", "non-zero coordinate beyond dims 2"},
      {"200:0:0", "offset coordinate out of range in '200:0:0' (want -4..4)"},
      {"0:0:0junk", "bad offset token '0:0:0junk'"},
      {"0:-5:0", "out of range"},
      {"0:0", "bad offset token"},
      {"0:0:0:0", "bad offset token"},
      {"+1:0:0", "bad offset token"},
      {"1::0", "bad offset token"},
      {"", "bad offset token ''"},
  };
  for (const auto& [token, message] : cases) {
    const std::string what = load_error(with_first_offset(text, token), 3);
    EXPECT_NE(what.find(message), std::string::npos) << token << ": " << what;
  }
}

TEST(Serialize, RejectsRecordsWithExtraTokens) {
  auto sharded = make_dataset();
  sharded.shard = ShardSpec{0, 2};
  const std::string text = serialized(sharded);
  for (const std::string tag : {"shard ", "stencil ", "setting ", "time "}) {
    const std::size_t line = first_line_of(text, tag);
    const std::string what = load_error(append_to_line(text, line, " 7"), line);
    EXPECT_NE(what.find("fields, want"), std::string::npos) << what;
  }
  load_error(append_to_line(text, 2, " 7"), 2);  // the header
  // A quar record's reason is free text, whatever it holds.
  auto quarantined = make_dataset();
  quarantined.quarantined.push_back({2, 5, 1, "a reason  with\ttabs 1 2 3"});
  std::istringstream in(serialized(quarantined));
  EXPECT_EQ(load_dataset(in).quarantined, quarantined.quarantined);
}

TEST(Serialize, RejectsOutOfRangeHeaderFields) {
  const std::string text = serialized(make_dataset());
  const std::vector<std::pair<int, std::string>> cases = {
      {0, "4"}, {0, "1"},  {1, "0"},   {1, "200"}, {2, "-1"},
      {5, "nan"}, {5, "-0.5"}, {5, "0x1p-3"}, {6, "2"}, {7, "-1"}};
  for (const auto& [field, value] : cases) {
    load_error(with_header_field(text, field, value), 2);
  }
}

TEST(Serialize, HeaderStencilCountNeverSizesTables) {
  // Tables are sized from the stencil records read. A claim of 10^15
  // stencils (petabytes of tables, a std::bad_alloc, had it been
  // allocated) is reported at the first record after the 6 stencils.
  const std::string text = serialized(make_dataset());
  const std::string what =
      load_error(with_header_field(text, 2, "1000000000000000"), 9);
  EXPECT_NE(what.find("stencil count mismatch (header says 1000000000000000, "
                      "file has 6)"),
            std::string::npos)
      << what;
  load_error(with_header_field(text, 2, "5"), 9);
  // A corpus that ends after its stencil records: the mismatch is located
  // at the last line.
  load_error(with_header_field(text.substr(0, line_start(text, 9)), 2, "7"),
             8);
  // No stencil record may follow the setting and time records.
  const auto lines = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
  load_error(text + "stencil 8192 8192 1 0 0:0:0\n", lines + 1);
}

/// `text` without its line that starts with `prefix`.
std::string without_line(std::string text, const std::string& prefix) {
  const std::size_t at = text.find('\n' + prefix);
  EXPECT_NE(at, std::string::npos) << prefix;
  return text.erase(at + 1, text.find('\n', at + 1) - at);
}

TEST(Serialize, RejectsTimeListsShorterOrLongerThanSettings) {
  // Each unit's time list pairs one-to-one with its settings; a short list
  // used to load and send RegressionTask past its end. The counts are
  // checked after the last record, so the error sits at the last line.
  const ProfileDataset ds = make_dataset();
  const std::size_t want = ds.settings[0][0].size();
  ASSERT_GE(want, 1u);
  const std::string text = serialized(ds);
  const auto last_line = [](const std::string& t) {
    return static_cast<std::size_t>(std::count(t.begin(), t.end(), '\n'));
  };
  const std::string unit = "unit (stencil 0, gpu 0, oc 0) has ";
  std::string bad = without_line(
      text, "time 0 0 0 " + std::to_string(want - 1) + ' ');
  std::string what = load_error(bad, last_line(bad));
  EXPECT_NE(what.find(unit + std::to_string(want - 1) +
                      " time records, want " + std::to_string(want) +
                      " (one per setting)"),
            std::string::npos)
      << what;
  for (std::size_t k = want - 1; k > 0; --k) {
    bad = without_line(bad, "time 0 0 0 " + std::to_string(k - 1) + ' ');
  }
  what = load_error(bad, last_line(bad));
  EXPECT_NE(what.find(unit + "0 time records"), std::string::npos) << what;
  // A setting with no time: the list is now one short.
  const std::string extra = text + "setting 0 0 32 8 1 0 1 0 0 0 0\n";
  what = load_error(extra, last_line(extra));
  EXPECT_NE(what.find(unit + std::to_string(want) + " time records, want " +
                      std::to_string(want + 1)),
            std::string::npos)
      << what;
  // Quarantined units carry one crash per setting and load.
  ProfileDataset quarantined = ds;
  quarantined.quarantined.push_back({0, 0, 0, "injected"});
  quarantined.times[0][0][0].assign(
      want, std::numeric_limits<double>::quiet_NaN());
  std::istringstream in(serialized(quarantined));
  EXPECT_EQ(load_dataset(in).quarantined, quarantined.quarantined);
}

TEST(Serialize, ShardCorpusUnitsCarryAllOrNoTimes) {
  // A shard corpus leaves units other shards own empty, so zero records is
  // legal there; a partial list is not.
  ProfileDataset ds = make_dataset();
  ds.shard = ShardSpec{0, 2};
  const std::size_t want = ds.settings[0][0].size();
  ds.times[0][0][0].clear();
  const std::string text = serialized(ds);
  std::istringstream in(text);
  EXPECT_TRUE(load_dataset(in).times[0][0][0].empty());

  ds.times[0][0][0] = make_dataset().times[0][0][0];
  const std::string bad = without_line(
      serialized(ds), "time 0 0 0 " + std::to_string(want - 1) + ' ');
  const std::string what = load_error(
      bad, static_cast<std::size_t>(std::count(bad.begin(), bad.end(), '\n')));
  EXPECT_NE(what.find("unit (stencil 0, gpu 0, oc 0) has " +
                      std::to_string(want - 1) + " time records, want " +
                      std::to_string(want) + " or 0"),
            std::string::npos)
      << what;
}

/// The fuzz seed: a small shard corpus (shard header) whose permanent
/// measurement faults left quar records with free-text reasons.
std::string fuzz_seed_corpus() {
  ProfileConfig cfg;
  cfg.dims = 2;
  cfg.num_stencils = 3;
  cfg.samples_per_oc = 1;
  cfg.seed = 4242;
  ProfileRunOptions opts;
  opts.shard = ShardSpec{1, 2};
  const util::ScopedFaultInjection faults("seed=3;measure:permanent:p=0.2");
  return serialized(build_profile_dataset(cfg, opts));
}

/// One seeded edit of the kinds a damaged or hand-edited corpus shows.
void mutate(std::string& text, util::Rng& rng) {
  if (text.empty()) {
    text.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    return;
  }
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::size_t at = pick(text.size());
  // The line holding byte `at`: [begin, end), end at its '\n' or the end.
  const std::size_t begin = at == 0 ? 0 : text.rfind('\n', at - 1) + 1;
  const std::size_t end = std::min(text.find('\n', at), text.size());
  switch (rng.uniform_int(0, 6)) {
    case 0:  // byte flip
      text[at] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    case 1: {  // digit edit
      const char digit = static_cast<char>('0' + rng.uniform_int(0, 9));
      const std::size_t d = text.find_first_of("0123456789", at);
      if (d == std::string::npos) {
        text.insert(at, 1, digit);
      } else {
        text[d] = digit;
      }
      break;
    }
    case 2: {  // token deletion
      std::vector<std::pair<std::size_t, std::size_t>> tokens;
      for (std::size_t i = begin; i < end;) {
        const std::size_t stop = std::min(text.find(' ', i), end);
        if (stop > i) tokens.emplace_back(i, stop);
        i = stop + 1;
      }
      if (tokens.empty()) break;
      const auto [first, last] = tokens[pick(tokens.size())];
      const std::size_t from = first > begin ? first - 1 : first;
      text.erase(from, last - from);
      break;
    }
    case 3:  // line duplication
      text.insert(begin, text.substr(begin, end - begin) + '\n');
      break;
    case 4:  // line deletion
      text.erase(begin, end - begin + 1);
      break;
    case 5:  // truncation
      text.resize(at);
      break;
    default: {  // header stencil count
      static const char* const kCounts[] = {
          "0", "2", "4", "1000000000000000", "18446744073709551615",
          "18446744073709551616", "-1", "3x", ""};
      const std::size_t header = text.find('\n');
      if (header == std::string::npos) break;
      std::size_t field = header + 1;
      for (int f = 0; f < 2 && field != std::string::npos; ++f) {
        field = text.find(' ', field);
        if (field != std::string::npos) ++field;
      }
      if (field == std::string::npos) break;
      const std::size_t stop = std::min(text.find_first_of(" \n", field),
                                        text.size());
      text.replace(field, stop - field, kCounts[pick(std::size(kCounts))]);
      break;
    }
  }
}

/// True when `what` starts with "<source>:<line>: " for a line in
/// [1, max_line].
bool located(const std::string& what, const std::string& source,
             std::size_t max_line) {
  if (what.rfind(source + ':', 0) != 0) return false;
  std::size_t i = source.size() + 1;
  std::size_t line = 0;
  const std::size_t digits_from = i;
  while (i < what.size() && what[i] >= '0' && what[i] <= '9') {
    line = line * 10 + static_cast<std::size_t>(what[i++] - '0');
  }
  return i > digits_from && line >= 1 && line <= max_line &&
         what.compare(i, 2, ": ") == 0;
}

TEST(Serialize, MutationFuzzFailsLocatedOrRoundTrips) {
  // Every mutant either fails with a std::runtime_error located at one of
  // its lines, or loads to a dataset whose save -> load -> save is
  // byte-stable with an unchanged checksum. No other exception may escape.
  const std::string seed = fuzz_seed_corpus();
  ASSERT_NE(seed.find("\nshard 1 2 "), std::string::npos);
  ASSERT_NE(seed.find("\nquar "), std::string::npos);
  util::Rng rng(20261017);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text = seed;
    for (auto edits = rng.uniform_int(1, 3); edits > 0; --edits) {
      mutate(text, rng);
    }
    const auto lines = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
    std::istringstream in(text);
    try {
      const ProfileDataset loaded = load_dataset(in, "fuzz.txt");
      const std::string once = serialized(loaded);
      std::istringstream again(once);
      const ProfileDataset reloaded = load_dataset(again, "resaved.txt");
      ASSERT_EQ(serialized(reloaded), once) << "mutant " << iter;
      ASSERT_EQ(dataset_checksum(reloaded), dataset_checksum(loaded))
          << "mutant " << iter;
      ++accepted;
    } catch (const std::runtime_error& e) {
      ASSERT_TRUE(located(e.what(), "fuzz.txt", lines + 1))
          << "mutant " << iter << ": " << e.what();
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << iter << " escaped as a non-runtime_error: "
             << e.what();
    }
  }
  // Both outcomes are common, so neither half of the contract is vacuous.
  EXPECT_GT(accepted, 200);
  EXPECT_GT(rejected, 200);
}

}  // namespace
}  // namespace smart::core
