#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "util/timing.hpp"

namespace smart::cli {
namespace {

CommandLine parse(std::initializer_list<std::string> args) {
  return parse_command_line(std::vector<std::string>(args));
}

TEST(CliParse, SubcommandAndOptions) {
  const auto cmd = parse({"generate", "--dims", "3", "--count", "7"});
  EXPECT_EQ(cmd.command, "generate");
  EXPECT_EQ(cmd.get_int("dims", 0), 3);
  EXPECT_EQ(cmd.get_int("count", 0), 7);
  EXPECT_EQ(cmd.get("missing", "x"), "x");
  EXPECT_TRUE(cmd.has("dims"));
  EXPECT_FALSE(cmd.has("seed"));
}

TEST(CliParse, EmptyIsAllowed) {
  const auto cmd = parse({});
  EXPECT_TRUE(cmd.command.empty());
}

TEST(CliParse, RejectsMalformedInput) {
  EXPECT_THROW(parse({"--dims", "2"}), std::invalid_argument);
  EXPECT_THROW(parse({"generate", "stray"}), std::invalid_argument);
  EXPECT_THROW(parse({"generate", "--dims"}), std::invalid_argument);
  EXPECT_THROW(parse({"generate", "--dims", "--count"}), std::invalid_argument);
}

TEST(CliRun, UnknownCommandPrintsUsage) {
  std::ostringstream out;
  EXPECT_EQ(run_command(parse({"frobnicate"}), out), 2);
  EXPECT_NE(out.str().find("smartctl"), std::string::npos);
}

TEST(CliRun, HelpIsSuccess) {
  std::ostringstream out;
  EXPECT_EQ(run_command(parse({"help"}), out), 0);
}

TEST(CliRun, OcsListsThirty) {
  std::ostringstream out;
  EXPECT_EQ(run_command(parse({"ocs"}), out), 0);
  EXPECT_NE(out.str().find("ST_RT_PR_TB"), std::string::npos);
}

TEST(CliRun, GpusListsTableIII) {
  std::ostringstream out;
  EXPECT_EQ(run_command(parse({"gpus"}), out), 0);
  EXPECT_NE(out.str().find("2080Ti"), std::string::npos);
  EXPECT_NE(out.str().find("1555"), std::string::npos);
}

TEST(CliRun, GenerateEmitsRequestedCount) {
  std::ostringstream out;
  EXPECT_EQ(run_command(parse({"generate", "--dims", "2", "--order", "2",
                               "--count", "4", "--seed", "9"}),
                        out),
            0);
  int lines = 0;
  for (char c : out.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);
}

TEST(CliRun, FeaturesPrintsTableII) {
  std::ostringstream out;
  EXPECT_EQ(run_command(parse({"features", "--shape", "box", "--dims", "2",
                               "--order", "2"}),
                        out),
            0);
  EXPECT_NE(out.str().find("nnzRatio_order-1"), std::string::npos);
}

TEST(CliRun, CodegenEmitsKernel) {
  std::ostringstream out;
  EXPECT_EQ(run_command(parse({"codegen", "--shape", "star", "--dims", "2",
                               "--order", "1", "--oc", "ST_RT"}),
                        out),
            0);
  EXPECT_NE(out.str().find("__global__"), std::string::npos);
  EXPECT_NE(out.str().find("retiming"), std::string::npos);
}

TEST(CliRun, CodegenRejectsUnknownOc) {
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"codegen", "--oc", "WAT"}), out),
               std::invalid_argument);
}

TEST(CliRun, ProfileReportsCounts) {
  std::ostringstream out;
  EXPECT_EQ(run_command(parse({"profile", "--dims", "2", "--stencils", "6",
                               "--samples", "2"}),
                        out),
            0);
  EXPECT_NE(out.str().find("profiled 6 stencils"), std::string::npos);
}

TEST(CliRun, ProfileSavesCorpus) {
  std::ostringstream out;
  const std::string path = testing::TempDir() + "smartctl_corpus.txt";
  EXPECT_EQ(run_command(parse({"profile", "--dims", "2", "--stencils", "6",
                               "--samples", "2", "--out", path}),
                        out),
            0);
  EXPECT_NE(out.str().find("saved to"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliRun, AdviseEndToEnd) {
  std::ostringstream out;
  EXPECT_EQ(run_command(parse({"advise", "--shape", "star", "--dims", "2",
                               "--order", "2", "--gpu", "V100", "--stencils",
                               "16"}),
                        out),
            0);
  EXPECT_NE(out.str().find("group"), std::string::npos);
  EXPECT_NE(out.str().find("fastest GPU"), std::string::npos);
}

TEST(CliParse, StrictIntegerOptions) {
  // A half-parsed "--count 2x" used to silently become 2 via atoi; strict
  // parsing must reject it, along with empty values and overflow.
  EXPECT_THROW(parse({"generate", "--count", "2x"}).get_int("count", 0),
               std::invalid_argument);
  EXPECT_THROW(parse({"generate", "--count", "x2"}).get_int("count", 0),
               std::invalid_argument);
  EXPECT_THROW(
      parse({"generate", "--count", "99999999999999"}).get_int("count", 0),
      std::invalid_argument);
  EXPECT_EQ(parse({"generate", "--count", "-3"}).get_int("count", 0), -3);
  EXPECT_EQ(parse({"generate"}).get_int("count", 7), 7);
}

TEST(CliParse, StrictU64SeedOptions) {
  EXPECT_EQ(parse({"generate", "--seed", "42"}).get_u64("seed", 0), 42u);
  // Seeds above INT64_MAX are valid u64 values.
  EXPECT_EQ(
      parse({"generate", "--seed", "12297829382473034410"}).get_u64("seed", 0),
      12297829382473034410ull);
  EXPECT_THROW(parse({"generate", "--seed", "-1"}).get_u64("seed", 0),
               std::invalid_argument);
  EXPECT_THROW(
      parse({"generate", "--seed", "99999999999999999999"}).get_u64("seed", 0),
      std::invalid_argument);
  EXPECT_THROW(parse({"generate", "--seed", "7up"}).get_u64("seed", 0),
               std::invalid_argument);
  EXPECT_EQ(parse({"generate"}).get_u64("seed", 5), 5u);
}

TEST(CliParse, BooleanFlagsWorkWithoutValue) {
  // --resume/--checksum/--timing may appear bare (end of line or followed
  // by another option) and still accept an explicit value.
  const auto bare = parse({"profile", "--resume", "--checksum", "--timing"});
  EXPECT_EQ(bare.get_int("resume", 0), 1);
  EXPECT_EQ(bare.get_int("checksum", 0), 1);
  EXPECT_EQ(bare.get_int("timing", 0), 1);
  const auto mixed = parse({"profile", "--resume", "--journal", "j.txt",
                            "--checksum", "0"});
  EXPECT_EQ(mixed.get_int("resume", 0), 1);
  EXPECT_EQ(mixed.get("journal", ""), "j.txt");
  EXPECT_EQ(mixed.get_int("checksum", 1), 0);
  // Non-whitelisted options still require a value.
  EXPECT_THROW(parse({"profile", "--out"}), std::invalid_argument);
  EXPECT_THROW(parse({"profile", "--out", "--resume"}), std::invalid_argument);
}

TEST(CliRun, ProfileResumeRequiresJournal) {
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"profile", "--resume"}), out),
               std::invalid_argument);
}

TEST(CliRun, ProfileRejectsNegativeRetries) {
  std::ostringstream out;
  EXPECT_THROW(
      run_command(parse({"profile", "--retries", "-1"}), out),
      std::invalid_argument);
}

TEST(CliRun, ProfileRejectsMalformedFaultSpec) {
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"profile", "--faults", "bogus:p=0.5"}), out),
               std::invalid_argument);
}

TEST(CliRun, ProfileFaultsAndResumeEndToEnd) {
  const std::string jpath = testing::TempDir() + "smartctl_cli_journal.txt";
  std::remove(jpath.c_str());

  // Transient faults retried in-run: checksum matches the fault-free run.
  std::ostringstream clean;
  ASSERT_EQ(run_command(parse({"profile", "--dims", "2", "--stencils", "6",
                               "--samples", "2", "--checksum"}),
                        clean),
            0);
  std::ostringstream faulty;
  ASSERT_EQ(run_command(parse({"profile", "--dims", "2", "--stencils", "6",
                               "--samples", "2", "--checksum", "--faults",
                               "seed=13;measure:transient:p=0.1"}),
                        faulty),
            0);
  const auto checksum_line = [](const std::string& text) {
    const auto at = text.find("checksum ");
    return text.substr(at, text.find('\n', at) - at);
  };
  EXPECT_EQ(checksum_line(faulty.str()), checksum_line(clean.str()));

  // A journaled run resumes to the same checksum and reports the replay.
  std::ostringstream first;
  ASSERT_EQ(run_command(parse({"profile", "--dims", "2", "--stencils", "6",
                               "--samples", "2", "--journal", jpath}),
                        first),
            0);
  std::ostringstream resumed;
  ASSERT_EQ(run_command(parse({"profile", "--dims", "2", "--stencils", "6",
                               "--samples", "2", "--journal", jpath,
                               "--resume", "--checksum"}),
                        resumed),
            0);
  EXPECT_NE(resumed.str().find("resumed "), std::string::npos);
  EXPECT_EQ(checksum_line(resumed.str()), checksum_line(clean.str()));

  std::remove(jpath.c_str());
}

TEST(CliRun, TrainRequiresOut) {
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"train"}), out), std::invalid_argument);
}

TEST(CliRun, AdviseRejectsModelPlusCorpus) {
  std::ostringstream out;
  EXPECT_THROW(
      run_command(parse({"advise", "--model", "m.smart", "--corpus", "c.txt"}),
                  out),
      std::invalid_argument);
}

TEST(CliRun, TrainServeRoundTripMatchesCorpusTraining) {
  const std::string corpus = testing::TempDir() + "smartctl_rt_corpus.txt";
  const std::string model = testing::TempDir() + "smartctl_rt_model.smart";
  std::ostringstream scratch;
  ASSERT_EQ(run_command(parse({"profile", "--dims", "2", "--stencils", "6",
                               "--samples", "2", "--out", corpus}),
                        scratch),
            0);
  ASSERT_EQ(run_command(
                parse({"train", "--corpus", corpus, "--out", model}), scratch),
            0);
  EXPECT_NE(scratch.str().find("model saved to"), std::string::npos);

  // Serving the artifact must print byte-identical advice to training from
  // the corpus in-process (the acceptance contract for train-once/serve-many).
  std::ostringstream from_corpus;
  ASSERT_EQ(run_command(parse({"advise", "--shape", "star", "--dims", "2",
                               "--order", "2", "--gpu", "V100", "--corpus",
                               corpus}),
                        from_corpus),
            0);
  std::ostringstream from_model;
  util::timing_reset();
  ASSERT_EQ(run_command(parse({"advise", "--shape", "star", "--dims", "2",
                               "--order", "2", "--gpu", "V100", "--model",
                               model, "--timing", "1"}),
                        from_model),
            0);
  const std::string serve_text = from_model.str();
  EXPECT_EQ(serve_text.substr(0, from_corpus.str().size()), from_corpus.str());

  // The serve side must not profile or fit anything: only deserialization
  // and inference phases may appear in the timing report.
  EXPECT_NE(serve_text.find("serialize.load"), std::string::npos);
  EXPECT_EQ(serve_text.find("profile."), std::string::npos);
  EXPECT_EQ(serve_text.find(".fit"), std::string::npos);

  // A query whose dimensionality disagrees with the artifact is refused.
  std::ostringstream mismatch;
  EXPECT_THROW(run_command(parse({"advise", "--shape", "star", "--dims", "3",
                                  "--order", "2", "--model", model}),
                           mismatch),
               std::runtime_error);

  std::remove(corpus.c_str());
  std::remove(model.c_str());
}

// Serve flag validation happens BEFORE the model load: every case below
// must throw std::invalid_argument (exit 2, usage text) without touching
// the filesystem — none of these model paths exist.
TEST(CliRun, ServeRequiresModel) {
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"serve"}), out), std::invalid_argument);
  EXPECT_THROW(run_command(parse({"serve", "--stdio"}), out),
               std::invalid_argument);
}

TEST(CliRun, ServeRejectsSocketPlusStdio) {
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"serve", "--model", "m.smart", "--socket",
                                  "/tmp/s.sock", "--stdio"}),
                           out),
               std::invalid_argument);
}

TEST(CliRun, ServeValidatesBatchingKnobs) {
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"serve", "--model", "m.smart", "--stdio",
                                  "--max-batch", "0"}),
                           out),
               std::invalid_argument);
  EXPECT_THROW(run_command(parse({"serve", "--model", "m.smart", "--stdio",
                                  "--max-batch", "5000"}),
                           out),
               std::invalid_argument);
  EXPECT_THROW(run_command(parse({"serve", "--model", "m.smart", "--stdio",
                                  "--max-wait-us", "-1"}),
                           out),
               std::invalid_argument);
  EXPECT_THROW(run_command(parse({"serve", "--model", "m.smart", "--stdio",
                                  "--max-batch", "2x"}),
                           out),
               std::invalid_argument);
}

TEST(CliRun, ServeValidatesRobustnessKnobs) {
  // The PR 10 knobs: queue bound, deadline, connection capacity and
  // per-session limits all validate before any model I/O.
  std::ostringstream out;
  const auto reject = [&](const char* mode, std::vector<std::string> extra) {
    std::vector<std::string> argv = {"serve", "--model", "m.smart"};
    if (std::string(mode) == "--stdio") {
      argv.push_back(mode);
    } else {
      argv.insert(argv.end(), {mode, "/nonexistent/s.sock"});
    }
    argv.insert(argv.end(), extra.begin(), extra.end());
    EXPECT_THROW(run_command(parse_command_line(argv), out),
                 std::invalid_argument)
        << mode << " accepted: " << extra[0] << ' ' << extra[1];
  };
  reject("--stdio", {"--max-queue", "0"});
  reject("--stdio", {"--max-queue", "9999999"});
  reject("--stdio", {"--max-queue", "1k"});
  reject("--stdio", {"--deadline-us", "-1"});
  reject("--stdio", {"--deadline-us", "fast"});
  reject("--socket", {"--max-conns", "0"});
  reject("--socket", {"--max-conns", "100000"});
  reject("--stdio", {"--max-inflight", "0"});
  reject("--stdio", {"--idle-timeout-ms", "-5"});
  reject("--socket", {"--write-timeout-ms", "-5"});
  // stdin/stdout is one session: connection capacity and write timeouts
  // (O_NONBLOCK on the inherited stdout) are socket-only, at any value.
  reject("--stdio", {"--max-conns", "4"});
  reject("--stdio", {"--write-timeout-ms", "100"});
}

TEST(CliRun, ServeMissingModelFileIsRuntimeError) {
  // Past flag validation, a nonexistent artifact is the PR 5 runtime-error
  // contract (exit 1, one-line smartctl: error:), not a usage error.
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"serve", "--model",
                                  "/nonexistent/model.smart", "--stdio"}),
                           out),
               std::runtime_error);
}

TEST(CliRun, UsageMentionsServe) {
  std::ostringstream out;
  run_command(parse({"help"}), out);
  EXPECT_NE(out.str().find("serve"), std::string::npos);
  EXPECT_NE(out.str().find("--max-batch"), std::string::npos);
}

TEST(CliParse, MergeTakesPositionalOperandsOtherCommandsDoNot) {
  const auto cmd = parse({"merge", "--out", "full.txt", "a.txt", "b.txt"});
  EXPECT_EQ(cmd.command, "merge");
  EXPECT_EQ(cmd.get("out", ""), "full.txt");
  ASSERT_EQ(cmd.positional.size(), 2u);
  EXPECT_EQ(cmd.positional[0], "a.txt");
  EXPECT_EQ(cmd.positional[1], "b.txt");
  // Everywhere else a bare token stays a loud parse error.
  EXPECT_THROW(parse({"profile", "a.txt"}), std::invalid_argument);
}

TEST(CliRun, ProfileRejectsMalformedShardGrammar) {
  // Strict i/N grammar: out-of-range i, N=0, non-numeric, trailing junk,
  // missing halves, sign characters — all usage errors before any work.
  std::ostringstream out;
  for (const char* bad : {"2/2", "3/2", "1/0", "0/0", "x/3", "1/3junk",
                          "1/", "/3", "-1/3", "+1/3", "1//3", "1 /3", ""}) {
    EXPECT_THROW(
        run_command(parse({"profile", "--shard", std::string(bad)}), out),
        std::invalid_argument)
        << "accepted '" << bad << "'";
  }
}

TEST(CliRun, ProfilePlanRequiresShard) {
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"profile", "--plan"}), out),
               std::invalid_argument);
}

TEST(CliRun, ProfileShardPlanPrintsCountsWithoutMeasuring) {
  std::ostringstream out;
  EXPECT_EQ(run_command(parse({"profile", "--dims", "2", "--stencils", "6",
                               "--samples", "2", "--seed", "99", "--shard",
                               "1/3", "--plan"}),
                        out),
            0);
  EXPECT_NE(out.str().find("plan:"), std::string::npos);
  EXPECT_NE(out.str().find("no measurements were run"), std::string::npos);
  EXPECT_EQ(out.str().find("profiled"), std::string::npos);
}

TEST(CliRun, MergeRequiresOutAndOperands) {
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"merge", "a.txt"}), out),
               std::invalid_argument);
  EXPECT_THROW(run_command(parse({"merge", "--out", "full.txt"}), out),
               std::invalid_argument);
}

TEST(CliRun, MergeMissingShardFileIsRuntimeError) {
  std::ostringstream out;
  EXPECT_THROW(run_command(parse({"merge", "--out", "full.txt",
                                  "/nonexistent/shard0.txt"}),
                           out),
               std::runtime_error);
}

TEST(CliRun, ShardSweepAndMergeEndToEnd) {
  // Fleet recipe through the CLI: three shard sweeps, merge, and the merged
  // checksum equals the single-process run's.
  const std::string dir = testing::TempDir();
  const auto shard_file = [&](int i) {
    return dir + "smartctl_cli_shard" + std::to_string(i) + ".txt";
  };
  const std::string merged = dir + "smartctl_cli_merged.txt";

  std::ostringstream single;
  ASSERT_EQ(run_command(parse({"profile", "--dims", "2", "--stencils", "6",
                               "--samples", "2", "--seed", "99",
                               "--checksum"}),
                        single),
            0);
  for (int i = 0; i < 3; ++i) {
    std::ostringstream out;
    ASSERT_EQ(run_command(parse({"profile", "--dims", "2", "--stencils", "6",
                                 "--samples", "2", "--seed", "99", "--shard",
                                 std::to_string(i) + "/3", "--out",
                                 shard_file(i)}),
                          out),
              0);
    // The coverage summary names the shard and its owned-unit share.
    EXPECT_NE(out.str().find("shard " + std::to_string(i) + "/3: owned "),
              std::string::npos);
  }
  std::ostringstream merge_out;
  ASSERT_EQ(run_command(parse({"merge", "--out", merged, shard_file(0),
                               shard_file(1), shard_file(2), "--checksum"}),
                        merge_out),
            0);
  const auto checksum_line = [](const std::string& text) {
    const auto at = text.find("checksum ");
    return text.substr(at, text.find('\n', at) - at);
  };
  EXPECT_EQ(checksum_line(merge_out.str()), checksum_line(single.str()));

  // Feeding the merge an incomplete partition is the rc-1 contract.
  std::ostringstream bad;
  EXPECT_THROW(run_command(parse({"merge", "--out", merged, shard_file(0),
                                  shard_file(1)}),
                           bad),
               std::runtime_error);
  for (int i = 0; i < 3; ++i) std::remove(shard_file(i).c_str());
  std::remove(merged.c_str());
}

TEST(CliRun, UnknownOptionIsUsageErrorForEverySubcommand) {
  // A typo must fail loudly (rc 2 + usage) instead of running with the
  // default; none of these paths exist, so the check precedes any I/O.
  const std::vector<std::vector<std::string>> typos = {
      {"generate", "--cuont", "3"},
      {"profile", "--stencil", "6"},
      {"merge", "--out", "full.txt", "--checksun", "1", "a.txt"},
      {"ocs", "--all", "1"},
      {"gpus", "--bogus", "1"},
      {"train", "--out", "m.smart", "--corpse", "c.txt"},
      {"advise", "--model", "m.smart", "--gpus", "V100"},
      {"advise", "--model", "m.smart", "--precision", "f64"},
      {"serve", "--model", "m.smart", "--stdio", "--max-bach", "8"},
      {"serve", "--model", "m.smart", "--stdio", "--simd", "0"},
      {"serve", "--model", "m.smart", "--stdio", "--precision", "f32"},
      {"serve", "--model", "m.smart", "--socket", "s.sock", "--faults",
       "seed=3;read:p=0.25"},
      {"codegen", "--oc", "ST", "--out", "dir"},
      {"features", "--shape", "box", "--order", "2", "--dim", "3"},
  };
  for (const auto& argv : typos) {
    std::ostringstream out;
    try {
      run_command(parse_command_line(argv), out);
      ADD_FAILURE() << argv[0] << ": accepted an unknown option";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(argv[0] + ": unknown option --"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CliRun, KnownOptionsPassTheCheck) {
  // Every option a subcommand reads is accepted: with a missing file the
  // run gets as far as the I/O and fails with the runtime error instead.
  std::ostringstream out;
  EXPECT_THROW(
      run_command(parse({"serve", "--model", "/nonexistent/m.smart", "--stdio",
                         "--max-batch", "8", "--max-wait-us", "200",
                         "--max-queue", "64", "--deadline-us", "0",
                         "--max-inflight", "16", "--idle-timeout-ms", "0",
                         "--timing", "1"}),
                  out),
      std::runtime_error);
  EXPECT_THROW(
      run_command(parse({"serve", "--model", "/nonexistent/m.smart",
                         "--socket", "/nonexistent/s.sock", "--max-inflight",
                         "16", "--max-conns", "4", "--write-timeout-ms", "0"}),
                  out),
      std::runtime_error);
  EXPECT_THROW(
      run_command(parse({"advise", "--shape", "star", "--dims", "2", "--order",
                         "2", "--gpu", "V100", "--model",
                         "/nonexistent/m.smart", "--stencils", "8",
                         "--seed", "3", "--timing", "1"}),
                  out),
      std::runtime_error);
  EXPECT_THROW(run_command(parse({"train", "--corpus", "/nonexistent/c.txt",
                                  "--out", "m.smart", "--dims", "2",
                                  "--stencils", "8", "--seed", "3",
                                  "--timing", "1"}),
                           out),
               std::runtime_error);
  EXPECT_THROW(run_command(parse({"merge", "--out", "full.txt", "--checksum",
                                  "--timing", "1", "/nonexistent/s0.txt"}),
                           out),
               std::runtime_error);
}

TEST(CliRun, OnlyStdioServeAnswersOnStdout) {
  EXPECT_TRUE(stdout_is_protocol(parse({"serve", "--model", "m", "--stdio"})));
  EXPECT_TRUE(stdout_is_protocol(parse({"serve", "--model", "m"})));
  EXPECT_FALSE(stdout_is_protocol(
      parse({"serve", "--model", "m", "--socket", "/tmp/s.sock"})));
  EXPECT_FALSE(stdout_is_protocol(parse({"advise", "--model", "m"})));
}

TEST(CliRun, UsageMentionsShardAndMerge) {
  std::ostringstream out;
  run_command(parse({"help"}), out);
  EXPECT_NE(out.str().find("--shard i/N"), std::string::npos);
  EXPECT_NE(out.str().find("merge"), std::string::npos);
}

}  // namespace
}  // namespace smart::cli
