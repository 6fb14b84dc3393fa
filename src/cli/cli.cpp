#include "cli/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "codegen/cuda_codegen.hpp"
#include "core/corpus_merge.hpp"
#include "core/mart.hpp"
#include "core/serialize.hpp"
#include "core/serve_daemon.hpp"
#include "core/stencilmart.hpp"
#include "stencil/features.hpp"
#include "stencil/tensor_repr.hpp"
#include "util/fault.hpp"
#include "util/serialize_io.hpp"
#include "util/table.hpp"
#include "util/task_pool.hpp"
#include "util/timing.hpp"

namespace smart::cli {

namespace {

/// Rejects every option the subcommand does not read. Each subcommand calls
/// this first with the options it reads, so a typo (`--max-bach 8`) is a
/// usage error before any file is read instead of a silently ignored flag.
void known_options(const CommandLine& cmd,
                   std::initializer_list<std::string_view> keys) {
  for (const auto& [key, value] : cmd.options) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      throw std::invalid_argument(cmd.command + ": unknown option --" + key);
    }
  }
}

stencil::StencilPattern shape_from_options(const CommandLine& cmd) {
  const std::string shape = cmd.get("shape", "star");
  const int dims = cmd.get_int("dims", 2);
  const int order = cmd.get_int("order", 2);
  if (shape == "box") return stencil::make_box(dims, order);
  if (shape == "cross") return stencil::make_cross(dims, order);
  if (shape == "star") return stencil::make_star(dims, order);
  throw std::invalid_argument("unknown --shape '" + shape +
                              "' (star|box|cross)");
}

int cmd_generate(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {"dims", "order", "count", "seed"});
  stencil::GeneratorConfig config;
  config.dims = cmd.get_int("dims", 2);
  config.order = cmd.get_int("order", 4);
  const stencil::RandomStencilGenerator generator(config);
  util::Rng rng(cmd.get_u64("seed", 1));
  const int count = cmd.get_int("count", 3);
  for (int i = 0; i < count; ++i) {
    const auto pattern = generator.generate(rng);
    out << pattern.name() << "  nnz=" << pattern.size() << "  offsets:";
    for (const auto& p : pattern.offsets()) {
      out << ' ' << p.to_string(pattern.dims());
    }
    out << '\n';
  }
  return 0;
}

/// Strict `--shard i/N` grammar: two full decimal tokens around one '/',
/// N >= 1, i < N. Everything else — "2/2", "x/3", "1/3junk", "1/", "/3",
/// "-1/3", "1/0" — is a usage error (rc 2 + usage text), caught before any
/// expensive work.
core::ShardSpec parse_shard_option(const std::string& text) {
  const auto reject = [&text]() -> void {
    throw std::invalid_argument("profile: --shard must be i/N with 0 <= i < N "
                                "(got '" + text + "')");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) reject();
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  if (!util::parse_u64_strict(text.substr(0, slash), index) ||
      !util::parse_u64_strict(text.substr(slash + 1), count)) {
    reject();
  }
  if (count == 0 || index >= count) reject();
  return core::ShardSpec{static_cast<std::size_t>(index),
                         static_cast<std::size_t>(count)};
}

/// `profile --shard i/N --plan`: the fleet-planning view. Runs only the
/// cheap stencil-generation stage and prints every shard's owned-unit
/// count, so operators can sanity-check partition balance before paying
/// for N real sweeps.
int shard_plan(const core::ProfileConfig& config, const core::ShardSpec& shard,
               std::ostream& out) {
  const auto counts = core::shard_unit_counts(config, shard.count);
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  util::Table table({"shard", "units", "share"});
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::string label = std::to_string(i) + "/" + std::to_string(shard.count);
    if (i == shard.index) label += " *";
    table.row()
        .add(label)
        .add(static_cast<long long>(counts[i]))
        .add(total > 0 ? 100.0 * static_cast<double>(counts[i]) /
                             static_cast<double>(total)
                       : 0.0,
             1);
  }
  table.print(out);
  out << "plan: " << total << " work units over " << shard.count
      << " shards (ideal " << total / shard.count
      << " per shard); no measurements were run\n";
  return 0;
}

int cmd_profile(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {"dims", "stencils", "samples", "seed", "journal",
                      "resume", "retries", "shard", "plan", "faults",
                      "checksum", "timing", "out"});
  core::ProfileConfig config;
  config.dims = cmd.get_int("dims", 2);
  config.num_stencils = cmd.get_int("stencils", 40);
  config.samples_per_oc = cmd.get_int("samples", 4);
  config.seed = cmd.get_u64("seed", 1234);

  core::ProfileRunOptions run;
  run.journal_path = cmd.get("journal", "");
  run.resume = cmd.get_int("resume", 0) != 0;
  run.retries = cmd.get_int("retries", run.retries);
  if (cmd.has("shard")) run.shard = parse_shard_option(cmd.get("shard", ""));
  if (run.resume && run.journal_path.empty()) {
    throw std::invalid_argument("profile: --resume requires --journal FILE");
  }
  if (run.retries < 0) {
    throw std::invalid_argument("profile: --retries must be >= 0");
  }
  if (cmd.get_int("plan", 0) != 0) {
    if (!cmd.has("shard")) {
      throw std::invalid_argument("profile: --plan requires --shard i/N");
    }
    return shard_plan(config, run.shard, out);
  }
  // --faults scopes the injected schedule to this run; it overrides (and on
  // exit restores) any SMART_FAULTS environment spec.
  std::optional<util::ScopedFaultInjection> faults;
  if (cmd.has("faults")) {
    faults.emplace(util::parse_fault_spec(cmd.get("faults", "")));
  }

  const auto dataset = core::build_profile_dataset(config, run);
  out << "profiled " << dataset.stencils.size() << " stencils x "
      << core::ProfileDataset::num_ocs() << " OCs x "
      << dataset.num_gpus() << " GPUs (" << dataset.num_instances()
      << " instances, " << util::parallel_threads() << " threads)\n";
  if (run.shard.sharded()) {
    const std::size_t total = dataset.stencils.size() *
                              core::ProfileDataset::num_ocs() *
                              dataset.num_gpus();
    out << "shard " << run.shard.index << '/' << run.shard.count << ": owned "
        << dataset.owned_units << "/" << total << " units ("
        << util::format_double(total > 0 ? 100.0 *
                                               static_cast<double>(
                                                   dataset.owned_units) /
                                               static_cast<double>(total)
                                         : 0.0,
                               1)
        << "% of the sweep; ideal " << total / run.shard.count << ")\n";
  }
  if (dataset.resumed_units > 0) {
    out << "resumed " << dataset.resumed_units << " completed units from "
        << run.journal_path << '\n';
  }
  if (!dataset.quarantined.empty()) {
    out << "quarantined " << dataset.quarantined.size()
        << " units (kept as crash entries in the corpus)\n";
  }
  if (cmd.get_int("checksum", 0) != 0) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(core::dataset_checksum(dataset)));
    out << "checksum " << digest << '\n';
  }
  if (cmd.get_int("timing", 0) != 0) out << util::timing_report();
  if (cmd.has("out")) {
    core::save_dataset(dataset, cmd.get("out", ""));
    out << "saved to " << cmd.get("out", "") << '\n';
  }
  return 0;
}

/// `smartctl merge --out FILE SHARD...`: fold shard corpora back into the
/// single-run corpus. Validation (partition completeness, run identity,
/// ownership) lives in core::merge_shard_corpora; load errors carry
/// "<file>:<line>:" context from core::load_dataset. Both surface through
/// the PR 5 exit-code contract (rc 1, one-line `smartctl: error:`).
int cmd_merge(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {"out", "checksum", "timing"});
  if (!cmd.has("out")) {
    throw std::invalid_argument("merge: --out FILE is required");
  }
  if (cmd.positional.empty()) {
    throw std::invalid_argument(
        "merge: at least one shard corpus file is required");
  }
  std::vector<core::ProfileDataset> shards;
  shards.reserve(cmd.positional.size());
  for (const std::string& path : cmd.positional) {
    shards.push_back(core::load_dataset(path));
  }
  auto merged = core::merge_shard_corpora(std::move(shards), cmd.positional);
  core::save_dataset(merged, cmd.get("out", ""));
  out << "merged " << cmd.positional.size() << " shard"
      << (cmd.positional.size() == 1 ? "" : "s") << " -> "
      << cmd.get("out", "") << " (" << merged.stencils.size()
      << " stencils, " << merged.owned_units << " work units";
  if (!merged.quarantined.empty()) {
    out << ", " << merged.quarantined.size() << " quarantined";
  }
  out << ")\n";
  if (cmd.get_int("checksum", 0) != 0) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(core::dataset_checksum(merged)));
    out << "checksum " << digest << '\n';
  }
  if (cmd.get_int("timing", 0) != 0) out << util::timing_report();
  return 0;
}

int cmd_ocs(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {});
  util::Table table({"idx", "combination"});
  const auto& all = gpusim::valid_combinations();
  for (std::size_t i = 0; i < all.size(); ++i) {
    table.row().add(static_cast<long long>(i)).add(all[i].name());
  }
  table.print(out);
  return 0;
}

int cmd_gpus(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {});
  util::Table table({"GPU", "Mem(GB)", "BW(GB/s)", "SMs", "TFLOPS", "$/hr"});
  for (const auto& gpu : gpusim::evaluation_gpus()) {
    table.row()
        .add(gpu.name)
        .add(gpu.mem_gb, 0)
        .add(gpu.mem_bw_gbs, 0)
        .add(gpu.sms)
        .add(gpu.fp64_tflops, 2)
        .add(gpu.rental_usd_hr, 2);
  }
  table.print(out);
  return 0;
}

/// The shared train/advise MartConfig: both CLI paths must agree on every
/// field (notably the regression instance cap) so a model trained by
/// `smartctl train` predicts bit-identically to an in-process `advise
/// --corpus` run over the same corpus.
core::MartConfig mart_config(const CommandLine& cmd, int dims) {
  core::MartConfig config;
  config.profile.dims = dims;
  config.profile.num_stencils = cmd.get_int("stencils", 40);
  config.profile.seed = cmd.get_u64("seed", 99);
  config.regression.instance_cap = 3000;
  return config;
}

int cmd_train(const CommandLine& cmd, std::ostream& out) {
  // stencils and seed are read by mart_config().
  known_options(cmd, {"out", "corpus", "dims", "stencils", "seed", "timing"});
  if (!cmd.has("out")) {
    throw std::invalid_argument("train: --out FILE is required");
  }
  core::MartConfig config = mart_config(cmd, cmd.get_int("dims", 2));
  core::StencilMart mart(config);
  if (cmd.has("corpus")) {
    mart.train(core::load_dataset(cmd.get("corpus", "")));
  } else {
    mart.train();
  }
  core::save_model(mart, cmd.get("out", ""));
  out << "trained " << core::to_string(mart.config().regressor) << " on "
      << mart.dataset().stencils.size() << " stencils; model saved to "
      << cmd.get("out", "") << '\n';
  if (cmd.get_int("timing", 0) != 0) out << util::timing_report();
  return 0;
}

int cmd_advise(const CommandLine& cmd, std::ostream& out) {
  // shape/dims/order are read by shape_from_options(), stencils and seed
  // by mart_config().
  known_options(cmd, {"shape", "dims", "order", "gpu", "model", "corpus",
                      "stencils", "seed", "timing"});
  const auto pattern = shape_from_options(cmd);
  if (cmd.has("model") && cmd.has("corpus")) {
    throw std::invalid_argument(
        "advise: --model and --corpus are mutually exclusive");
  }

  std::optional<core::StencilMart> mart;
  if (cmd.has("model")) {
    // Serve-only path: no profiling, no training — just deserialize.
    mart.emplace(core::load_model(cmd.get("model", "")));
    if (mart->config().profile.dims != pattern.dims()) {
      throw std::runtime_error(
          "advise: the model was trained for " +
          std::to_string(mart->config().profile.dims) +
          "-D stencils but the query stencil is " +
          std::to_string(pattern.dims()) + "-D");
    }
  } else {
    mart.emplace(mart_config(cmd, pattern.dims()));
    if (cmd.has("corpus")) {
      // Train on the corpus's measured times (reproducible across calls,
      // and on real hardware: no re-profiling).
      auto dataset = core::load_dataset(cmd.get("corpus", ""));
      if (dataset.config.dims != pattern.dims()) {
        throw std::invalid_argument("corpus dimensionality mismatch");
      }
      mart->train(std::move(dataset));
    } else {
      mart->train();
    }
  }

  // One advise item, the daemon's path and its report formatter
  // (core::advise_report): serve replies must unescape to these bytes.
  const core::AdviseBatchItem item{pattern, cmd.get("gpu", "V100"),
                                   /*recommend=*/true};
  const core::AdviseBatchResult result = mart->advise_batch({&item, 1})[0];
  if (!result.ok()) throw std::runtime_error(result.error);
  out << core::advise_report(pattern, item.gpu, result.advice, result.rec);
  if (cmd.get_int("timing", 0) != 0) out << util::timing_report();
  return 0;
}

int cmd_serve(const CommandLine& cmd, std::ostream& out) {
  // Every flag is validated BEFORE the model load, so usage errors are
  // instant (and exit 2) instead of surfacing after seconds of deserializing.
  known_options(cmd, {"model", "socket", "stdio", "max-batch", "max-wait-us",
                      "max-queue", "deadline-us", "max-conns", "max-inflight",
                      "idle-timeout-ms", "write-timeout-ms", "timing"});
  if (!cmd.has("model")) {
    throw std::invalid_argument("serve: --model FILE is required");
  }
  if (cmd.get_int("stdio", 0) != 0 && cmd.has("socket")) {
    throw std::invalid_argument(
        "serve: --socket and --stdio are mutually exclusive");
  }
  core::DaemonOptions options;
  options.model_path = cmd.get("model", "");
  options.socket_path = cmd.get("socket", "");
  if (options.socket_path.empty()) {
    // stdin/stdout is one session: there are no connections to cap, and a
    // write timeout would set O_NONBLOCK on the stdout this process shares.
    for (const char* key : {"max-conns", "write-timeout-ms"}) {
      if (cmd.has(key)) {
        throw std::invalid_argument(std::string("serve: --") + key +
                                    " applies to --socket only");
      }
    }
  }
  core::ServeConfig& config = options.serve;
  config.max_batch = cmd.get_int("max-batch", 8);
  if (config.max_batch < 1 || config.max_batch > 4096) {
    throw std::invalid_argument("serve: --max-batch must be in [1, 4096]");
  }
  const int max_wait = cmd.get_int("max-wait-us", 200);
  if (max_wait < 0) {
    throw std::invalid_argument("serve: --max-wait-us must be >= 0");
  }
  config.max_wait_us = max_wait;
  const int max_queue = cmd.get_int("max-queue", 1024);
  if (max_queue < 1 || max_queue > (1 << 20)) {
    throw std::invalid_argument("serve: --max-queue must be in [1, 1048576]");
  }
  config.max_queue = static_cast<std::size_t>(max_queue);
  const int deadline_us = cmd.get_int("deadline-us", 0);
  if (deadline_us < 0) {
    throw std::invalid_argument("serve: --deadline-us must be >= 0");
  }
  config.deadline_us = deadline_us;
  options.max_conns = cmd.get_int("max-conns", 16);
  if (options.max_conns < 1 || options.max_conns > 1024) {
    throw std::invalid_argument("serve: --max-conns must be in [1, 1024]");
  }
  core::SessionLimits& limits = options.limits;
  limits.max_inflight = cmd.get_int("max-inflight", 1024);
  if (limits.max_inflight < 1 || limits.max_inflight > (1 << 20)) {
    throw std::invalid_argument(
        "serve: --max-inflight must be in [1, 1048576]");
  }
  limits.idle_timeout_ms = cmd.get_int("idle-timeout-ms", 0);
  if (limits.idle_timeout_ms < 0) {
    throw std::invalid_argument("serve: --idle-timeout-ms must be >= 0");
  }
  limits.write_timeout_ms = cmd.get_int("write-timeout-ms", 0);
  if (limits.write_timeout_ms < 0) {
    throw std::invalid_argument("serve: --write-timeout-ms must be >= 0");
  }
  options.timing = cmd.get_int("timing", 0) != 0;

  // In stdio mode stdout is the protocol stream: the startup banner (which
  // artifact is live) and the exit report go to stderr instead.
  core::run_daemon(options, stdout_is_protocol(cmd) ? std::cerr : out);
  return 0;
}

int cmd_codegen(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {"shape", "dims", "order", "oc", "seed"});
  const auto pattern = shape_from_options(cmd);
  const auto problem = gpusim::ProblemSize::paper_default(pattern.dims());

  gpusim::OptCombination oc;
  const std::string oc_name = cmd.get("oc", "ST");
  bool found = false;
  for (const auto& candidate : gpusim::valid_combinations()) {
    if (candidate.name() == oc_name) {
      oc = candidate;
      found = true;
      break;
    }
  }
  if (!found) throw std::invalid_argument("unknown --oc '" + oc_name + "'");

  const gpusim::ParamSpace space(oc, pattern.dims());
  util::Rng rng(cmd.get_u64("seed", 5));
  const auto setting = space.random_setting(rng);
  const codegen::CudaKernelGenerator generator;
  const auto kernel = generator.generate(pattern, oc, setting, problem);
  out << kernel.source;
  return 0;
}

int cmd_features(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {"shape", "dims", "order"});
  const auto pattern = shape_from_options(cmd);
  constexpr int kMaxOrder = 4;
  const auto features = stencil::extract_features(pattern, kMaxOrder);
  const auto names = stencil::FeatureSet::names(kMaxOrder);
  const auto values = features.to_vector();
  util::Table table({"feature", "value"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    table.row().add(names[i]).add(values[i], 4);
  }
  table.print(out);
  return 0;
}

}  // namespace

bool stdout_is_protocol(const CommandLine& cmd) {
  return cmd.command == "serve" && cmd.get("socket", "").empty();
}

std::string CommandLine::get(const std::string& key,
                             const std::string& fallback) const {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

int CommandLine::get_int(const std::string& key, int fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  long long value = 0;
  if (!util::parse_i64_strict(it->second, value) ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("option --" + key + ": invalid integer '" +
                                it->second + "'");
  }
  return static_cast<int>(value);
}

std::uint64_t CommandLine::get_u64(const std::string& key,
                                   std::uint64_t fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  std::uint64_t value = 0;
  if (!util::parse_u64_strict(it->second, value)) {
    throw std::invalid_argument("option --" + key +
                                ": invalid unsigned integer '" + it->second +
                                "'");
  }
  return value;
}

/// Options that may appear without a value (`--resume` ≡ `--resume 1`).
/// Everything else still requires an explicit value so a forgotten argument
/// (`--out --timing 1`) stays a parse error instead of silently eating the
/// next option.
bool is_boolean_flag(const std::string& key) {
  return key == "resume" || key == "checksum" || key == "timing" ||
         key == "stdio" || key == "plan";
}

CommandLine parse_command_line(const std::vector<std::string>& args) {
  CommandLine cmd;
  if (args.empty()) return cmd;
  if (args[0].starts_with("--")) {
    throw std::invalid_argument("expected a subcommand before options");
  }
  cmd.command = args[0];
  // Only merge takes positional operands (its shard files); everywhere else
  // a bare token is a typo and must stay a loud parse error.
  const bool allow_positional = cmd.command == "merge";
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (!args[i].starts_with("--")) {
      if (allow_positional) {
        cmd.positional.push_back(args[i]);
        continue;
      }
      throw std::invalid_argument("unexpected token '" + args[i] + "'");
    }
    const std::string key = args[i].substr(2);
    if (i + 1 >= args.size() || args[i + 1].starts_with("--")) {
      if (is_boolean_flag(key)) {
        cmd.options[key] = "1";
        continue;
      }
      throw std::invalid_argument("option --" + key + " needs a value");
    }
    cmd.options[key] = args[++i];
  }
  return cmd;
}

std::string usage() {
  return
      "smartctl — StencilMART command line\n"
      "  (SMART_THREADS caps the task pool; SMART_TIMING=1 prints counters;\n"
      "   unknown options exit 2)\n"
      "  generate --dims D --order N --count K [--seed S]   random stencils\n"
      "  profile  --dims D --stencils N [--out FILE]        build a corpus\n"
      "           [--checksum] [--timing]                   determinism digest\n"
      "           [--journal FILE [--resume]]               checkpoint + resume\n"
      "           [--retries N] [--faults SPEC]             fault injection\n"
      "           (SPEC: seed=N;measure:transient:p=P[:fails=K];\n"
      "                  measure:permanent:p=P;worker:p=P[:fails=K];io:p=P)\n"
      "           [--shard i/N [--plan]]                     sweep shard i of N\n"
      "                                                      (--plan: counts only)\n"
      "  merge    --out FILE SHARD... [--checksum] [--timing]\n"
      "           fold N shard corpora into the bit-identical single-run corpus\n"
      "  train    --out MODEL [--corpus FILE] [--timing 1]  fit + save a model\n"
      "  advise   --shape star|box|cross --dims D --order N\n"
      "           [--gpu NAME] [--corpus FILE] [--timing 1] best-OC advice\n"
      "           [--model MODEL]                           serve a saved model\n"
      "  serve    --model MODEL [--socket PATH | --stdio]   resident daemon\n"
      "           [--max-batch N] [--max-wait-us U] [--timing]\n"
      "           [--max-queue N] [--deadline-us U]          shedding\n"
      "           [--max-inflight N] [--idle-timeout-ms T]   per session\n"
      "           [--max-conns N] [--write-timeout-ms T]     --socket only\n"
      "           (line protocol: advise|predict|stats|ping|healthz|reload|shutdown;\n"
      "            batches concurrent requests, memoizes per stencil;\n"
      "            SIGHUP or `reload` hot-swaps the --model artifact)\n"
      "  codegen  --shape ... --dims D --order N --oc NAME  emit CUDA\n"
      "  features --shape ... --dims D --order N            Table II vector\n"
      "  ocs                                                Table I OCs\n"
      "  gpus                                               Table III GPUs\n";
}

int run_command(const CommandLine& cmd, std::ostream& out) {
  if (cmd.command == "generate") return cmd_generate(cmd, out);
  if (cmd.command == "profile") return cmd_profile(cmd, out);
  if (cmd.command == "merge") return cmd_merge(cmd, out);
  if (cmd.command == "ocs") return cmd_ocs(cmd, out);
  if (cmd.command == "gpus") return cmd_gpus(cmd, out);
  if (cmd.command == "train") return cmd_train(cmd, out);
  if (cmd.command == "advise") return cmd_advise(cmd, out);
  if (cmd.command == "serve") return cmd_serve(cmd, out);
  if (cmd.command == "codegen") return cmd_codegen(cmd, out);
  if (cmd.command == "features") return cmd_features(cmd, out);
  out << usage();
  return cmd.command.empty() || cmd.command == "help" ? 0 : 2;
}

}  // namespace smart::cli
