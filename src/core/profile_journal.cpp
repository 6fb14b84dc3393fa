#include "core/profile_journal.hpp"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/serialize_io.hpp"
#include "util/timing.hpp"

namespace smart::core {

namespace {

constexpr const char* kJournalMagic = "stencilmart-journal-v1";

/// The journal's identity line: everything that shapes the fault/retry
/// schedule. A resume with ANY difference would splice two incompatible
/// runs, so the line is compared as a whole string.
std::string config_line(const ProfileConfig& config,
                        const ProfileRunOptions& opts,
                        const std::string& fault_spec) {
  util::TokenWriter out;
  out << "config " << config.dims << ' ' << config.max_order << ' '
      << config.num_stencils << ' ' << config.samples_per_oc << ' '
      << config.seed << ' ';
  out.hexfloat(config.sim.noise_sigma);
  out << ' ' << config.sim.seed << ' ' << (config.vary_problem_size ? 1 : 0)
      << ' ' << (config.vary_boundary ? 1 : 0) << ' ' << opts.retries << ' '
      << (fault_spec.empty() ? std::string_view("-") : fault_spec) << ' '
      << opts.shard.index << '/' << opts.shard.count;
  return std::string(out.view());
}

[[noreturn]] void corrupt(const std::string& path, std::size_t line_no,
                          const std::string& what) {
  throw std::runtime_error("profile journal " + path + ":" +
                           std::to_string(line_no) + ": " + what);
}

}  // namespace

void ProfileJournal::start(const std::string& path,
                           const ProfileConfig& config,
                           const ProfileRunOptions& opts,
                           const std::string& fault_spec) {
  close();
  out_.open(path, std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("profile journal: cannot create " + path);
  }
  out_ << kJournalMagic << '\n'
       << config_line(config, opts, fault_spec) << '\n'
       << std::flush;
  if (!out_) {
    throw std::runtime_error("profile journal: cannot write header to " + path);
  }
}

JournalReplay ProfileJournal::resume(const std::string& path,
                                     const ProfileConfig& config,
                                     const ProfileRunOptions& opts,
                                     const std::string& fault_spec,
                                     std::size_t num_ocs,
                                     std::size_t num_gpus) {
  JournalReplay replay;
  std::error_code missing;
  if (!std::filesystem::exists(path, missing)) {
    // Nothing to resume: behave like a fresh run so `--resume` is safe to
    // pass unconditionally (the check.sh resume-until-done loop relies on
    // this).
    start(path, config, opts, fault_spec);
    return replay;
  }
  const std::string text = util::read_file(path);

  // A kill mid-append leaves exactly one casualty: a final line without its
  // newline. Parse only up to the last '\n'; everything past it is the
  // partial tail, truncated below before the journal reopens for append.
  const std::size_t valid_end = text.rfind('\n') + 1;  // npos+1 == 0
  const auto replay_start = std::chrono::steady_clock::now();

  std::string_view lines = std::string_view(text).substr(0, valid_end);
  std::size_t line_no = 0;
  // The next line without its '\n'; false once the valid prefix is used up.
  const auto next_line = [&lines, &line_no](std::string_view& line) {
    if (lines.empty()) return false;
    const std::size_t eol = lines.find('\n');
    line = lines.substr(0, eol);
    lines.remove_prefix(eol + 1);
    ++line_no;
    return true;
  };
  std::string_view line;

  if (!next_line(line)) corrupt(path, 1, "missing magic line");
  if (line != kJournalMagic) {
    corrupt(path, 1, "bad magic '" + std::string(line) + "'");
  }
  if (!next_line(line)) corrupt(path, 2, "missing config line");
  const std::string want = config_line(config, opts, fault_spec);
  if (line != want) {
    throw std::runtime_error(
        "profile journal " + path +
        " was written by a different profiling run (config/retries/fault "
        "spec mismatch)\n  journal: " +
        std::string(line) + "\n  this run: " + want);
  }

  while (next_line(line)) {
    if (line.empty()) continue;
    util::TokenReader ls(line);
    const std::string_view tag = ls.next();
    std::size_t s = 0;
    std::size_t oc = 0;
    std::size_t g = 0;
    if (!(util::parse_number(ls.next(), s) &&
          util::parse_number(ls.next(), oc) &&
          util::parse_number(ls.next(), g))) {
      corrupt(path, line_no, "bad unit indices");
    }
    if (oc >= num_ocs || g >= num_gpus ||
        s >= static_cast<std::size_t>(config.num_stencils)) {
      corrupt(path, line_no, "unit index out of range");
    }
    const std::uint64_t key = unit_key(s, oc, g, num_ocs, num_gpus);
    if (tag == "unit") {
      std::size_t n = 0;
      if (!util::parse_number(ls.next(), n) || n > 4096) {
        corrupt(path, line_no, "bad time count");
      }
      std::vector<double> times;
      times.reserve(n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::string_view token = ls.next();
        if (token.empty()) corrupt(path, line_no, "truncated time list");
        if (token == "crash") {
          times.push_back(std::numeric_limits<double>::quiet_NaN());
        } else {
          double t = 0.0;
          if (!util::parse_f64_strict(token, t) || !std::isfinite(t) ||
              t <= 0.0) {
            corrupt(path, line_no,
                    "unparsable time field '" + std::string(token) + "'");
          }
          times.push_back(t);
        }
      }
      if (!ls.at_end()) corrupt(path, line_no, "trailing tokens");
      replay.units[key] = std::move(times);
    } else if (tag == "retry") {
      int attempt = 0;
      if (!util::parse_number(ls.next(), attempt) || ls.next().empty() ||
          attempt < 0) {
        corrupt(path, line_no, "bad retry record");
      }
      int& next = replay.attempts[key];
      next = std::max(next, attempt + 1);
    } else if (tag == "quar") {
      QuarantineRecord record;
      record.stencil = s;
      record.oc = oc;
      record.gpu = g;
      // The reason is free text: the rest of the line after one separator.
      std::string_view reason = ls.rest();
      if (!reason.empty() && reason.front() == ' ') reason.remove_prefix(1);
      record.reason = reason;
      replay.quarantined.push_back(std::move(record));
    } else {
      corrupt(path, line_no, "unknown tag '" + std::string(tag) + "'");
    }
    ++replay.replayed_lines;
  }
  const auto replay_elapsed = std::chrono::steady_clock::now() - replay_start;
  util::timing_record(
      "profile.journal",
      std::chrono::duration<double, std::milli>(replay_elapsed).count(),
      replay.replayed_lines);

  // Drop the partial tail so appends continue from a clean line boundary.
  if (valid_end < text.size()) {
    std::error_code ec;
    std::filesystem::resize_file(path, valid_end, ec);
    if (ec) {
      throw std::runtime_error("profile journal: cannot truncate partial tail of " +
                               path + ": " + ec.message());
    }
  }
  close();
  out_.open(path, std::ios::app);
  if (!out_) {
    throw std::runtime_error("profile journal: cannot reopen " + path +
                             " for append");
  }
  return replay;
}

void ProfileJournal::append(std::string_view line) {
  const auto start = std::chrono::steady_clock::now();
  bool ok = true;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out_ << line << '\n' << std::flush;
    ok = static_cast<bool>(out_);
    ++appended_;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    append_ms_ += std::chrono::duration<double, std::milli>(elapsed).count();
  }
  if (!ok) {
    throw std::runtime_error("profile journal: append failed (disk full?)");
  }
}

void ProfileJournal::record_unit(std::size_t s, std::size_t oc, std::size_t g,
                                 const std::vector<double>& times) {
  util::TokenWriter line;
  line << "unit " << s << ' ' << oc << ' ' << g << ' ' << times.size();
  for (const double t : times) {
    line << ' ';
    if (std::isnan(t)) {
      line << "crash";
    } else {
      line.hexfloat(t);
    }
  }
  append(line.view());
}

void ProfileJournal::record_retry(std::size_t s, std::size_t oc, std::size_t g,
                                  int attempt, const char* kind) {
  util::TokenWriter line;
  line << "retry " << s << ' ' << oc << ' ' << g << ' ' << attempt << ' '
       << kind;
  append(line.view());
}

void ProfileJournal::record_quarantine(const QuarantineRecord& record) {
  util::TokenWriter line;
  line << "quar " << record.stencil << ' ' << record.oc << ' ' << record.gpu
       << ' ' << record.reason;
  append(line.view());
}

void ProfileJournal::close() {
  if (!out_.is_open()) return;
  out_.flush();
  out_.close();
  if (appended_ > 0) {
    util::timing_record("profile.journal", append_ms_, appended_);
  }
  append_ms_ = 0.0;
  appended_ = 0;
}

}  // namespace smart::core
