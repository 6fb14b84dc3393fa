#include "util/fault.hpp"

#include <cstdlib>
#include <iomanip>
#include <mutex>
#include <sstream>

#include "util/rng.hpp"
#include "util/serialize_io.hpp"

namespace smart::util {

namespace {

/// One well-mixed uniform in [0, 1) from a 64-bit key (splitmix64 finisher;
/// hash_combine alone is too linear to act as a fair coin).
double u01_from_key(std::uint64_t key) noexcept {
  std::uint64_t state = key;
  const std::uint64_t mixed = splitmix64(state);
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

std::uint64_t site_tag(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kMeasure: return 0x6d656173ULL;  // "meas"
    case FaultSite::kWorker: return 0x776f726bULL;   // "work"
    case FaultSite::kIo: return 0x696fULL;           // "io"
  }
  return 0;
}

[[noreturn]] void bad_spec(const std::string& element, const std::string& why) {
  throw std::invalid_argument("fault spec element '" + element + "': " + why);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string token;
  std::istringstream stream(text);
  while (std::getline(stream, token, sep)) parts.push_back(token);
  return parts;
}

double parse_p(const std::string& element, const std::string& field) {
  if (field.rfind("p=", 0) != 0) bad_spec(element, "expected 'p=<float>'");
  double p = 0.0;
  if (!parse_f64_strict(field.substr(2), p)) {
    bad_spec(element, "unparsable probability '" + field.substr(2) + "'");
  }
  if (!(p >= 0.0 && p <= 1.0)) bad_spec(element, "p must be in [0, 1]");
  return p;
}

int parse_fails(const std::string& element, const std::string& field) {
  if (field.rfind("fails=", 0) != 0) {
    bad_spec(element, "expected 'fails=<uint>'");
  }
  std::uint64_t fails = 0;
  if (!parse_u64_strict(field.substr(6), fails) || fails == 0 ||
      fails > 1000000) {
    bad_spec(element, "fails must be an integer in [1, 1e6]");
  }
  return static_cast<int>(fails);
}

FaultInjector& mutable_global() {
  static FaultInjector injector = [] {
    const char* raw = std::getenv("SMART_FAULTS");
    return FaultInjector(parse_fault_spec(raw == nullptr ? "" : raw));
  }();
  return injector;
}

std::mutex& global_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

const char* to_string(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kMeasure: return "measure";
    case FaultSite::kWorker: return "worker";
    case FaultSite::kIo: return "io";
  }
  return "?";
}

std::string FaultSpec::to_string() const {
  std::ostringstream out;
  // 17 significant digits round-trip any double, so
  // parse_fault_spec(to_string()) reproduces the exact probabilities.
  out << std::setprecision(17);
  out << "seed=" << seed;
  for (const FaultRule& rule : rules) {
    out << ';' << smart::util::to_string(rule.site);
    if (rule.site == FaultSite::kMeasure) {
      out << (rule.permanent ? ":permanent" : ":transient");
    }
    out << ":p=" << rule.p;
    if (!rule.permanent && rule.fails != 1) out << ":fails=" << rule.fails;
  }
  return out.str();
}

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  if (text.empty()) return spec;
  for (const std::string& element : split(text, ';')) {
    if (element.empty()) continue;
    if (element.rfind("seed=", 0) == 0) {
      if (!parse_u64_strict(element.substr(5), spec.seed)) {
        bad_spec(element, "unparsable seed");
      }
      continue;
    }
    const auto fields = split(element, ':');
    FaultRule rule;
    if (fields[0] == "measure") {
      if (fields.size() < 3) {
        bad_spec(element, "expected measure:transient|permanent:p=<float>");
      }
      if (fields[1] == "transient") {
        rule.permanent = false;
      } else if (fields[1] == "permanent") {
        rule.permanent = true;
      } else {
        bad_spec(element, "unknown kind '" + fields[1] +
                              "' (transient|permanent)");
      }
      rule.site = FaultSite::kMeasure;
      rule.p = parse_p(element, fields[2]);
      if (fields.size() > 3) {
        if (rule.permanent) bad_spec(element, "permanent faults take no fails=");
        rule.fails = parse_fails(element, fields[3]);
        if (fields.size() > 4) bad_spec(element, "trailing fields");
      }
    } else if (fields[0] == "worker") {
      if (fields.size() < 2) bad_spec(element, "expected worker:p=<float>");
      rule.site = FaultSite::kWorker;
      rule.p = parse_p(element, fields[1]);
      if (fields.size() > 2) {
        rule.fails = parse_fails(element, fields[2]);
        if (fields.size() > 3) bad_spec(element, "trailing fields");
      }
    } else if (fields[0] == "io") {
      if (fields.size() != 2) bad_spec(element, "expected io:p=<float>");
      rule.site = FaultSite::kIo;
      rule.permanent = true;
      rule.p = parse_p(element, fields[1]);
    } else {
      bad_spec(element, "unknown site '" + fields[0] + "' (measure|worker|io)");
    }
    spec.rules.push_back(rule);
  }
  return spec;
}

const FaultRule* FaultInjector::check(FaultSite site, std::uint64_t identity,
                                      int attempt) const noexcept {
  for (std::size_t r = 0; r < spec_.rules.size(); ++r) {
    const FaultRule& rule = spec_.rules[r];
    if (rule.site != site || rule.p <= 0.0) continue;
    const std::uint64_t key = hash_combine(
        hash_combine(spec_.seed, site_tag(site) + (r << 40)), identity);
    if (u01_from_key(key) >= rule.p) continue;  // this identity is healthy
    if (rule.permanent || attempt < rule.fails) return &rule;
  }
  return nullptr;
}

void FaultInjector::inject(FaultSite site, std::uint64_t identity,
                           int attempt) const {
  const FaultRule* rule = check(site, identity, attempt);
  if (rule == nullptr) return;
  std::ostringstream what;
  what << "injected " << smart::util::to_string(site)
       << (rule->site == FaultSite::kMeasure
               ? (rule->permanent ? " permanent" : " transient")
               : "")
       << " fault (identity " << std::hex << identity << std::dec
       << ", attempt " << attempt << ")";
  if (site == FaultSite::kWorker) throw WorkerCrashError(what.str());
  throw FaultError(what.str(), !rule->permanent);
}

const FaultInjector& FaultInjector::global() { return mutable_global(); }

void FaultInjector::set_global(FaultSpec spec) {
  const std::lock_guard<std::mutex> lock(global_mutex());
  mutable_global() = FaultInjector(std::move(spec));
}

ScopedFaultInjection::ScopedFaultInjection(FaultSpec spec)
    : previous_(FaultInjector::global().spec()) {
  FaultInjector::set_global(std::move(spec));
}

ScopedFaultInjection::ScopedFaultInjection(const std::string& spec_text)
    : ScopedFaultInjection(parse_fault_spec(spec_text)) {}

ScopedFaultInjection::~ScopedFaultInjection() {
  FaultInjector::set_global(std::move(previous_));
}

}  // namespace smart::util
