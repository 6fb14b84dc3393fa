// Thin main() around the testable CLI library (src/cli).
#include <iostream>
#include <vector>

#include "cli/cli.hpp"
#include "util/env.hpp"
#include "util/timing.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    const smart::cli::CommandLine cmd = smart::cli::parse_command_line(args);
    const int rc = smart::cli::run_command(cmd, std::cout);
    // SMART_TIMING=1 dumps the per-phase counters every command accumulated
    // (wall time + task counts for profiling, tuning and training phases).
    // A daemon answering on stdout gets them on stderr instead.
    if (smart::util::env_int("SMART_TIMING", 0) != 0) {
      const std::string report = smart::util::timing_report();
      std::ostream& report_out =
          smart::cli::stdout_is_protocol(cmd) ? std::cerr : std::cout;
      if (!report.empty()) report_out << '\n' << report;
    }
    return rc;
  } catch (const std::invalid_argument& e) {
    // Usage error (bad flag, malformed value): the user needs the help text.
    std::cerr << "smartctl: " << e.what() << "\n\n" << smart::cli::usage();
    return 2;
  } catch (const std::exception& e) {
    // Runtime failure (I/O, corrupt artifact, injected fault): the usage
    // text would bury the actual diagnostic, so print one line only.
    std::cerr << "smartctl: error: " << e.what() << '\n';
    return 1;
  }
}
