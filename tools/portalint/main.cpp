// portalint CLI — static lane-safety & concurrency linter for the
// portabench kernels and runtimes.  See docs/LINT.md.
//
// Usage: portalint [options] <path>...
//   --json               emit a JSON report instead of text
//   --sarif              emit a SARIF 2.1.0 report instead of text
//   --baseline <file>    baseline file (default: portalint.baseline found
//                        upward from the first input)
//   --no-baseline        ignore any baseline file
//   --include-fixtures   also scan directories named "fixtures"
//   --cache <file>       incremental analysis cache (read + rewritten)
//   --root <dir>         root for relative paths in reports
//   --list-rules         print the rule catalogue and exit
//
// Exit status: 0 clean, 1 findings or stale baseline entries, 2 usage error.

#include <iostream>
#include <string>

#include "engine.hpp"
#include "rules.hpp"
#include "sarif.hpp"

int main(int argc, char** argv) {
  portalint::Options opts;
  bool json = false;
  bool sarif = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--no-baseline") {
      opts.use_baseline = false;
    } else if (arg == "--include-fixtures") {
      opts.include_fixtures = true;
    } else if (arg == "--cache" && i + 1 < argc) {
      opts.cache_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      opts.baseline_path = argv[++i];
    } else if (arg == "--root" && i + 1 < argc) {
      opts.root = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto& r : portalint::all_rules()) {
        std::cout << r.id << "  [" << r.family << "]  " << r.summary << "\n";
      }
      return 0;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << "usage: portalint [--json | --sarif] [--baseline FILE | --no-baseline] "
                   "[--include-fixtures] [--cache FILE] [--root DIR] "
                   "[--list-rules] <path>...\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "portalint: unknown option: " << arg << "\n";
      return 2;
    } else {
      opts.inputs.emplace_back(arg);
    }
  }
  if (opts.inputs.empty()) {
    std::cerr << "portalint: no input paths (try --help)\n";
    return 2;
  }

  const portalint::Result r = portalint::run_portalint(opts);
  if (sarif) {
    portalint::print_sarif(r, std::cout);
  } else if (json) {
    portalint::print_json(r, std::cout);
  } else {
    portalint::print_text(r, std::cout);
  }
  return portalint::exit_code(r);
}
