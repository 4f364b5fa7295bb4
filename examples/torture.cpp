// Torture-harness driver: run the seed-replayable MMU fuzzer from the command line.
//
//   torture [--seed N] [--ops N] [--ncpus N] [--strategy hw|sw|direct] [--audit-period N]
//           [--ram-mb N] [--faults] [--break-flush] [--fixed-config]
//           [--trace-out FILE] [--metrics-out FILE]
//
// Exit status 0 on a clean run, 1 on an auditor violation (the report printed to stderr
// contains everything needed to replay the failure: seed, strategy, config, op trace, and
// the newest records of the event ring with the CPU and task on each).
//
// --trace-out FILE writes the event ring as Perfetto JSON: point events as instants and
// attribution scopes as slices, on one track per task, each carrying its CPU.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/verify/torture.h"

namespace {

uint64_t ParseNum(const char* flag, const std::string& value) {
  char* end = nullptr;
  const uint64_t parsed = std::strtoull(value.c_str(), &end, 0);
  if (end == value.c_str() || *end != '\0') {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, value.c_str());
    std::exit(2);
  }
  return parsed;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << content << "\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  ppcmm::TortureOptions options;
  options.ops = 20000;
  options.audit_period = 64;
  std::string trace_out;
  std::string metrics_out;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // --flag=value and --flag value both work.
    std::string inline_value;
    bool has_inline_value = false;
    if (const size_t eq = arg.find('='); eq != std::string::npos && arg.rfind("--", 0) == 0) {
      inline_value = arg.substr(eq + 1);
      has_inline_value = true;
      arg.resize(eq);
    }
    const auto next = [&]() -> std::string {
      if (has_inline_value) {
        return inline_value;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--seed") {
      options.seed = ParseNum("--seed", next());
    } else if (arg == "--ops") {
      options.ops = static_cast<uint32_t>(ParseNum("--ops", next()));
    } else if (arg == "--audit-period") {
      options.audit_period = static_cast<uint32_t>(ParseNum("--audit-period", next()));
    } else if (arg == "--ncpus") {
      options.ncpus = static_cast<uint32_t>(ParseNum("--ncpus", next()));
      if (options.ncpus == 0) {
        std::fprintf(stderr, "--ncpus wants at least 1 CPU\n");
        return 2;
      }
    } else if (arg == "--ram-mb") {
      options.ram_bytes = ParseNum("--ram-mb", next()) * 1024 * 1024;
    } else if (arg == "--strategy") {
      const std::string strategy = next();
      if (strategy == "hw") {
        options.strategy = ppcmm::ReloadStrategy::kHardwareHtabWalk;
      } else if (strategy == "sw") {
        options.strategy = ppcmm::ReloadStrategy::kSoftwareHtab;
      } else if (strategy == "direct") {
        options.strategy = ppcmm::ReloadStrategy::kSoftwareDirect;
      } else {
        std::fprintf(stderr, "unknown strategy %s (hw|sw|direct)\n", strategy.c_str());
        return 2;
      }
    } else if (arg == "--faults") {
      options.page_alloc_exhaustion_one_in = 400;
      options.htab_eviction_storm_one_in = 150;
      options.spurious_tlb_flush_one_in = 300;
      options.vsid_wrap_one_in = 50;
      options.zombie_flood_one_in = 60;
    } else if (arg == "--break-flush") {
      options.break_tlb_invalidate = true;
      options.audit_period = 1;
    } else if (arg == "--fixed-config") {
      options.randomize_config = false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  std::printf("torture: seed=%llu ops=%u ncpus=%u strategy=%s audit-period=%u\n",
              static_cast<unsigned long long>(options.seed), options.ops,
              options.ncpus == 0 ? 1 : options.ncpus,
              ppcmm::ReloadStrategyName(options.strategy), options.audit_period);
  const ppcmm::TortureResult result = ppcmm::RunTorture(options);
  std::printf("config: %s\n", result.config_desc.c_str());
  std::printf("ops=%u oom-recoveries=%u fault-fires=%llu\n", result.ops_executed,
              result.oom_events, static_cast<unsigned long long>(result.fault_fires));
  std::printf(
      "audits=%llu tlb-checked=%llu htab-checked=%llu zombies(tlb=%llu htab=%llu)\n",
      static_cast<unsigned long long>(result.audit_stats.audits),
      static_cast<unsigned long long>(result.audit_stats.tlb_entries_checked),
      static_cast<unsigned long long>(result.audit_stats.htab_entries_checked),
      static_cast<unsigned long long>(result.audit_stats.tlb_zombies_seen),
      static_cast<unsigned long long>(result.audit_stats.htab_zombies_seen));
  if (!trace_out.empty()) {
    if (WriteFile(trace_out, result.trace_json)) {
      std::printf("trace written to %s (open at https://ui.perfetto.dev)\n",
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
    }
  }
  if (!metrics_out.empty()) {
    if (WriteFile(metrics_out, result.metrics_json)) {
      std::printf("metrics written to %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
    }
  }
  if (result.failed) {
    std::fprintf(stderr, "%s\n", result.failure_report.c_str());
    return 1;
  }
  std::printf("clean\n");
  return 0;
}
