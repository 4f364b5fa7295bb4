// ppcmm end-to-end benchmark: runs one workload for a fixed host-time window and prints
// its metrics as one JSON object on the last line of stdout.
//
//   ppcmm_e2ebench --workload kcompile|multiuser|mmap_storm --seed N --seconds S --trace 0|1
//   ppcmm_e2ebench --selftest
//
// A run repeats the workload, each repetition on a fresh System built from presets, until
// the window is spent. The checkpoints split each repetition's timed window into the same
// segments; the run reports the sum over segments of each segment's fastest time, and the
// median set-up seconds. The first repetition is a warm-up and the reference: every later one
// must reproduce its HwCounters bit for bit, and (kcompile, multiuser) it must reproduce
// the library workload's counters. A coherence audit runs at every quiescent point; its
// host time is left out of the window's. --trace 1 interleaves traced repetitions (host
// spans around each public Kernel call) with untraced ones, adds one untimed repetition
// with the cycle-attribution ledger on, and prints the per-layer metrics; --trace 0 prints
// the end-to-end metrics.
//
// Exit status: 0 when every check held, 1 when one failed, 2 on a usage error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "e2ebench/calls.h"
#include "e2ebench/drivers.h"
#include "src/sim/rng.h"
#include "src/verify/coherence_auditor.h"

#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER "unknown"
#endif
#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace ppcmm::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr size_t kNumCauses = static_cast<size_t>(AttrCause::kNumCauses);

struct CacheTotals {
  uint64_t d_accesses = 0;
  uint64_t d_hits = 0;
  uint64_t d_uncached = 0;
  uint64_t i_accesses = 0;
  uint64_t i_hits = 0;

  bool operator==(const CacheTotals&) const = default;
  CacheTotals Minus(const CacheTotals& o) const {
    return {d_accesses - o.d_accesses, d_hits - o.d_hits, d_uncached - o.d_uncached,
            i_accesses - o.i_accesses, i_hits - o.i_hits};
  }
};

CacheTotals ReadCaches(Machine& machine) {
  CacheTotals t;
  for (uint32_t cpu = 0; cpu < machine.ncpus(); ++cpu) {
    const CacheStats& d = machine.dcache(cpu).stats();
    const CacheStats& i = machine.icache(cpu).stats();
    t.d_accesses += d.accesses;
    t.d_hits += d.hits;
    t.d_uncached += d.uncached_accesses;
    t.i_accesses += i.accesses;
    t.i_hits += i.hits;
  }
  return t;
}

// Names the first field where two counter sets differ; empty when bit-identical.
std::string CounterMismatch(const HwCounters& want, const HwCounters& got) {
  std::vector<std::pair<const char*, uint64_t>> a, b;
  want.ForEachField([&](const char* name, uint64_t v, bool) { a.emplace_back(name, v); });
  got.ForEachField([&](const char* name, uint64_t v, bool) { b.emplace_back(name, v); });
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second) {
      return std::string(a[i].first) + " " + std::to_string(a[i].second) + " != " +
             std::to_string(b[i].second);
    }
  }
  return "";
}

// What a repetition records beyond counters: host spans (timed, for span.*) or the
// attribution ledger (untimed, for attr.*; it costs far more host time than spans).
enum class Mode { kPlain, kSpans, kLedger };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kPlain:
      return "untraced";
    case Mode::kSpans:
      return "traced";
    case Mode::kLedger:
      return "ledger";
  }
  return "?";
}

// One repetition: a fresh System, the workload's set-up, then the timed window.
struct Rep {
  Mode mode = Mode::kPlain;
  std::string error;  // empty = every call and audit succeeded
  double setup_s = 0;  // raw wall: mostly the host kernel zero-filling the simulated RAM
  double host_s = 0;   // wall seconds of the window, audits excluded
  std::vector<double> segments_s;  // host_s split at the checkpoints
  uint64_t ops = 0;
  HwCounters delta;
  CacheTotals caches;
  uint64_t cpu_skew = 0;  // max - min per-CPU local clock at the end of the window
  SpanTotals spans;
  // Ledger only: attributed cycles by leaf cause, and the ledger's two totals.
  std::array<uint64_t, kNumCauses> attr_leaf = {};
  uint64_t attr_total = 0;
  uint64_t attr_cell_sum = 0;
};

Rep RunRep(Workload workload, const Sizes& sizes, uint64_t seed, Mode mode) {
  Rep rep;
  rep.mode = mode;
  const Clock::time_point start = Clock::now();
  System system(MachineFor(workload), OptimizationConfig::AllOptimizations());
  Machine& machine = system.machine();
  const std::unique_ptr<Driver> driver = MakeDriver(workload, sizes, seed);
  Calls setup(system, /*traced=*/false);
  Calls window(system, mode == Mode::kSpans);
  try {
    driver->Setup(setup);
    rep.setup_s = Since(start);

    CoherenceAuditor auditor(system.kernel());
    const HwCounters before = system.counters();
    const CacheTotals caches_before = ReadCaches(machine);
    if (mode == Mode::kLedger) {
      machine.attr().Clear();
      machine.attr().SetEnabled(true);
    }
    Clock::time_point segment_start = Clock::now();
    driver->Run(window, [&] {
      rep.segments_s.push_back(Since(segment_start));
      auditor.Audit();
      segment_start = Clock::now();
    });
    rep.segments_s.push_back(Since(segment_start));
    for (const double s : rep.segments_s) {
      rep.host_s += s;
    }

    rep.delta = system.counters().Diff(before);
    rep.caches = ReadCaches(machine).Minus(caches_before);
    uint64_t lo = machine.CpuCycles(0), hi = lo;
    for (uint32_t cpu = 1; cpu < machine.ncpus(); ++cpu) {
      lo = std::min(lo, machine.CpuCycles(cpu));
      hi = std::max(hi, machine.CpuCycles(cpu));
    }
    rep.cpu_skew = hi - lo;
    if (mode == Mode::kLedger) {
      machine.attr().SetEnabled(false);
      rep.attr_total = machine.attr().TotalAttributed();
      for (const CycleLedger::Cell& cell : machine.attr().Cells()) {
        const AttrCause leaf = cell.path.empty() ? AttrCause::kInstruction : cell.path.back();
        rep.attr_leaf[static_cast<size_t>(leaf)] += cell.cycles;
        rep.attr_cell_sum += cell.cycles;
      }
    }
  } catch (const std::exception& e) {
    rep.error = e.what();
    if (rep.error.empty()) {
      rep.error = "exception";
    }
  }
  rep.ops = setup.ops() + window.ops();
  rep.spans = window.spans();
  return rep;
}

// The window's host seconds with the noise filtered out: the sum over segments of the
// fastest time any repetition took for that segment. Every repetition of a run does the
// same deterministic work, segment by segment (Check enforces it), so what separates
// their times is host noise, which only ever adds time. Most of a shared host's slow
// stretches are shorter than a repetition, so taking the minimum segment by segment, not
// repetition by repetition, keeps one slow second from spoiling a whole repetition.
double FastestSegments(const std::vector<Rep>& reps) {
  std::vector<double> fastest;
  for (const Rep& r : reps) {
    if (!r.error.empty()) {
      continue;
    }
    if (fastest.empty()) {
      fastest = r.segments_s;
    }
    for (size_t i = 0; i < fastest.size() && i < r.segments_s.size(); ++i) {
      fastest[i] = std::min(fastest[i], r.segments_s[i]);
    }
  }
  double sum = 0;
  for (const double s : fastest) {
    sum += s;
  }
  return sum;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  size_t untraced_reps = 0;
  size_t traced_reps = 0;
  double median_host_s = 0;  // over the untraced repetitions; metadata line only

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) {
      errors.push_back(why);
    }
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunOptions {
  Workload workload = Workload::kKcompile;
  uint64_t seed = 1;
  double seconds = 40;
  bool trace = false;
  Sizes sizes;
  size_t min_reps = 3;  // per kind (untraced, and traced when tracing)
};

// The workload's RNG seed, derived from the command-line seed and the workload so the three
// workloads never share a stream.
uint64_t WorkloadSeed(const RunOptions& o) {
  Rng rng(o.seed * 0x100 + static_cast<uint64_t>(o.workload));
  return rng.Next();
}

void AddEndToEnd(const RunOptions& o, const Rep& ref, const std::vector<Rep>& reps,
                 Outcome& out) {
  std::vector<double> setup;
  for (const Rep& r : reps) {
    if (r.error.empty()) {
      setup.push_back(r.setup_s);
    }
  }
  const double host_s = FastestSegments(reps);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.Add("setup_s", Median(setup), "s");
  out.Add("host_s", host_s, "s");
  out.Add("sim_mcycles_per_host_s", Ratio(static_cast<double>(ref.delta.cycles) / 1e6, host_s),
          "Mcycles/s");
  out.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  out.Add("sim_s", CyclesToSeconds(Cycles(ref.delta.cycles), MachineFor(o.workload).clock_mhz),
          "s");
  out.Add("success_rate",
          1.0 - Ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
          "share");
}

void AddPerLayer(const Rep& ref, const Rep& ledger, const std::vector<Rep>& untraced,
                 const std::vector<Rep>& traced, Outcome& out) {
  // Host spans: mean per traced repetition; shares of the traced window.
  SpanTotals sum;
  double window_sum = 0;
  for (const Rep& r : traced) {
    window_sum += r.host_s;
    for (size_t c = 0; c < kNumCalls; ++c) {
      sum.host_s[c] += r.spans.host_s[c];
    }
  }
  const double n = static_cast<double>(traced.size());
  double covered = 0;
  for (size_t c = 0; c < kNumCalls; ++c) {
    const std::string prefix = std::string("span.") + CallName(c);
    out.Add(prefix + ".host_s", sum.host_s[c] / n, "s");
    out.Add(prefix + ".calls", static_cast<double>(ref.spans.calls[c]), "count");
    out.Add(prefix + ".share", Ratio(sum.host_s[c], window_sum), "share");
    covered += sum.host_s[c];
  }
  out.Add("span.unaccounted_share", Ratio(window_sum - covered, window_sum), "share");
  out.Add("trace.overhead", Ratio(FastestSegments(traced), FastestSegments(untraced)) - 1.0,
          "ratio");

  // Simulated-cycle shares by leaf cause.
  for (size_t c = 0; c < kNumCauses; ++c) {
    out.Add(std::string("attr.") + AttrCauseName(static_cast<AttrCause>(c)) + ".share",
            Ratio(static_cast<double>(ledger.attr_leaf[c]),
                  static_cast<double>(ledger.attr_total)),
            "share");
  }

  const HwCounters& d = ref.delta;
  const double tlb_accesses = static_cast<double>(d.itlb_accesses + d.dtlb_accesses);
  const double tlb_misses = static_cast<double>(d.itlb_misses + d.dtlb_misses);
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  out.Add("mmu.tlb_miss_rate", Ratio(tlb_misses, tlb_accesses), "share");
  out.Add("mmu.bat_share",
          Ratio(count(d.bat_translations), count(d.bat_translations) + tlb_accesses), "share");
  out.Add("mmu.htab_hit_rate", Ratio(count(d.htab_hits), count(d.htab_searches)), "share");
  out.Add("mmu.evict_reload_ratio", d.EvictToReloadRatio(), "ratio");
  out.Add("pagetable.pte_walks_per_tlb_miss", Ratio(count(d.pte_tree_walks), tlb_misses),
          "ratio");
  out.Add("kernel.fault.page_faults", count(d.page_faults), "count");
  out.Add("kernel.fault.dirty_bit_updates", count(d.dirty_bit_updates), "count");
  out.Add("kernel.flush.page_flushes", count(d.tlb_page_flushes), "count");
  out.Add("kernel.flush.context_flushes", count(d.tlb_context_flushes), "count");
  out.Add("kernel.flush.flush_mem_refs", count(d.htab_flush_memory_refs), "count");
  out.Add("kernel.flush.shootdown_ipis", count(d.tlb_shootdown_ipis), "count");
  out.Add("kernel.flush.ipis_per_munmap",
          Ratio(count(d.tlb_shootdown_ipis),
                count(ref.spans.calls[static_cast<size_t>(Call::kMunmap)])),
          "ratio");
  out.Add("kernel.flush.idle_skips", count(d.tlb_shootdown_idle_skips), "count");
  out.Add("kernel.flush.deferred_flushes", count(d.tlb_shootdown_deferred_flushes), "count");
  out.Add("sim.cpu_clock_skew", count(ref.cpu_skew), "cycles");
  out.Add("kernel.idle.invocations", count(d.idle_invocations), "count");
  out.Add("kernel.idle.zombies_reclaimed", count(d.zombies_reclaimed), "count");
  out.Add("kernel.idle.pages_zeroed", count(d.pages_zeroed_in_idle), "count");
  out.Add("kernel.idle.prezero_hit_rate",
          Ratio(count(d.prezeroed_page_hits),
                count(d.prezeroed_page_hits + d.pages_zeroed_on_demand)),
          "share");
  const CacheTotals& c = ref.caches;
  out.Add("sim.dcache_hit_rate", Ratio(count(c.d_hits), count(c.d_accesses)), "share");
  out.Add("sim.icache_hit_rate", Ratio(count(c.i_hits), count(c.i_accesses)), "share");
  out.Add("sim.dcache_uncached_share",
          Ratio(count(c.d_uncached), count(c.d_accesses + c.d_uncached)), "share");
}

// Checks one repetition against the reference; every failed check is one failed operation.
void Check(const Rep& ref, const Rep& r, Outcome& out) {
  out.attempted += r.ops;
  if (!r.error.empty()) {
    out.Fail(std::string(ModeName(r.mode)) + " repetition failed: " + r.error);
    return;
  }
  if (&r == &ref) {
    return;
  }
  const std::string kind = std::string(ModeName(r.mode)) + " vs reference:";
  if (const std::string diff = CounterMismatch(ref.delta, r.delta); !diff.empty()) {
    out.Fail(kind + " HwCounters differ: " + diff);
  }
  if (!(r.caches == ref.caches) || r.cpu_skew != ref.cpu_skew ||
      r.spans.calls != ref.spans.calls || r.segments_s.size() != ref.segments_s.size()) {
    out.Fail(kind + " cache stats, CPU clocks, call counts or checkpoints differ");
  }
  if (r.mode == Mode::kLedger) {
    if (r.attr_total != r.delta.cycles || r.attr_cell_sum != r.attr_total) {
      out.Fail("attribution not conserved: attributed " + std::to_string(r.attr_total) +
               ", cells " + std::to_string(r.attr_cell_sum) + ", cycles " +
               std::to_string(r.delta.cycles));
    }
  }
}

Outcome Measure(const RunOptions& o) {
  Outcome out;
  const uint64_t seed = WorkloadSeed(o);
  const Rep ref = RunRep(o.workload, o.sizes, seed, Mode::kPlain);
  Check(ref, ref, out);
  if (ref.error.empty()) {
    try {
      if (const std::optional<HwCounters> lib = LibraryCounters(o.workload, o.sizes, seed)) {
        if (const std::string diff = CounterMismatch(*lib, ref.delta); !diff.empty()) {
          out.Fail(std::string("driver drifted from the library workload: ") + diff);
        }
      }
    } catch (const std::exception& e) {
      out.Fail(std::string("library workload failed: ") + e.what());
    }
  }

  std::vector<Rep> untraced, traced;
  const Clock::time_point start = Clock::now();
  // Stops at the first failure: the run is then reported as incorrect.
  for (size_t i = 0; out.failed == 0; ++i) {
    const bool want_traced = o.trace && i % 2 == 1;
    Rep r = RunRep(o.workload, o.sizes, seed, want_traced ? Mode::kSpans : Mode::kPlain);
    Check(ref, r, out);
    (want_traced ? traced : untraced).push_back(std::move(r));
    const bool enough = untraced.size() >= o.min_reps && (!o.trace || traced.size() >= o.min_reps);
    if (Since(start) >= o.seconds && enough) {
      break;
    }
  }
  out.untraced_reps = untraced.size();
  out.traced_reps = traced.size();
  std::vector<double> host;
  for (const Rep& r : untraced) {
    host.push_back(r.host_s);
  }
  out.median_host_s = Median(host);
  if (!o.trace) {
    // Reported on a failing run too, so that success_rate shows the failures.
    AddEndToEnd(o, ref, untraced, out);
    return out;
  }
  if (out.failed > 0) {
    return out;
  }
  const Rep ledger = RunRep(o.workload, o.sizes, seed, Mode::kLedger);
  Check(ref, ledger, out);
  if (out.failed == 0) {
    AddPerLayer(ref, ledger, untraced, traced, out);
  }
  return out;
}

// ---- output ----

std::string JsonString(const std::string& s) {
  std::string r = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      r += '\\';
      r += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      r += ' ';
    } else {
      r += ch;
    }
  }
  return r + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(" \t", colon + 1);
        return b == std::string::npos ? "unknown" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string MetaJson(const RunOptions& o, const Outcome& out) {
  std::string s = "{\"benchmark\": \"ppcmm-e2e\", \"workload\": ";
  s += JsonString(WorkloadName(o.workload));
  s += ", \"seed\": " + std::to_string(o.seed);
  s += ", \"workload_seed\": " + std::to_string(WorkloadSeed(o));
  s += ", \"trace\": " + std::string(o.trace ? "1" : "0");
  s += ", \"reps\": {\"untraced\": " + std::to_string(out.untraced_reps) +
       ", \"traced\": " + std::to_string(out.traced_reps) + "}";
  s += ", \"median_host_s\": " + JsonNumber(out.median_host_s);
  s += ", \"error_rate\": " +
       JsonNumber(Ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)));
  s += ", \"errors\": [";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    s += (i == 0 ? "" : ", ") + JsonString(out.errors[i]);
  }
  s += "], \"host\": {\"cpu_model\": " + JsonString(CpuModel());
  s += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"compiler\": " + JsonString(E2EBENCH_COMPILER);
  s += ", \"build_type\": " + JsonString(E2EBENCH_BUILD_TYPE) + "}}";
  return s;
}

std::string ResultJson(const Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(std::max<uint64_t>(out.attempted, 1));
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    s += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
         ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return s + "}}";
}

// ---- self-test ----

// Small sizes: every check of a real run, in a few seconds.
Sizes SelftestSizes() {
  Sizes s;
  s.kcompile_units = 12;
  s.multiuser_rounds = 16;
  s.storm_rounds = 600;
  return s;
}

int Selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
      ++failures;
    }
  };

  // The determinism check must notice a single differing counter.
  HwCounters a, b;
  b.tlb_shootdown_ipis = 1;
  expect(CounterMismatch(a, a).empty(), "identical counters compare equal");
  expect(CounterMismatch(a, b).rfind("tlb_shootdown_ipis", 0) == 0,
         "a differing counter is named");

  // host_s takes each segment's fastest time, whichever repetition it came from, and
  // skips failed repetitions.
  Rep slow_start, slow_end, failed_rep;
  slow_start.segments_s = {3.0, 1.0};
  slow_end.segments_s = {1.0, 2.0};
  failed_rep.segments_s = {0.5, 0.5};
  failed_rep.error = "injected";
  expect(FastestSegments({slow_start, slow_end, failed_rep}) == 2.0,
         "host_s sums the fastest time of each segment");

  // A failed check shows in success_rate, not only in the correct flag.
  Outcome failing;
  failing.attempted = 4;
  failing.Fail("injected");
  AddEndToEnd(RunOptions{}, Rep{}, {}, failing);
  for (const Metric& metric : failing.metrics) {
    if (metric.name == "success_rate") {
      expect(metric.value == 0.75, "one failure in four operations gives success_rate 0.75");
    }
  }

  for (const Workload w : {Workload::kKcompile, Workload::kMultiuser, Workload::kMmapStorm}) {
    const std::string name = WorkloadName(w);
    for (const bool trace : {false, true}) {
      RunOptions o{.workload = w, .seed = 1, .seconds = 0, .trace = trace,
                   .sizes = SelftestSizes(), .min_reps = 2};
      const Outcome out = Measure(o);
      for (const std::string& e : out.errors) {
        std::fprintf(stderr, "  %s: %s\n", name.c_str(), e.c_str());
      }
      expect(out.failed == 0, name + (trace ? " traced" : " untraced") + " run has no failures");
      std::map<std::string, double> m;
      for (const Metric& metric : out.metrics) {
        m[metric.name] = metric.value;
      }
      if (!trace) {
        expect(m.contains("host_s") && m["host_s"] > 0, name + " reports host_s");
        expect(m.contains("sim_s") && m["sim_s"] > 0, name + " reports sim_s");
        expect(m["success_rate"] == 1.0, name + " success_rate is 1");
        continue;
      }
      expect(m.contains("span.unaccounted_share"), name + " reports span.unaccounted_share");
      expect(m.contains("trace.overhead"), name + " reports trace.overhead");
      double attr_sum = 0;
      for (const auto& [key, value] : m) {
        if (key.rfind("attr.", 0) == 0) {
          attr_sum += value;
        }
      }
      expect(std::fabs(attr_sum - 1.0) < 1e-9, name + " attr shares sum to 1");
      expect(m["span.unaccounted_share"] < 0.5, name + " spans cover most of the window");
    }
  }
  std::fprintf(stderr, "selftest %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ppcmm_e2ebench --workload kcompile|multiuser|mmap_storm "
               "--seed N --seconds S --trace 0|1\n       ppcmm_e2ebench --selftest\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      return Selftest();
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    bool ok = !value.empty();
    if (arg == "--workload") {
      const std::optional<Workload> w = ParseWorkload(value);
      ok = w.has_value();
      o.workload = w.value_or(o.workload);
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      ok = ok && *end == '\0' && value[0] != '-';
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      ok = ok && *end == '\0' && o.seconds >= 0;
    } else if (arg == "--trace") {
      o.trace = value == "1";
      ok = value == "0" || value == "1";
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
    if (!ok) {
      return Usage(("bad value for " + arg + ": " + value).c_str());
    }
  }
  if (!have_workload) {
    return Usage("--workload is required");
  }
  const Outcome out = Measure(o);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n%s\n", MetaJson(o, out).c_str(), ResultJson(out).c_str());
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ppcmm::e2e

int main(int argc, char** argv) { return ppcmm::e2e::Main(argc, argv); }
