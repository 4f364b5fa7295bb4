// Exporters for the cycle-attribution ledger (src/sim/attr.h): folded-stack flamegraph
// text, a per-cause/per-task JSON table, cross-run diffing, the ring dump, and BenchReport
// wiring. The ledger itself lives in the sim layer so hot headers
// stay obs-free; everything that formats or serializes it lives here.

#ifndef PPCMM_SRC_OBS_ATTR_ATTR_EXPORT_H_
#define PPCMM_SRC_OBS_ATTR_ATTR_EXPORT_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/obs/bench_report.h"
#include "src/obs/json.h"
#include "src/sim/attr.h"

namespace ppcmm {

// Folded-stack flamegraph lines, one per (cause path, task) cell with nonzero cycles:
//   task3;dtlb_reload_hw;hash_primary 1234
// Feed straight into flamegraph.pl / speedscope / inferno. Lines are emitted in the
// ledger's deterministic cell order. Base cells fold as "task<id>;instruction".
std::string AttrToFolded(const CycleLedger& ledger);

// The attribution table as JSON:
//   {"schema_version":1, "total_cycles":N,
//    "causes":{"<path>":cycles, ...},           // summed over tasks, path joined with ';'
//    "tasks":{"<task>":cycles, ...},            // summed over causes
//    "stacks":[{"stack":"<path>","task":T,"cycles":N}, ...]}  // the raw cells
JsonValue AttrToJson(const CycleLedger& ledger);

// Cycles per cause path (tasks summed), the unit of cross-run comparison. The second
// overload rebuilds the same map from an AttrToJson document (e.g. a file from another
// run), so attr-diff works both in-process and across saved profiles.
std::map<std::string, uint64_t> AttrCauseTotals(const CycleLedger& ledger);
std::map<std::string, uint64_t> AttrCauseTotalsFromJson(const JsonValue& doc);

// Human-readable per-cause cycle delta between two runs, sorted by |delta| descending.
std::string AttrDiffReport(const std::string& label_a,
                           const std::map<std::string, uint64_t>& a,
                           const std::string& label_b,
                           const std::map<std::string, uint64_t>& b);

// The ledger ring as text, appended to failure reports: `context` (seed, preset, replay
// pointer — whatever the harness knows) followed by the newest `max_records` records,
// newest last, one per line with cycle, CPU and task. Empty ring -> a one-line note.
std::string RingDump(const CycleLedger& ledger, const std::string& context,
                     size_t max_records = 64);

// Adds the attribution table to a BenchReport section "cycle attribution": one
// "<prefix>.<path>" row per cause (tasks summed) plus "<prefix>.total".
void AddAttrToBenchReport(BenchReport& report, const std::string& prefix,
                          const CycleLedger& ledger);

}  // namespace ppcmm

#endif  // PPCMM_SRC_OBS_ATTR_ATTR_EXPORT_H_
