// Chrome/Perfetto trace-event exporter for the cycle ledger's ring.
//
// Emits the JSON object format ({"traceEvents":[...]}) that https://ui.perfetto.dev and
// chrome://tracing open directly, one event per record on the track of the task it was
// stamped with: a point record becomes a thread-scoped instant event, a scope close a
// complete ("X") slice spanning the scope. Context switches additionally emit a flow-event
// pair ("s" on the outgoing task's track, "f" on the incoming one) so the hand-off renders
// as an arrow. Every event carries its record's CPU in args. Timestamps are simulated
// microseconds (cycles / clock MHz).

#ifndef PPCMM_SRC_OBS_PERFETTO_H_
#define PPCMM_SRC_OBS_PERFETTO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"
#include "src/sim/attr.h"

namespace ppcmm {

struct PerfettoExportOptions {
  // Converts cycles to trace microseconds. Must be > 0.
  double clock_mhz = 100.0;
  // Optional task-id → display-name mapping, rendered as thread_name metadata. Task 0
  // (kernel bring-up / no task) is always named.
  std::vector<std::pair<uint32_t, std::string>> task_names;
  // The pid every event is filed under (one simulated machine = one process).
  uint32_t pid = 1;
};

// Builds the trace-event document from raw records (oldest first).
JsonValue PerfettoTraceJson(const std::vector<TraceRecord>& records,
                            const PerfettoExportOptions& options = PerfettoExportOptions{});

// Convenience: export the ledger ring's retained records and serialize.
std::string PerfettoTraceString(const CycleLedger& ledger,
                                const PerfettoExportOptions& options = PerfettoExportOptions{});

}  // namespace ppcmm

#endif  // PPCMM_SRC_OBS_PERFETTO_H_
