#include "src/obs/perfetto.h"

#include <algorithm>
#include <set>

namespace ppcmm {

namespace {

double TsMicros(uint64_t cycle, double clock_mhz) {
  return static_cast<double>(cycle) / (clock_mhz > 0 ? clock_mhz : 1.0);
}

JsonValue MetadataEvent(const char* name, uint32_t pid, uint32_t tid,
                        const std::string& value) {
  JsonValue event = JsonValue::Object();
  event.Set("ph", "M");
  event.Set("name", name);
  event.Set("pid", pid);
  event.Set("tid", tid);
  JsonValue args = JsonValue::Object();
  args.Set("name", value);
  event.Set("args", std::move(args));
  return event;
}

}  // namespace

JsonValue PerfettoTraceJson(const std::vector<TraceRecord>& records,
                            const PerfettoExportOptions& options) {
  JsonValue events = JsonValue::Array();
  events.Append(MetadataEvent("process_name", options.pid, 0, "ppcmm"));

  // Name every track that will appear: explicit names first, then defaults for the rest.
  std::set<uint32_t> tids{0};
  for (const TraceRecord& r : records) {
    tids.insert(r.task);
    if (!r.is_scope() && r.event == TraceEvent::kContextSwitch) {
      tids.insert(r.a);
      tids.insert(r.b);
    }
  }
  std::set<uint32_t> named;
  for (const auto& [tid, name] : options.task_names) {
    events.Append(MetadataEvent("thread_name", options.pid, tid, name));
    named.insert(tid);
  }
  for (const uint32_t tid : tids) {
    if (!named.contains(tid)) {
      events.Append(MetadataEvent("thread_name", options.pid, tid,
                                  tid == 0 ? "kernel" : "task " + std::to_string(tid)));
    }
  }

  uint64_t flow_id = 0;
  for (const TraceRecord& r : records) {
    JsonValue event = JsonValue::Object();
    if (r.is_scope()) {
      event.Set("name", AttrCauseName(r.cause));
      event.Set("cat", "attr");
      event.Set("ph", "X");
      event.Set("ts", TsMicros(r.cycle - r.cycles, options.clock_mhz));
      event.Set("dur", TsMicros(r.cycles, options.clock_mhz));
      event.Set("pid", options.pid);
      event.Set("tid", r.task);
      JsonValue args = JsonValue::Object();
      args.Set("cycles", r.cycles);
      args.Set("depth", r.depth);
      args.Set("cpu", r.cpu);
      event.Set("args", std::move(args));
      events.Append(std::move(event));
      continue;
    }
    const double ts = TsMicros(r.cycle, options.clock_mhz);
    event.Set("name", TraceEventName(r.event));
    event.Set("cat", "mmu");
    event.Set("ph", "i");
    event.Set("s", "t");  // thread-scoped instant
    event.Set("ts", ts);
    event.Set("pid", options.pid);
    event.Set("tid", r.task);
    JsonValue args = JsonValue::Object();
    args.Set("a", r.a);
    args.Set("b", r.b);
    args.Set("cycle", r.cycle);
    args.Set("cpu", r.cpu);
    event.Set("args", std::move(args));
    events.Append(std::move(event));

    if (r.event == TraceEvent::kContextSwitch) {
      // Flow arrow from the outgoing task's track to the incoming one's.
      ++flow_id;
      JsonValue cpu_args = JsonValue::Object();
      cpu_args.Set("cpu", r.cpu);
      JsonValue start = JsonValue::Object();
      start.Set("name", "ctxsw");
      start.Set("cat", "sched");
      start.Set("ph", "s");
      start.Set("id", flow_id);
      start.Set("ts", ts);
      start.Set("pid", options.pid);
      start.Set("tid", r.a);
      start.Set("args", cpu_args);
      events.Append(std::move(start));

      JsonValue finish = JsonValue::Object();
      finish.Set("name", "ctxsw");
      finish.Set("cat", "sched");
      finish.Set("ph", "f");
      finish.Set("bp", "e");  // bind to the enclosing slice/instant
      finish.Set("id", flow_id);
      finish.Set("ts", ts);
      finish.Set("pid", options.pid);
      finish.Set("tid", r.b);
      finish.Set("args", std::move(cpu_args));
      events.Append(std::move(finish));
    }
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  return doc;
}

std::string PerfettoTraceString(const CycleLedger& ledger,
                                const PerfettoExportOptions& options) {
  return PerfettoTraceJson(ledger.Records(), options).Serialize();
}

}  // namespace ppcmm
