// Perfetto exporter tests: a golden document for a minimal record set, plus structural
// checks (valid JSON, monotonic timestamps, pid/tid mapping, flow pairs, slices, CPUs) on
// real runs.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/kernel/layout.h"
#include "src/obs/perfetto.h"

namespace ppcmm {
namespace {

TraceRecord MakeRecord(uint64_t cycle, TraceEvent event, uint32_t a, uint32_t b,
                       uint32_t task) {
  TraceRecord r;
  r.cycle = cycle;
  r.event = event;
  r.a = a;
  r.b = b;
  r.task = task;
  return r;
}

// The serializer is compact and insertion-ordered, so the document for a fixed record set
// is byte-stable: this golden catches accidental format drift.
TEST(PerfettoTest, GoldenMinimalDocument) {
  const std::vector<TraceRecord> records = {
      MakeRecord(200, TraceEvent::kTlbMiss, 0x100, 0, 3),
  };
  PerfettoExportOptions options;
  options.clock_mhz = 100.0;  // 200 cycles -> 2 us
  const std::string expected =
      "{\"traceEvents\":["
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"ppcmm\"}},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"kernel\"}},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":3,"
      "\"args\":{\"name\":\"task 3\"}},"
      "{\"name\":\"tlb_miss\",\"cat\":\"mmu\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2,"
      "\"pid\":1,\"tid\":3,\"args\":{\"a\":256,\"b\":0,\"cycle\":200,\"cpu\":0}}"
      "],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(PerfettoTraceJson(records, options).Serialize(), expected);
}

TEST(PerfettoTest, ContextSwitchEmitsFlowPair) {
  const std::vector<TraceRecord> records = {
      MakeRecord(100, TraceEvent::kContextSwitch, 1, 2, 1),
  };
  const auto parsed = JsonValue::Parse(PerfettoTraceJson(records).Serialize());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  const JsonValue* start = nullptr;
  const JsonValue* finish = nullptr;
  for (const JsonValue& e : events->Items()) {
    const JsonValue* ph = e.Find("ph");
    if (ph != nullptr && ph->AsString() == "s") {
      start = &e;
    }
    if (ph != nullptr && ph->AsString() == "f") {
      finish = &e;
    }
  }
  ASSERT_NE(start, nullptr);
  ASSERT_NE(finish, nullptr);
  // The arrow runs from the outgoing task's track to the incoming one's, same flow id.
  EXPECT_DOUBLE_EQ(start->Find("tid")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(finish->Find("tid")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(start->Find("id")->AsNumber(), finish->Find("id")->AsNumber());
  EXPECT_EQ(finish->Find("bp")->AsString(), "e");
}

TEST(PerfettoTest, ExplicitTaskNamesWinOverDefaults) {
  const std::vector<TraceRecord> records = {
      MakeRecord(10, TraceEvent::kPageFault, 0, 0, 7),
  };
  PerfettoExportOptions options;
  options.task_names.emplace_back(7, "compiler");
  const auto parsed = JsonValue::Parse(PerfettoTraceJson(records, options).Serialize());
  ASSERT_TRUE(parsed.has_value());
  bool named = false;
  for (const JsonValue& e : parsed->Find("traceEvents")->Items()) {
    const JsonValue* name = e.Find("name");
    if (name != nullptr && name->AsString() == "thread_name" &&
        e.Find("tid")->AsNumber() == 7.0) {
      EXPECT_EQ(e.Find("args")->Find("name")->AsString(), "compiler");
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST(PerfettoTest, RealTraceIsValidMonotonicAndAttributed) {
  System sys(MachineConfig::Ppc604(185), OptimizationConfig::AllOptimizations());
  sys.machine().attr().SetEnabled(true);
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  const TaskId b = kernel.CreateTask("b");
  kernel.Exec(a, ExecImage{});
  kernel.Exec(b, ExecImage{});
  kernel.SwitchTo(a);
  for (uint32_t i = 0; i < 8; ++i) {
    kernel.UserTouch(EffAddr(kUserDataBase + i * kPageSize), AccessKind::kStore);
  }
  kernel.SwitchTo(b);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  kernel.RunIdle(Cycles(2000));

  PerfettoExportOptions options;
  options.clock_mhz = sys.machine_config().clock_mhz;
  options.pid = 42;
  const std::string text = PerfettoTraceString(sys.machine().attr(), options);
  std::string error;
  const auto parsed = JsonValue::Parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("displayTimeUnit")->AsString(), "ms");

  const auto records = sys.machine().attr().Records();
  ASSERT_LT(records.size(), CycleLedger::kRingCapacity);  // nothing dropped
  std::vector<const TraceRecord*> points;
  std::vector<const TraceRecord*> scopes;
  for (const TraceRecord& r : records) {
    (r.is_scope() ? scopes : points).push_back(&r);
  }
  double last_end = -1.0;
  std::vector<const JsonValue*> instants;
  std::vector<const JsonValue*> slices;
  size_t flows = 0;
  for (const JsonValue& e : parsed->Find("traceEvents")->Items()) {
    EXPECT_DOUBLE_EQ(e.Find("pid")->AsNumber(), 42.0);
    const std::string ph = e.Find("ph")->AsString();
    if (ph == "M") {
      continue;
    }
    // Events appear in ring order: by the cycle each record was appended at, which is a
    // slice's end (ts + dur, equal to the end cycle up to rounding far below one cycle).
    const JsonValue* dur = e.Find("dur");
    const double end = e.Find("ts")->AsNumber() + (dur != nullptr ? dur->AsNumber() : 0.0);
    EXPECT_GE(end, last_end - 1e-6);
    last_end = end;
    if (ph == "i") {
      instants.push_back(&e);
    } else if (ph == "X") {
      slices.push_back(&e);
    } else {
      ++flows;
    }
  }
  // One instant per point record, one slice per scope close, one s+f pair per switch.
  ASSERT_EQ(instants.size(), points.size());
  ASSERT_EQ(slices.size(), scopes.size());
  EXPECT_GT(slices.size(), 0u);
  size_t switches = 0;
  for (const TraceRecord* r : points) {
    switches += r->event == TraceEvent::kContextSwitch ? 1 : 0;
  }
  EXPECT_GE(switches, 2u);
  EXPECT_EQ(flows, 2 * switches);

  // Each event sits on the track of the task its record was stamped with.
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(instants[i]->Find("tid")->AsNumber(), static_cast<double>(points[i]->task));
    EXPECT_EQ(instants[i]->Find("name")->AsString(), TraceEventName(points[i]->event));
  }
  for (size_t i = 0; i < scopes.size(); ++i) {
    EXPECT_DOUBLE_EQ(slices[i]->Find("tid")->AsNumber(), static_cast<double>(scopes[i]->task));
    EXPECT_EQ(slices[i]->Find("name")->AsString(), AttrCauseName(scopes[i]->cause));
    EXPECT_DOUBLE_EQ(slices[i]->Find("args")->Find("cycles")->AsNumber(),
                     static_cast<double>(scopes[i]->cycles));
  }
}

TEST(PerfettoTest, SmpExportCarriesTheCpuOfEveryRecord) {
  MachineConfig machine = MachineConfig::Ppc604(185);
  machine.ncpus = 2;
  System sys(machine, OptimizationConfig::AllOptimizations());
  sys.machine().attr().SetEnabled(true);
  Kernel& kernel = sys.kernel();
  const TaskId a = kernel.CreateTask("a");
  const TaskId b = kernel.CreateTask("b");
  kernel.Exec(a, ExecImage{});
  kernel.Exec(b, ExecImage{});
  kernel.SwitchTo(a);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);
  kernel.SwitchCpu(1);
  kernel.SwitchTo(b);
  kernel.UserTouch(EffAddr(kUserDataBase), AccessKind::kStore);

  const auto parsed = JsonValue::Parse(PerfettoTraceString(sys.machine().attr()));
  ASSERT_TRUE(parsed.has_value());
  std::set<uint32_t> instant_cpus;
  for (const JsonValue& e : parsed->Find("traceEvents")->Items()) {
    if (e.Find("ph")->AsString() == "M") {
      continue;
    }
    const JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    const JsonValue* cpu = args->Find("cpu");
    ASSERT_NE(cpu, nullptr);
    if (e.Find("ph")->AsString() == "i") {
      instant_cpus.insert(static_cast<uint32_t>(cpu->AsNumber()));
    }
  }
  // Point records from both CPUs reach the export.
  EXPECT_EQ(instant_cpus, (std::set<uint32_t>{0, 1}));
}

}  // namespace
}  // namespace ppcmm
