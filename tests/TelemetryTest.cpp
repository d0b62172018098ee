//===- TelemetryTest.cpp - Tests for tracing, metrics, and export ----------===//

#include "telemetry/ChromeTrace.h"
#include "telemetry/Telemetry.h"

#include "morta/Controller.h"
#include "morta/RegionRunner.h"
#include "sim/Machine.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace parcae;
using namespace parcae::telemetry;
namespace rt = parcae::rt;

namespace {

/// Installs \p R as the process-wide sink for one test body.
struct ScopedRecorder {
  explicit ScopedRecorder(TraceRecorder *R) { setRecorder(R); }
  ~ScopedRecorder() { setRecorder(nullptr); }
};

rt::FlexibleRegion makeTinyRegion() {
  rt::FlexibleRegion Region("tiny");
  rt::RegionDesc Par;
  Par.Name = "tiny-doany";
  Par.S = rt::Scheme::DoAny;
  Par.Tasks.emplace_back("work", rt::TaskType::Par,
                         [](rt::IterationContext &C) { C.Cost = 20000; });
  Region.addVariant(std::move(Par));
  rt::RegionDesc Seq;
  Seq.Name = "tiny-seq";
  Seq.S = rt::Scheme::Seq;
  Seq.Tasks.emplace_back("all", rt::TaskType::Seq,
                         [](rt::IterationContext &C) { C.Cost = 20000; });
  Region.addVariant(std::move(Seq));
  return Region;
}

} // namespace

TEST(TraceRecorder, SpansFollowVirtualTime) {
  sim::Simulator Sim;
  TraceRecorder R;
  R.bindClock(Sim);
  std::uint32_t Pid = R.processFor("p");

  R.begin(Pid, 0, "t", "outer");
  Sim.schedule(10 * sim::USec, [&] { R.begin(Pid, 0, "t", "inner"); });
  Sim.schedule(30 * sim::USec, [&] { R.end(Pid, 0, "t", "inner"); });
  Sim.schedule(50 * sim::USec, [&] { R.end(Pid, 0, "t", "outer"); });
  Sim.run();

  ASSERT_EQ(R.size(), 4u);
  const auto &E = R.events();
  EXPECT_EQ(E[0].Ph, Phase::Begin);
  EXPECT_EQ(E[0].Ts, 0u);
  EXPECT_EQ(E[1].Name, "inner");
  EXPECT_EQ(E[1].Ts, 10 * sim::USec);
  EXPECT_EQ(E[2].Ph, Phase::End);
  EXPECT_EQ(E[2].Ts, 30 * sim::USec);
  EXPECT_EQ(E[3].Name, "outer");
  EXPECT_EQ(E[3].Ts, 50 * sim::USec);
}

TEST(TraceRecorder, StablePidsAndThreadNames) {
  TraceRecorder R;
  std::uint32_t A = R.processFor("alpha");
  std::uint32_t B = R.processFor("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(R.processFor("alpha"), A);
  R.nameThread(A, 3, "core 3");
  R.nameThread(A, 3, "core three"); // renames, no duplicate
  ASSERT_EQ(R.threadNames().size(), 1u);
  EXPECT_EQ(R.threadNames()[0].second, "core three");
}

TEST(TraceRecorder, RebindToFreshSimulatorRebasesTime) {
  TraceRecorder R;
  std::uint32_t Pid = R.processFor("p");
  {
    sim::Simulator Sim;
    R.bindClock(Sim);
    Sim.schedule(100 * sim::USec, [&] { R.instant(Pid, 0, "t", "a"); });
    Sim.run();
  }
  {
    // A fresh simulator restarts its clock at zero; the recorder must
    // rebase so the second run's events land after the first run's.
    sim::Simulator Sim;
    R.bindClock(Sim);
    Sim.schedule(5 * sim::USec, [&] { R.instant(Pid, 0, "t", "b"); });
    Sim.run();
  }
  ASSERT_EQ(R.size(), 2u);
  EXPECT_GT(R.events()[1].Ts, R.events()[0].Ts);
}

TEST(TraceRecorder, CapacityBoundsDropsNotGrows) {
  TraceRecorder R(/*Capacity=*/4);
  std::uint32_t Pid = R.processFor("p");
  for (int I = 0; I < 10; ++I)
    R.instant(Pid, 0, "t", "e");
  EXPECT_EQ(R.size(), 4u);
  EXPECT_EQ(R.dropped(), 6u);
}

TEST(TraceRecorder, NullSinkRecordsNothingAndSkipsArgs) {
  TraceRecorder *Null = nullptr;
  int Evaluated = 0;
  PARCAE_TRACE(Null, instant(0, 0, "t", (++Evaluated, std::string("e"))));
  EXPECT_EQ(Evaluated, 0); // argument expressions must not run
  EXPECT_EQ(recorder(), nullptr) << "tracing must be off by default";
}

TEST(Metrics, CountersGaugesHistograms) {
  MetricsRegistry M;
  EXPECT_TRUE(M.empty());
  Counter &C = M.counter("c");
  C.add();
  C.add(4);
  EXPECT_EQ(&M.counter("c"), &C) << "lookup must return the same object";
  M.gauge("g").set(2.5);
  Histogram &H = M.histogram("h");
  for (int I = 1; I <= 100; ++I)
    H.add(I);

  MetricsSnapshot S = M.snapshot(7 * sim::USec);
  EXPECT_EQ(S.At, 7 * sim::USec);
  ASSERT_EQ(S.Rows.size(), 3u);
  // Rows are sorted by name: c, g, h.
  EXPECT_EQ(S.Rows[0].Name, "c");
  EXPECT_DOUBLE_EQ(S.Rows[0].Value, 5.0);
  EXPECT_EQ(S.Rows[1].Name, "g");
  EXPECT_DOUBLE_EQ(S.Rows[1].Value, 2.5);
  EXPECT_EQ(S.Rows[2].Name, "h");
  EXPECT_DOUBLE_EQ(S.Rows[2].P50, 50.0);
  EXPECT_DOUBLE_EQ(S.Rows[2].P95, 95.0);
  EXPECT_DOUBLE_EQ(S.Rows[2].P99, 99.0);

  std::string Text = S.text();
  EXPECT_NE(Text.find("counter c 5"), std::string::npos);
  EXPECT_NE(Text.find("gauge g"), std::string::npos);
  EXPECT_NE(Text.find("histogram h"), std::string::npos);
}

TEST(Metrics, MachineTeardownCapturesSimEvents) {
  // Machine's destructor snapshots the simulator's event count into the
  // sim.events gauge (it runs while the simulator is still alive;
  // TraceFile's destructor does not).
  TraceRecorder Rec;
  ScopedRecorder Scope(&Rec);
  sim::Simulator Sim;
  Rec.bindClock(Sim);
  {
    sim::Machine M(Sim, 2);
    for (int I = 1; I <= 5; ++I)
      Sim.schedule(static_cast<sim::SimTime>(I) * 10, [] {});
    Sim.run();
  }
  MetricsSnapshot S = Rec.metrics().snapshot(Sim.now());
  bool SawEvents = false;
  for (const MetricRow &Row : S.Rows) {
    EXPECT_NE(Row.Name.rfind("sim.queue.", 0), 0u) << Row.Name;
    if (Row.Name == "sim.events") {
      SawEvents = true;
      EXPECT_DOUBLE_EQ(Row.Value, 5.0); // the five timed events
    }
  }
  EXPECT_TRUE(SawEvents);
}

TEST(ChromeTrace, ExportParsesBackWithRequiredKeys) {
  sim::Simulator Sim;
  TraceRecorder R;
  R.bindClock(Sim);
  std::uint32_t Pid = R.processFor("prog");
  R.nameThread(Pid, 1, "task work");
  Sim.schedule(2 * sim::USec, [&] {
    R.begin(Pid, 1, "task", "span",
            {TraceArg::num("n", 3), TraceArg::str("s", "v")});
  });
  Sim.schedule(9 * sim::USec, [&] { R.end(Pid, 1, "task", "span"); });
  Sim.schedule(9 * sim::USec, [&] { R.counter(Pid, 1, "task", "iters", 42); });
  Sim.run();

  std::string Json = toChromeTraceJson(R);
  json::Value V;
  std::string Err;
  ASSERT_TRUE(json::parse(Json, V, &Err)) << Err;

  const json::Value *Events = V.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, json::Value::Kind::Arr);
  ASSERT_FALSE(Events->Arr.empty());

  bool SawProcessName = false, SawSpanBegin = false, SawCounter = false;
  for (const json::Value &E : Events->Arr) {
    ASSERT_NE(E.find("name"), nullptr);
    ASSERT_NE(E.find("ph"), nullptr);
    ASSERT_NE(E.find("pid"), nullptr);
    ASSERT_NE(E.find("tid"), nullptr);
    const std::string &Ph = E.find("ph")->Str;
    if (Ph != "M") {
      ASSERT_NE(E.find("ts"), nullptr);
    }
    if (Ph == "M" && E.find("name")->Str == "process_name")
      SawProcessName = true;
    if (Ph == "B" && E.find("name")->Str == "span") {
      SawSpanBegin = true;
      const json::Value *Args = E.find("args");
      ASSERT_NE(Args, nullptr);
      EXPECT_DOUBLE_EQ(Args->find("n")->Num, 3.0);
      EXPECT_EQ(Args->find("s")->Str, "v");
      // Exported timestamps are microseconds.
      EXPECT_DOUBLE_EQ(E.find("ts")->Num, 2.0);
    }
    if (Ph == "C" && E.find("name")->Str == "iters") {
      SawCounter = true;
      EXPECT_DOUBLE_EQ(E.find("args")->find("value")->Num, 42.0);
    }
  }
  EXPECT_TRUE(SawProcessName);
  EXPECT_TRUE(SawSpanBegin);
  EXPECT_TRUE(SawCounter);

  EXPECT_TRUE(validateChromeTrace(Json, &Err)) << Err;
}

TEST(ChromeTrace, ValidatorRejectsGarbage) {
  std::string Err;
  EXPECT_FALSE(validateChromeTrace("not json", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(validateChromeTrace("{\"traceEvents\": []}", &Err));
  EXPECT_FALSE(validateChromeTrace(
      "{\"traceEvents\": [{\"ph\": \"B\"}]}", &Err));
}

TEST(Telemetry, ControlledRunProducesValidTrace) {
  TraceRecorder R;
  ScopedRecorder Install(&R);

  sim::Simulator Sim;
  sim::Machine M(Sim, 4);
  rt::RuntimeCosts Costs;
  rt::FlexibleRegion Region = makeTinyRegion();
  rt::CountedWorkSource Work(100000);
  rt::RegionRunner Runner(M, Costs, Region, Work);
  rt::RegionController Ctrl(Runner);
  Ctrl.start(4);
  Sim.runUntil(100 * sim::MSec);

  ASSERT_GT(R.size(), 0u);
  bool SawCalibrate = false, SawCoreSpan = false;
  for (const TraceEvent &E : R.events()) {
    if (E.Ph == Phase::Begin && E.Name == "CALIBRATE")
      SawCalibrate = true;
    if (E.Ph == Phase::Begin && std::string(E.Cat) == "core")
      SawCoreSpan = true;
  }
  EXPECT_TRUE(SawCalibrate) << "controller FSM spans missing";
  EXPECT_TRUE(SawCoreSpan) << "per-core busy spans missing";
  EXPECT_GT(R.metrics().counter("machine.slices").value(), 0u);

  std::string Err;
  EXPECT_TRUE(validateChromeTrace(toChromeTraceJson(R), &Err)) << Err;
}
