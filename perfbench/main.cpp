//===- main.cpp - The repository benchmark's entry point ------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-file PATH]
//
// Builds the workload's inputs from the seed several times (set-up, timed
// and reported as a median), computes the correctness reference once
// outside every timer, then runs passes until S seconds have elapsed.
// Every pass must reproduce the first pass's virtual-time outcomes
// exactly. With --trace 0 the last stdout line carries the end-to-end
// metrics, host times as medians over passes; with --trace 1 untraced and
// traced passes alternate and it carries the per-layer metrics (span self
// times from the traced passes, counters from the library's accessors).
// Exits 1 when any correctness check fails, 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workload.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

using namespace perfbench;

namespace {

/// Set-up repetitions before the first pass and before each later one.
constexpr int SetupReps = 3;
constexpr std::size_t MinPasses = 3;

using MetricSpec = std::pair<const char *, const char *>; // name, unit

/// The metric sets BENCHMARK.json declares. Pass time and events per
/// second are per-layer (sim.*), not end-to-end: on a shared 4-vCPU host
/// they spread 12-45% across ten consecutive runs, past any bound a gate
/// may use (see NOTES.md, "Host noise").
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"energy_mj_per_op", "mJ"}, {"makespan_ms", "ms"},
    {"goodput_rps", "1/s"},     {"speedup_vs_seq", "x"},
    {"p50_ms", "ms"},           {"p99_ms", "ms"}};

const MetricSpec PerLayer[] = {
    {"sim.wall_s", "s"},
    {"sim.events_per_s", "1/s"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.wheel_hit_frac", "frac"},
    {"sim.heap_hits", "count"},
    {"sim.busy_core_frac", "frac"},
    {"sim.self_ms", "ms"},
    {"core.regions_built", "count"},
    {"core.make_region_us", "us"},
    {"core.self_ms", "ms"},
    {"apps.reexec_frac", "frac"},
    {"apps.self_ms", "ms"},
    {"serve.admitted", "count"},
    {"serve.shed", "count"},
    {"serve.rejected", "count"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.service_p99_ms", "ms"},
    {"serve.requests_per_region", "count"},
    {"serve.close_size", "count"},
    {"serve.close_timer", "count"},
    {"serve.close_slo", "count"},
    {"serve.batch_class_p99_ms", "ms"},
    {"serve.top_rung_goodput_rps", "1/s"},
    {"morta.slo_transfers", "count"},
    {"morta.time_to_monitor_ms", "ms"},
    {"morta.search_frac", "frac"},
    {"morta.reconfigurations", "count"},
    {"morta.full_pauses", "count"},
    {"morta.detections", "count"},
    {"morta.mttr_ms", "ms"},
    {"morta.drains", "count"},
    {"morta.drain_latency_ms", "ms"},
    {"morta.speculations", "count"},
    {"morta.recoveries", "count"},
    {"morta.task_restarts", "count"},
    {"morta.rescued_threads", "count"},
    {"morta.self_ms", "ms"},
    {"nona.compile_us", "us"},
    {"nona.schemes_exposed", "count"},
    {"nona.reference_ms", "ms"},
    {"checkpoint.serialize_us", "us"},
    {"checkpoint.deserialize_us", "us"},
    {"checkpoint.bytes", "B"},
    {"checkpoint.quiesce_ms", "ms"},
    {"telemetry.overhead_frac", "frac"},
    {"bench.self_ms", "ms"}};

double seconds(std::uint64_t Ns) { return static_cast<double>(Ns) / 1e9; }

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// What differs between two passes of one seed, or empty.
std::string firstDifference(const PassResult &A, const PassResult &B) {
  if (A.Outcomes != B.Outcomes)
    return "end-to-end outcomes";
  if (A.Layers != B.Layers)
    return "layer counters";
  if (A.Attempted != B.Attempted || A.Failed != B.Failed)
    return "attempted/failed";
  if (A.Events != B.Events)
    return "simulator event count";
  if (A.Errors != B.Errors)
    return "correctness errors";
  return "";
}

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload"
               " serve-ladder|nona-suite|pipeline-faults --seed N --seconds S"
               " --trace 0|1 [--trace-file PATH]\n",
               Why.c_str());
  std::exit(2);
}

struct Args {
  std::string Workload;
  std::uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceFile;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; I += 2) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    const char *V = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, &End, 10);
      HaveSeed = *V && *V != '-' && !*End;
      if (!HaveSeed)
        usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V, &End);
      if (!*V || *End || !(A.Seconds > 0))
        usage("--seconds takes a positive number");
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        usage("--trace takes 0 or 1");
      A.Trace = V[0] == '1';
    } else if (Flag == "--trace-file") {
      A.TraceFile = V;
    } else {
      usage("unknown flag " + Flag);
    }
  }
  if (A.Workload.empty() || !HaveSeed)
    usage("--workload and --seed are required");
  return A;
}

void printJson(const char *Key, const std::map<std::string, double> &Vals) {
  std::printf("%s: {", Key);
  bool First = true;
  for (const auto &[K, V] : Vals) {
    std::printf("%s\"%s\": %.17g", First ? "" : ", ", K.c_str(), V);
    First = false;
  }
  std::printf("}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::unique_ptr<Workload> W;
  if (A.Workload == "serve-ladder")
    W = makeServeLadder();
  else if (A.Workload == "nona-suite")
    W = makeNonaSuite();
  else if (A.Workload == "pipeline-faults")
    W = makePipelineFaults();
  else
    usage("unknown workload " + A.Workload);

  Tracer T(A.Workload + "-seed" + std::to_string(A.Seed) + "-" +
           std::to_string(hostNs()));

  // --- Set-up: timed, repeated, reported as the median -----------------
  std::vector<double> Setup;
  for (int R = 0; R < SetupReps; ++R) {
    std::uint64_t T0 = hostNs();
    W->prepare(A.Seed);
    Setup.push_back(seconds(hostNs() - T0));
  }
  if (A.Trace) {
    ActiveTracer = &T;
    W->prepare(A.Seed);
  }
  W->buildReference();
  ActiveTracer = nullptr;

  constexpr unsigned NumLayers = static_cast<unsigned>(Layer::NumLayers);
  std::uint64_t SelfBase[NumLayers];
  for (unsigned L = 0; L < NumLayers; ++L)
    SelfBase[L] = T.selfNs(static_cast<Layer>(L));

  // --- Passes ------------------------------------------------------------
  PassResult First;
  std::vector<double> Untraced, Traced;
  std::vector<std::string> Errors;
  std::uint64_t Start = hostNs();
  for (std::size_t Pass = 0;; ++Pass) {
    // Set-up is re-timed before every later pass, so its samples span the
    // run like the passes do instead of one burst at the start.
    for (int R = 0; Pass > 0 && R < SetupReps; ++R) {
      std::uint64_t T0 = hostNs();
      W->prepare(A.Seed);
      Setup.push_back(seconds(hostNs() - T0));
    }
    bool Tracing = A.Trace && Pass % 2 == 1;
    ActiveTracer = Tracing ? &T : nullptr;
    std::uint64_t T0 = hostNs();
    PassResult R = W->run();
    double Dur = seconds(hostNs() - T0);
    ActiveTracer = nullptr;
    (Tracing ? Traced : Untraced).push_back(Dur);
    if (Pass == 0) {
      First = std::move(R);
    } else if (std::string Diff = firstDifference(First, R); !Diff.empty()) {
      Errors.push_back("pass " + std::to_string(Pass) + " changed its " +
                       Diff + " (virtual time must repeat exactly)");
      break;
    }
    bool Enough = Untraced.size() >= MinPasses &&
                  (!A.Trace || Traced.size() >= MinPasses);
    if (Enough && seconds(hostNs() - Start) >= A.Seconds)
      break;
  }
  Errors.insert(Errors.begin(), First.Errors.begin(), First.Errors.end());

  // --- Metrics -------------------------------------------------------------
  double Wall = median(Untraced);
  double Events = static_cast<double>(First.Events);
  std::map<std::string, double> Vals;
  if (!A.Trace) {
    struct rusage RU;
    getrusage(RUSAGE_SELF, &RU);
    Vals = First.Outcomes;
    Vals["setup_s"] = median(Setup);
    Vals["peak_rss_mb"] = static_cast<double>(RU.ru_maxrss) / 1024.0;
  } else {
    Vals = First.Layers;
    Vals["sim.wall_s"] = Wall;
    Vals["sim.events_per_s"] = Events / Wall;
    Vals["sim.events"] = Events;
    Vals["sim.wheel_hit_frac"] = static_cast<double>(First.WheelHits) / Events;
    Vals["sim.heap_hits"] = static_cast<double>(First.HeapHits);
    Vals["sim.busy_core_frac"] = First.BusyCoreNs / First.CoreNs;
    double NT = static_cast<double>(Traced.size());
    auto SelfMs = [&](Layer L) {
      unsigned I = static_cast<unsigned>(L);
      return static_cast<double>(T.selfNs(L) - SelfBase[I]) / NT / 1e6;
    };
    auto MeanUs = [&](const char *Name) {
      std::uint64_t N = T.count(Name);
      return N ? static_cast<double>(T.totalNs(Name)) / N / 1e3 : 0.0;
    };
    for (Layer L : {Layer::Bench, Layer::Sim, Layer::Core, Layer::Apps,
                    Layer::Morta})
      Vals[std::string(layerName(L)) + ".self_ms"] = SelfMs(L);
    Vals["sim.host_ns_per_event"] = SelfMs(Layer::Sim) * 1e6 / Events;
    Vals["core.make_region_us"] = MeanUs("make_region");
    Vals["nona.compile_us"] = static_cast<double>(T.totalNs("compile")) / 1e3;
    Vals["nona.reference_ms"] =
        static_cast<double>(T.totalNs("interpret")) / 1e6;
    Vals["checkpoint.serialize_us"] = MeanUs("serialize");
    Vals["checkpoint.deserialize_us"] = MeanUs("deserialize");
    Vals["telemetry.overhead_frac"] = median(Traced) / Wall - 1.0;
    if (!A.TraceFile.empty() && !T.writeCsv(A.TraceFile))
      Errors.push_back("cannot write the span file " + A.TraceFile);
  }

  // Metrics no pass of this workload produces (another workload's layer)
  // read 0; a non-finite value is a benchmark bug.
  std::map<std::string, std::pair<double, const char *>> Out;
  std::span<const MetricSpec> Specs = EndToEnd;
  if (A.Trace)
    Specs = PerLayer;
  for (const MetricSpec &S : Specs) {
    auto It = Vals.find(S.first);
    double V = It == Vals.end() ? 0.0 : It->second;
    if (!std::isfinite(V)) {
      Errors.push_back(std::string("metric ") + S.first + " is not finite");
      V = 0.0;
    }
    Out[S.first] = {V, S.second};
  }

  // --- Report ------------------------------------------------------------
  std::printf("== perfbench %s seed=%llu trace=%d ==\n", A.Workload.c_str(),
              static_cast<unsigned long long>(A.Seed), A.Trace ? 1 : 0);
  for (const std::string &L : First.Report)
    std::printf("  %s\n", L.c_str());
  std::printf("  passes: %zu untraced (wall_s median %.4f s, %.0f events/s),"
              " %zu traced; setup_s median %.6f s over %zu\n  pass seconds:",
              Untraced.size(), Wall, Events / Wall, Traced.size(),
              median(Setup), Setup.size());
  for (double S : Untraced)
    std::printf(" %.3f", S);
  std::printf("\n");
  std::map<std::string, double> Virtual = First.Outcomes;
  Virtual.insert(First.Layers.begin(), First.Layers.end());
  Virtual["attempted"] = static_cast<double>(First.Attempted);
  Virtual["failed"] = static_cast<double>(First.Failed);
  Virtual["events"] = Events;
  printJson("virtual", Virtual);
  for (const std::string &E : Errors)
    std::printf("CHECK FAIL: %s\n", E.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu,"
              " \"metrics\": {",
              Errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(First.Attempted),
              static_cast<unsigned long long>(First.Failed));
  bool FirstMetric = true;
  for (const auto &[Name, VU] : Out) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                FirstMetric ? "" : ", ", Name.c_str(), VU.first, VU.second);
    FirstMetric = false;
  }
  std::printf("}}\n");
  return Errors.empty() ? 0 : 1;
}
