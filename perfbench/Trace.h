//===- Trace.h - Host-time spans for the benchmark's traced run -*- C++ -*-===//
//
// Part of the Parcae reproduction's benchmark (perfbench/NOTES.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own span recorder. Spans are taken from the benchmark's
/// files, around its calls into each library layer (runUntil slices, the
/// Nona compiler and interpreter, checkpoint serialization, MakeRegion
/// callbacks, work functors), never from inside the library.
///
/// Every span has a name, a layer, host start/end (steady_clock ns), a
/// parent, and the run id shared by all spans of one process. A layer's
/// self time is its spans' durations minus the part their child spans
/// cover; it is accumulated online so that even the millions of functor
/// spans of a serving pass cost no memory. Only the first MaxStored raw
/// spans are kept for the CSV written at the end.
///
/// Tracing is off unless a Tracer is installed: each span site is then a
/// single null-pointer test.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_PERFBENCH_TRACE_H
#define PARCAE_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The layer a span's self time is charged to.
enum class Layer : unsigned {
  Bench,      ///< the benchmark's own code around the calls
  Sim,        ///< runUntil slices: event core, Machine, morta, serve
  Core,       ///< MakeRegion callbacks (region construction)
  Apps,       ///< work functors (the modelled application code)
  Morta,      ///< controller/runner set-up calls (startFromSnapshot)
  Nona,       ///< CompiledLoop construction (PDG + partitioning + codegen)
  Interp,     ///< CompiledLoop::interpret (the reference semantics)
  Checkpoint, ///< RegionSnapshot serialize / deserialize
  NumLayers
};

const char *layerName(Layer L);

inline std::uint64_t hostNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
public:
  explicit Tracer(std::string RunId) : RunId(std::move(RunId)) {}

  void begin(const char *Name, Layer L);
  void end();

  /// Per-layer self time, in host ns, over everything recorded so far.
  std::uint64_t selfNs(Layer L) const {
    return Self[static_cast<unsigned>(L)];
  }
  /// Completed spans named \p Name and their summed duration in ns.
  std::uint64_t count(std::string_view Name) const;
  std::uint64_t totalNs(std::string_view Name) const;

  /// Writes the stored raw spans as CSV. Returns false on I/O failure.
  bool writeCsv(const std::string &Path) const;

  static constexpr std::size_t MaxStored = 50000;

private:
  struct Open {
    std::uint64_t Id, Parent, Start, ChildNs;
    const char *Name;
    Layer L;
  };
  struct Stored {
    std::uint64_t Id, Parent, Start, End;
    const char *Name;
    Layer L;
  };
  struct ByName {
    std::uint64_t Count = 0, TotalNs = 0;
  };

  std::string RunId;
  std::vector<Open> Stack;
  std::vector<Stored> Spans;
  std::uint64_t NextId = 1;
  std::uint64_t Dropped = 0;
  std::uint64_t Self[static_cast<unsigned>(Layer::NumLayers)] = {};
  std::map<std::string, ByName, std::less<>> Names;
};

/// The installed tracer; null while tracing is off.
extern Tracer *ActiveTracer;

/// RAII span; free when tracing is off.
class Span {
public:
  Span(const char *Name, Layer L) : T(ActiveTracer) {
    if (T)
      T->begin(Name, L);
  }
  ~Span() {
    if (T)
      T->end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
};

} // namespace perfbench

#endif // PARCAE_PERFBENCH_TRACE_H
