//===- Api.h - The Chapter 5 application-developer API ----------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programmer-facing Parcae API of Chapter 5, with the paper's names
/// (Figure 5.1 and Table 5.1): Task built from a Functor plus LoadCB /
/// InitCB / FiniCB callbacks, TaskDescriptor (SEQ | PAR, optionally with
/// nested ParDescriptors), ParDescriptor as an ordered array of
/// interacting tasks, and the Parcae facade with create / launch /
/// destroy plus the mechanism-developer queries getExecTime / getLoad /
/// registerCB / getValue (Figure 5.8).
///
/// A ParDescriptor's task array is lowered to a pipeline region (its
/// tasks interact through MTCG-style channels in array order, like the
/// ferret and transcode pipelines of the paper); Morta's controller then
/// owns the configuration for the region's lifetime. The functor returns
/// task_iterating / task_complete per instance, exactly Algorithm 2's
/// contract; task_paused is produced by the runtime, never by user code.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_CORE_API_H
#define PARCAE_CORE_API_H

#include "decima/Monitor.h"
#include "morta/Controller.h"
#include "morta/RegionRunner.h"
#include "morta/Watchdog.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace parcae::api {

/// The paper's TaskStatus values (Figure 5.1).
using rt::TaskStatus;
constexpr TaskStatus task_iterating = TaskStatus::Iterating;
constexpr TaskStatus task_paused = TaskStatus::Paused;
constexpr TaskStatus task_complete = TaskStatus::Complete;

class Parcae;
class Task;
struct ParDescriptor;

/// TaskType: SEQ tasks run on one thread; PAR tasks on a varying team.
enum class TaskType { SEQ, PAR };

/// What one dynamic task instance sees (the functor's argument). Wraps
/// the runtime iteration context and exposes the paper's begin()/end()
/// monitoring hooks.
class Instance {
public:
  explicit Instance(rt::IterationContext &Ctx) : Ctx(Ctx) {}

  /// Iteration index of this instance.
  std::uint64_t index() const { return Ctx.Seq; }
  /// Team slot executing it.
  unsigned slot() const { return Ctx.Slot; }
  /// Input value from the previous task in the ParDescriptor (or the
  /// work-item id for the first task).
  std::int64_t input() const {
    return Ctx.In.empty() ? 0 : Ctx.In[0].Value;
  }
  /// Output value forwarded to the next task.
  void output(std::int64_t V) {
    for (rt::Token &T : Ctx.Out)
      T.Value = V;
  }

  /// Marks the start/end of the CPU-intensive part (Table 5.1's
  /// Task::begin / Task::end). Everything between contributes \p Cycles
  /// of compute, measured by Decima's hooks.
  void begin() { InBlock = true; }
  void compute(sim::SimTime Cycles) { Ctx.Cost += Cycles; }
  void end() { InBlock = false; }

  /// Declares a critical section (commutative update).
  void critical(int LockId, sim::SimTime Cycles) {
    Ctx.Criticals.push_back({LockId, Cycles});
  }

  /// The raw runtime context, for advanced uses.
  rt::IterationContext &raw() { return Ctx; }

private:
  rt::IterationContext &Ctx;
  bool InBlock = false;
};

/// The task functor: the task's functionality, invoked per instance;
/// returns task_iterating or task_complete (Figure 5.2).
using Functor = std::function<TaskStatus(Instance &)>;
/// Current workload on the task (queue occupancy).
using LoadCB = std::function<double()>;
/// Run when the task is (re)activated / paused (Section 5.1.1).
using InitCB = std::function<void()>;
using FiniCB = std::function<void()>;

/// Describes a task's type and (optionally) the nested parallelism
/// choices of an inner loop (Figure 5.1's TaskDescriptor).
struct TaskDescriptor {
  TaskType Type = TaskType::SEQ;
  /// Nested descriptors: alternative parallelizations of the task's
  /// inner loop the run-time may choose among.
  std::vector<const ParDescriptor *> Pd;

  explicit TaskDescriptor(TaskType T) : Type(T) {}
  TaskDescriptor(TaskType T, const ParDescriptor *Inner) : Type(T) {
    if (Inner)
      Pd.push_back(Inner);
  }
};

/// A task: control (supplied by Morta's TaskExecutor) is separated from
/// functionality (the functor) — Figure 5.2.
class Task {
public:
  Task(std::string Name, Functor Fn, LoadCB Load, TaskDescriptor Desc,
       InitCB Init = nullptr, FiniCB Fini = nullptr)
      : Name(std::move(Name)), Fn(std::move(Fn)), Load(std::move(Load)),
        Desc(std::move(Desc)), Init(std::move(Init)), Fini(std::move(Fini)) {
    assert(this->Fn && "task requires a functor");
  }

  const std::string &name() const { return Name; }
  const TaskDescriptor &descriptor() const { return Desc; }

private:
  friend class Parcae;
  std::string Name;
  Functor Fn;
  LoadCB Load;
  TaskDescriptor Desc;
  InitCB Init;
  FiniCB Fini;
};

/// An ordered array of interacting tasks (Figure 5.1): adjacent tasks
/// communicate over point-to-point channels.
struct ParDescriptor {
  std::vector<Task *> Tasks;

  explicit ParDescriptor(std::vector<Task *> Tasks)
      : Tasks(std::move(Tasks)) {
    assert(!this->Tasks.empty() && "ParDescriptor needs at least one task");
  }
};

/// The run-time facade of Table 5.1 plus the Figure 5.8 mechanism API.
class Parcae {
public:
  /// Creates the run-time system on a machine.
  static std::unique_ptr<Parcae> create(sim::Machine &M,
                                        const rt::RuntimeCosts &Costs);
  static void destroy(std::unique_ptr<Parcae> System) { System.reset(); }

  ~Parcae();

  /// Registers the region described by \p Pd, feeds it from \p Work, and
  /// runs it under the Morta controller until the simulator drains (the
  /// paper's blocking Parcae::launch). Returns the controller used.
  /// Passing \p Watchdog arms Morta's liveness watchdog over the run —
  /// required when the machine has a fault plan installed (a dead core
  /// otherwise stalls the region forever).
  rt::RegionController &launch(const ParDescriptor &Pd,
                               rt::WorkSource &Work,
                               unsigned ThreadBudget = 0,
                               const rt::WatchdogParams *Watchdog = nullptr);

  // --- Figure 5.8: application features --------------------------------
  /// Average compute cycles per instance of \p T in the running region.
  double getExecTime(const Task *T) const;
  /// Current workload on \p T (its LoadCB, or its input-queue occupancy).
  double getLoad(const Task *T) const;

  // --- Figure 5.8: platform features ------------------------------------
  void registerCB(const std::string &Feature, std::function<double()> CB) {
    Monitor.registerFeature(Feature, std::move(CB));
  }
  double getValue(const std::string &Feature) const {
    return Monitor.getValue(Feature);
  }
  /// Probes a feature that may not be registered on this platform.
  std::optional<double> tryGetValue(const std::string &Feature) const {
    return Monitor.tryGetValue(Feature);
  }

  /// The lowered flexible region (inspection/testing).
  rt::FlexibleRegion &region() {
    assert(Region && "launch() first");
    return *Region;
  }
  rt::RegionRunner &runner() {
    assert(Runner && "launch() first");
    return *Runner;
  }

private:
  Parcae(sim::Machine &M, const rt::RuntimeCosts &Costs)
      : M(M), Costs(Costs) {}

  sim::Machine &M;
  const rt::RuntimeCosts &Costs;
  rt::Decima Monitor;
  std::unique_ptr<rt::FlexibleRegion> Region;
  std::unique_ptr<rt::RegionRunner> Runner;
  std::unique_ptr<rt::RegionController> Controller;
  std::unique_ptr<rt::Watchdog> Dog;
  std::vector<const Task *> LoweredTasks; ///< index-aligned with region
};

} // namespace parcae::api

#endif // PARCAE_CORE_API_H
