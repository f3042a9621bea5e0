// M1: google-benchmark microbenchmarks of the simulation substrate.
//
// These measure the wall-clock cost of the hot data structures — the
// event queue, the update queue, the database apply path — and the
// end-to-end simulation rate (simulated seconds per wall second) for
// each scheduling policy at the paper baseline.

#include <memory>
#include <optional>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/config.h"
#include "core/system.h"
#include "db/database.h"
#include "db/staleness.h"
#include "db/update_queue.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "txn/ready_queue.h"

namespace {

using namespace strip;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue queue;
  sim::RandomStream random(base::RngSeed(7));
  double t = 0;
  int dummy = 0;
  // Keep a standing population so heap depth is realistic.
  for (int i = 0; i < 1024; ++i) {
    queue.Schedule(t + random.Uniform(0, 10), [&dummy] { ++dummy; });
  }
  for (auto _ : state) {
    queue.Schedule(t + random.Uniform(0, 10), [&dummy] { ++dummy; });
    auto fired = queue.PopNext();
    t = fired->time;
    fired->callback();
    benchmark::DoNotOptimize(dummy);
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueueCancel(benchmark::State& state) {
  sim::EventQueue queue;
  int dummy = 0;
  for (auto _ : state) {
    auto handle = queue.Schedule(1.0, [&dummy] { ++dummy; });
    benchmark::DoNotOptimize(queue.Cancel(handle));
  }
}
BENCHMARK(BM_EventQueueCancel);

db::Update MakeUpdate(std::uint64_t id, sim::RandomStream& random) {
  db::Update u;
  u.id = base::UpdateId(id);
  u.object = {random.WithProbability(0.5)
                  ? db::ObjectClass::kLowImportance
                  : db::ObjectClass::kHighImportance,
              random.UniformInt(0, 499)};
  u.generation_time = random.Uniform(0, 1000);
  u.arrival_time = u.generation_time + 0.1;
  return u;
}

void BM_UpdateQueuePushPop(benchmark::State& state) {
  db::UpdateQueue queue(5600);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  for (int i = 0; i < 2800; ++i) queue.Push(MakeUpdate(++id, random));
  for (auto _ : state) {
    queue.Push(MakeUpdate(++id, random));
    benchmark::DoNotOptimize(queue.PopOldest());
  }
}
BENCHMARK(BM_UpdateQueuePushPop);

void BM_UpdateQueuePeekNewestFor(benchmark::State& state) {
  db::UpdateQueue queue(5600);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  for (int i = 0; i < 2800; ++i) queue.Push(MakeUpdate(++id, random));
  for (auto _ : state) {
    const db::ObjectId object = {db::ObjectClass::kLowImportance,
                                 random.UniformInt(0, 499)};
    benchmark::DoNotOptimize(queue.PeekNewestFor(object));
  }
}
BENCHMARK(BM_UpdateQueuePeekNewestFor);

db::Update MakeUpdateAt(std::uint64_t id, double generation,
                        sim::RandomStream& random) {
  db::Update u = MakeUpdate(id, random);
  u.generation_time = generation;
  u.arrival_time = generation + 0.1;
  return u;
}

// The On Demand baseline's queue traffic: near-in-order arrivals at
// 400 updates/s, a Maximum-Age purge of the expired front (alpha = 7 s)
// at every arrival, a peek-and-remove for an on-demand read every
// fourth arrival and an updater pop every eighth, over 1000 objects.
void BM_UpdateQueueOdMix(benchmark::State& state) {
  constexpr double kStep = 0.0025;
  constexpr double kAlpha = 7.0;
  db::UpdateQueue queue(5600);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  double t = 0;
  for (int i = 0; i < 2800; ++i) {
    queue.Push(MakeUpdateAt(++id, t += kStep, random));
  }
  for (auto _ : state) {
    t += kStep;
    queue.Push(MakeUpdateAt(++id, t - random.Uniform(0, 0.01), random));
    benchmark::DoNotOptimize(queue.PurgeGeneratedBefore(t - kAlpha));
    if ((id & 3) == 0) {
      const db::Update probe = MakeUpdate(0, random);
      if (const auto u = queue.PeekNewestFor(probe.object)) {
        benchmark::DoNotOptimize(queue.Remove(*u));
      }
    }
    if ((id & 7) == 0) benchmark::DoNotOptimize(queue.PopOldest());
  }
}
BENCHMARK(BM_UpdateQueueOdMix);

void BM_DatabaseApply(benchmark::State& state) {
  db::Database database(500, 500);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  double t = 0;
  for (auto _ : state) {
    db::Update u = MakeUpdate(++id, random);
    u.generation_time = (t += 0.001);
    benchmark::DoNotOptimize(database.Apply(u));
  }
}
BENCHMARK(BM_DatabaseApply);

// A database write of `object` at generation `t`, reported to the
// tracker as core::System reports it.
void Install(db::Database& database, db::StalenessTracker& tracker,
             db::ObjectId object, double t) {
  db::Update u;
  u.object = object;
  u.generation_time = t;
  u.arrival_time = t;
  if (database.Apply(u)) tracker.OnApply(u);
}

void BM_StalenessTrackerApply(benchmark::State& state) {
  sim::Simulator simulator;
  db::Database database(500, 500);
  db::StalenessTracker tracker(&simulator, &database, nullptr,
                               db::StalenessCriterion::kMaxAge, 7.0);
  sim::RandomStream random(base::RngSeed(7));
  double t = 0;
  for (auto _ : state) {
    t += 0.0025;
    // Advance the clock so the tracker applies due expiries and pops
    // superseded heap entries, as in a real run.
    simulator.RunUntil(t);
    Install(database, tracker,
            {db::ObjectClass::kLowImportance, random.UniformInt(0, 499)}, t);
    benchmark::DoNotOptimize(tracker.StaleCount(
        db::ObjectClass::kLowImportance));
  }
}
BENCHMARK(BM_StalenessTrackerApply);

// A cluster-scale tracker's whole life: build 10^6 MA objects, then
// apply a steady stream through alpha + 1, so the t = 0 cohort expires
// once and the stream's own expiries start to fall due.
void BM_StalenessTrackerMillionObjects(benchmark::State& state) {
  constexpr int kPerClass = 500000;
  constexpr double kStep = 0.0025;
  constexpr int kSteps = 3200;  // through t = 8 = alpha + 1
  sim::RandomStream random(base::RngSeed(7));
  for (auto _ : state) {
    sim::Simulator simulator;
    db::Database database(kPerClass, kPerClass);
    db::StalenessTracker tracker(&simulator, &database, nullptr,
                                 db::StalenessCriterion::kMaxAge, 7.0);
    for (int step = 1; step <= kSteps; ++step) {
      const double t = step * kStep;
      simulator.RunUntil(t);
      Install(database, tracker,
              {db::ObjectClass::kLowImportance,
               random.UniformInt(0, kPerClass - 1)},
              t);
      benchmark::DoNotOptimize(tracker.StaleCount(
          db::ObjectClass::kLowImportance));
    }
  }
}
BENCHMARK(BM_StalenessTrackerMillionObjects)->Unit(benchmark::kMillisecond);

// One install as core::System makes it, on a random object of an
// n-object table: the worthiness check when the update is picked, the
// database write and the tracker update under MA. The clock advances
// 2.5 ms per install, so expiries fall due and the heap stays live.
void BM_ObjectTableInstall(benchmark::State& state) {
  const int per_class = static_cast<int>(state.range(0)) / 2;
  constexpr double kStep = 0.0025;
  sim::Simulator simulator;
  db::Database database(per_class, per_class);
  db::StalenessTracker tracker(&simulator, &database, nullptr,
                               db::StalenessCriterion::kMaxAge, 7.0);
  sim::RandomStream random(base::RngSeed(7));
  double t = 0;
  for (auto _ : state) {
    t += kStep;
    simulator.RunUntil(t);
    db::Update u;
    u.object = {random.WithProbability(0.5)
                    ? db::ObjectClass::kLowImportance
                    : db::ObjectClass::kHighImportance,
                random.UniformInt(0, per_class - 1)};
    u.generation_time = t - random.Uniform(0, 0.5);
    u.arrival_time = t;
    const bool written = database.IsWorthy(u) && database.Apply(u);
    if (written) tracker.OnApply(u);
    benchmark::DoNotOptimize(written);
  }
}
BENCHMARK(BM_ObjectTableInstall)->Arg(10000)->Arg(1000000);

// The Unapplied-Update bookkeeping and check: per iteration one
// update enters the queue, the oldest leaves it (each reported to the
// tracker), and one random object is checked, against a standing
// queue of 2800 updates over 1000 objects.
void BM_StalenessTrackerUuCheck(benchmark::State& state) {
  constexpr double kStep = 0.0025;
  sim::Simulator simulator;
  db::UpdateQueue queue(5600);
  db::Database database(500, 500);
  db::StalenessTracker tracker(&simulator, &database, &queue,
                               db::StalenessCriterion::kUnappliedUpdate,
                               0.0);
  sim::RandomStream random(base::RngSeed(7));
  std::uint64_t id = 0;
  double t = 0;
  for (int i = 0; i < 2800; ++i) {
    const db::Update u = MakeUpdateAt(++id, t += kStep, random);
    queue.Push(u);
    tracker.OnEnqueued(u);
  }
  for (auto _ : state) {
    const db::Update u =
        MakeUpdateAt(++id, (t += kStep) - random.Uniform(0, 0.01), random);
    queue.Push(u);
    tracker.OnEnqueued(u);
    const std::optional<db::Update> oldest = queue.PopOldest();
    tracker.OnRemovedFromQueue(*oldest);
    benchmark::DoNotOptimize(tracker.IsStale(MakeUpdate(0, random).object));
  }
}
BENCHMARK(BM_StalenessTrackerUuCheck);

void BM_ReadyQueuePopBest(benchmark::State& state) {
  sim::RandomStream random(base::RngSeed(7));
  std::vector<std::unique_ptr<txn::Transaction>> pool;
  for (int i = 0; i < 32; ++i) {
    txn::Transaction::Params p;
    p.id = base::TxnId(i);
    p.value = random.Uniform(0.5, 2.5);
    p.deadline = random.Uniform(1, 2);
    p.computation_instructions = random.Uniform(1e6, 1e7);
    pool.push_back(std::make_unique<txn::Transaction>(p));
  }
  txn::ReadyQueue queue;
  for (auto& t : pool) queue.Add(t.get());
  for (auto _ : state) {
    txn::Transaction* best = queue.PopBest(50e6);
    benchmark::DoNotOptimize(best);
    queue.Add(best);
  }
}
BENCHMARK(BM_ReadyQueuePopBest);

// Simulated seconds per wall second for a full baseline run.
void BM_SystemBaseline(benchmark::State& state) {
  const auto policy = static_cast<core::PolicyKind>(state.range(0));
  for (auto _ : state) {
    core::Config config;
    config.policy = policy;
    config.sim_seconds = 20.0;
    sim::Simulator simulator;
    core::System system(&simulator, config, base::RngSeed(1));
    benchmark::DoNotOptimize(system.Run());
  }
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      20.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemBaseline)
    ->Arg(static_cast<int>(core::PolicyKind::kUpdateFirst))
    ->Arg(static_cast<int>(core::PolicyKind::kTransactionFirst))
    ->Arg(static_cast<int>(core::PolicyKind::kSplitUpdates))
    ->Arg(static_cast<int>(core::PolicyKind::kOnDemand))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
