#include "core/dabs_solver.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "device/device_group.hpp"
#include "evolve/diversity_engine.hpp"
#include "rng/seeder.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace dabs {

namespace {

/// Seconds a host thread blocks on its outbox when the device inbox is
/// full — long enough to sleep instead of spin, short enough that stop
/// requests are honored within one device batch.
constexpr double kOutboxWaitSeconds = 0.005;

EngineConfig engine_config(const SolverConfig& cfg) {
  EngineConfig e;
  e.islands = cfg.devices;
  e.pool_capacity = cfg.pool_capacity;
  e.algorithms = cfg.algorithms;
  e.operations = cfg.operations;
  e.explore_prob = cfg.explore_prob;
  e.op_params = cfg.op_params;
  e.restart_on_merge = cfg.restart_on_merge;
  e.migration_interval = cfg.migration_interval;
  e.migration_count = cfg.migration_count;
  return e;
}

/// State shared by the host pool threads for one solve() call.  The
/// StopContext's driving-thread surface (should_stop / add_work /
/// note_best) is serialized under `mu` so every host thread can act as the
/// driver; worker-safe polls go through expired() / the `stop` latch.
struct HostContext {
  DiversityEngine& engine;
  StopContext& ctx;
  std::mutex mu;  // guards ctx and the best (solution, energy) pair

  std::atomic<bool> stop{false};

  BitVector best;
  Energy best_energy = kInfiniteEnergy;
  std::uint64_t flips = 0;  // summed over every device result
  std::uint64_t merge_check_interval = 64;

  HostContext(DiversityEngine& e, StopContext& c, std::size_t bits,
              std::uint64_t merge_interval)
      : engine(e), ctx(c), best(bits), merge_check_interval(merge_interval) {}

  /// Worker-safe stop poll for inner loops (migration entries): the latch
  /// plus the thread-safe StopContext subset.  Only once that subset says
  /// stop does it latch through check_stop(), so the StopContext records
  /// whether the token or the clock ended the run; a bare latch here lost
  /// a token's `cancelled`.
  bool stopping() {
    if (stop.load(std::memory_order_acquire)) return true;
    return ctx.expired() && check_stop();
  }

  /// Full driving-thread check: budget, wall clock, token, target, ticks.
  bool check_stop() {
    if (stop.load(std::memory_order_acquire)) return true;
    std::lock_guard lock(mu);
    if (ctx.should_stop()) stop.store(true, std::memory_order_release);
    return stop.load(std::memory_order_relaxed);
  }

  /// Hands a device result to the engine and updates the global best.
  /// note_best() latches the target / TTS and fires on_new_best — the
  /// observer contract (fast, thread-safe) keeps the lock hold short.
  void on_result(const Packet& p) {
    engine.accept_result(p);
    std::lock_guard lock(mu);
    flips += p.flips;
    if (p.energy < best_energy) {
      best_energy = p.energy;
      best = p.solution;
      engine.note_improvement(ctx.elapsed_seconds(), p.energy, p.algo, p.op);
      ctx.note_best(p.energy);
      if (ctx.reached_target()) stop.store(true, std::memory_order_release);
    }
  }

  /// Charges one work unit for a finished batch, then hands its result on.
  void on_batch(const Packet& p) {
    {
      std::lock_guard lock(mu);
      ctx.add_work(1);
    }
    on_result(p);
  }

  /// Builds the next host->device packet for island `i` and charges one
  /// work unit against the batch budget.
  Packet make_packet(std::uint32_t i, Rng& rng) {
    Packet p = engine.next_packet(i, rng);
    std::lock_guard lock(mu);
    ctx.add_work(1);
    return p;
  }
};

void host_pool_thread(HostContext& hc, DeviceGroup& group, std::uint32_t i,
                      std::uint64_t seed) {
  Rng rng(seed);
  VirtualDevice& dev = group.device(i);
  const auto cancelled = [&hc] { return hc.stopping(); };
  std::uint64_t since_merge_check = 0;
  Packet res;
  while (!hc.stop.load(std::memory_order_acquire)) {
    // (a) Retire finished batches.  kClosed means the device already shut
    // down (another thread is tearing the run down) — nothing more to do.
    for (;;) {
      const auto st = dev.outbox().try_pop(res);
      if (st == PacketQueue::PopStatus::kClosed) return;
      if (st != PacketQueue::PopStatus::kItem) break;
      hc.on_result(res);
    }
    if (hc.check_stop()) break;
    // (b) Feed the device.
    Packet pkt = hc.make_packet(i, rng);
    while (!hc.stop.load(std::memory_order_acquire)) {
      if (dev.inbox().try_push(pkt)) break;
      // Inbox full: block on the outbox (bounded wait, no spinning) so the
      // pipeline drains while we hold the un-submitted packet.
      switch (dev.outbox().pop_wait(res, kOutboxWaitSeconds)) {
        case PacketQueue::PopStatus::kItem:
          hc.on_result(res);
          break;
        case PacketQueue::PopStatus::kClosed:
          return;
        case PacketQueue::PopStatus::kEmpty:
          break;
      }
      if (hc.check_stop()) break;
    }
    // (c) Housekeeping: ring migration for this island, merged-ring
    // restart checked by island 0 only.
    hc.engine.maybe_migrate(i, cancelled);
    if (i == 0 && ++since_merge_check >= hc.merge_check_interval) {
      since_merge_check = 0;
      hc.engine.check_restart();
    }
  }
}

void run_threaded(HostContext& hc, DeviceGroup& group,
                  MersenneSeeder& seeder) {
  group.start_all();
  std::vector<std::thread> hosts;
  hosts.reserve(group.device_count());
  const auto seeds = seeder.seeds(group.device_count());
  for (std::uint32_t i = 0; i < group.device_count(); ++i) {
    hosts.emplace_back(host_pool_thread, std::ref(hc), std::ref(group), i,
                       seeds[i]);
  }
  for (auto& t : hosts) t.join();
  group.stop_all();
}

/// Seconds of batch work a synchronous solve runs on its own thread before
/// it starts helpers: below it, starting threads and handing batches over
/// cost more than the overlap saves (a 2-batch service job stays serial).
constexpr double kParallelAfterSeconds = 0.001;
/// Seconds an idle thread of a synchronous solve keeps polling before it
/// parks on a condition variable.  A condvar wake-up can take about a
/// millisecond on a VM, longer than many batches.
constexpr double kSpinSeconds = 0.002;
/// Pause-instruction polls before the spin falls back to yielding the CPU.
constexpr int kPauseSpins = 256;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Polls `ready` for up to kSpinSeconds; false when it never turned true.
template <typename Ready>
bool spin_until(Ready ready) {
  for (int i = 0; i < kPauseSpins; ++i) {
    if (ready()) return true;
    cpu_relax();
  }
  const Stopwatch clock;
  while (clock.elapsed_seconds() < kSpinSeconds) {
    if (ready()) return true;
    std::this_thread::yield();
  }
  return ready();
}

/// The CPUs the calling thread may run on, other than the one it runs on
/// now, in order from the next one up.  Empty where the platform does not
/// say.
std::vector<int> other_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  const int here = std::max(0, sched_getcpu());
  for (int k = 1; k < CPU_SETSIZE; ++k) {
    const int cpu = (here + k) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
#endif
  return cpus;
}

/// How many batches of one synchronous solve may run at once: one per
/// island, at most one per CPU the solve may use.
std::size_t batch_width(std::size_t islands) {
#if defined(__linux__)
  // Not hardware_concurrency(): glibc reads it from /sys, about 4 us, a
  // few percent of a 2-batch service job.
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    return std::min<std::size_t>(islands, std::max(1, CPU_COUNT(&allowed)));
  }
#endif
  return std::min<std::size_t>(
      islands, std::max(1u, std::thread::hardware_concurrency()));
}

/// Moves the calling thread onto `cpu`, then lets it run on every CPU it
/// was allowed before.  A new thread starts on its creator's CPU, and on
/// a 4-vCPU VM the scheduler left such threads sharing that one CPU for
/// up to a second, longer than a whole solve.
void move_to(int cpu) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (cpu < 0 || sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0) {
    sched_setaffinity(0, sizeof allowed, &allowed);
  }
#else
  (void)cpu;
#endif
}

/// One round's batch on its way through a BatchCrew.
struct Slot {
  enum State : int { kFree, kQueued, kRunning, kDone };
  std::atomic<int> state{kFree};
  Packet packet;  // the target in, the result out
  VirtualDevice* device = nullptr;
  std::size_t block = 0;
  std::uint8_t serialized = 0;  // SerializedBy bits; driver only
  std::exception_ptr error;
};

/// The batches of one synchronous solve that are in flight, and the helper
/// threads that run them.  Only the driver thread posts and collects slots;
/// any thread, the driver included, claims a queued slot and runs it.  A
/// slot is handed over by its state: the packet is written before the
/// store of kQueued, the result before the store of kDone.
class BatchCrew {
 public:
  explicit BatchCrew(std::size_t width) : slots_(width) {}
  ~BatchCrew() {
    cancel_all();
    {
      std::lock_guard lock(mu_);
      shutdown_.store(true);
    }
    work_cv_.notify_all();
    for (auto& t : helpers_) t.join();
  }

  BatchCrew(const BatchCrew&) = delete;
  BatchCrew& operator=(const BatchCrew&) = delete;

  std::size_t width() const noexcept { return slots_.size(); }
  Slot& slot(std::uint64_t round) { return slots_[round % slots_.size()]; }

  /// Starts up to width() - 1 helper threads, each on another CPU than
  /// the driver's; with fewer (thread creation failed) the driver runs the
  /// rest itself.
  void hire() {
    hired_ = true;
    const std::vector<int> cpus = other_cpus();
    helpers_.reserve(slots_.size());
    try {
      while (helpers_.size() + 1 < slots_.size()) {
        const int cpu =
            cpus.empty() ? -1 : cpus[helpers_.size() % cpus.size()];
        searching_.fetch_add(1);
        helpers_.emplace_back([this, cpu] {
          move_to(cpu);
          helper_loop();
        });
      }
    } catch (const std::system_error&) {
      searching_.fetch_sub(1);
    }
  }
  bool hired() const noexcept { return hired_; }

  /// Queues a filled slot and wakes a parked helper.
  void post(Slot& s) {
    s.state.store(Slot::kQueued, std::memory_order_release);
    posted_.fetch_add(1);
    if (parked_helpers_.load() > 0) {
      std::lock_guard lock(mu_);
      work_cv_.notify_one();
    }
  }

  /// Returns once `s` has run.  Meanwhile the driver runs a queued slot
  /// itself only when no helper is looking for work, because while it runs
  /// a batch it builds no new ones.  Rethrows what the batch threw.
  void collect(Slot& s) {
    const auto done = [&s] { return s.state.load() == Slot::kDone; };
    const auto claimable = [&] {
      return done() || (searching_.load() == 0 && queued());
    };
    for (;;) {
      if (done()) break;
      if (searching_.load() == 0) {
        if (claim(s)) {
          run(s);
          break;
        }
        if (Slot* other = claim_any()) {
          run(*other);
          continue;
        }
      }
      if (spin_until(claimable)) continue;
      // Nothing to run here: `s` is running, or a searching helper is about
      // to claim it.  Either way a helper finishes it and wakes us.
      park_until_done(s);
      break;
    }
    s.state.store(Slot::kFree, std::memory_order_relaxed);
    if (s.error) std::rethrow_exception(std::exchange(s.error, nullptr));
  }

  /// Drops every queued slot and ends every running batch between its
  /// phases; returns once no batch is running.
  void cancel_all() {
    cancel_.store(true, std::memory_order_relaxed);
    for (Slot& s : slots_) {
      if (!claim(s) && s.state.load() != Slot::kFree &&
          !spin_until([&s] { return s.state.load() == Slot::kDone; })) {
        park_until_done(s);
      }
      s.state.store(Slot::kFree, std::memory_order_relaxed);
    }
  }

 private:
  static bool claim(Slot& s) {
    int queued = Slot::kQueued;
    return s.state.compare_exchange_strong(queued, Slot::kRunning,
                                           std::memory_order_acquire);
  }

  bool queued() const {
    for (const Slot& s : slots_) {
      if (s.state.load(std::memory_order_relaxed) == Slot::kQueued) {
        return true;
      }
    }
    return false;
  }

  Slot* claim_any() {
    for (Slot& s : slots_) {
      if (claim(s)) return &s;
    }
    return nullptr;
  }

  void park_until_done(Slot& s) {
    std::unique_lock lock(mu_);
    driver_parked_.store(true);
    done_cv_.wait(lock, [&s] { return s.state.load() == Slot::kDone; });
    driver_parked_.store(false);
  }

  void run(Slot& s) {
    try {
      s.packet = s.device->execute(s.packet, s.block, &cancel_);
    } catch (...) {
      s.error = std::current_exception();
    }
    s.state.store(Slot::kDone);
    if (driver_parked_.load()) {
      std::lock_guard lock(mu_);
      done_cv_.notify_one();
    }
  }

  /// A helper counts in searching_ except while it runs a batch or parks.
  void helper_loop() {
    for (;;) {
      const std::uint64_t seen = posted_.load();
      if (Slot* s = claim_any()) {
        searching_.fetch_sub(1);
        run(*s);
        searching_.fetch_add(1);
        continue;
      }
      const auto woken = [&] { return shutdown_.load() || queued(); };
      if (spin_until(woken)) {
        if (shutdown_.load()) break;
        continue;
      }
      std::unique_lock lock(mu_);
      searching_.fetch_sub(1);
      parked_helpers_.fetch_add(1);
      work_cv_.wait(lock, [&] {
        return shutdown_.load() || posted_.load() != seen;
      });
      parked_helpers_.fetch_sub(1);
      searching_.fetch_add(1);
      if (shutdown_.load()) break;
    }
    searching_.fetch_sub(1);
  }

  std::vector<Slot> slots_;
  std::vector<std::thread> helpers_;
  bool hired_ = false;
  std::atomic<bool> cancel_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<int> searching_{0};
  // Parking protocol: a parker bumps its flag or counter under mu_ and
  // re-checks its condition before waiting; a waker changes the condition,
  // then reads the flag (both sequentially consistent) and notifies under
  // mu_, so one of the two always sees the other.
  std::atomic<std::uint64_t> posted_{0};
  std::atomic<int> parked_helpers_{0};
  std::atomic<bool> driver_parked_{false};
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
};

/// Why a round's packet had to wait for an earlier fold than its own
/// island's previous round.
enum SerializedBy : std::uint8_t {
  kByXrossover = 1,
  kByMigration = 2,
  kByRestart = 4,
};

struct SynchronousStats {
  std::size_t batch_threads = 1;
  std::uint64_t serialized_xrossover = 0;
  std::uint64_t serialized_migration = 0;
  std::uint64_t serialized_restart = 0;
};

/// The round-robin loop: round s runs island s mod I, and rounds are
/// folded (work charged, result handed to the engine, migration, restart
/// check, stop check) strictly in round order, so the trajectory is the
/// one-thread loop's whatever the timing.  Up to min(I, cores) batches run
/// at once: round s's packet is built only once every pool it reads is
/// final, that is once these rounds are folded:
///   - island i's previous round (at most one batch per island in flight,
///     so blocks are never shared);
///   - round s - 1, if it is due to migrate into pool i;
///   - island i+1's previous round, if the op drawn is Xrossover;
///   - the latest restart-check round.
/// All engine and StopContext work stays on this thread.
SynchronousStats run_synchronous(HostContext& hc, DeviceGroup& group,
                                 MersenneSeeder& seeder) {
  DiversityEngine& engine = hc.engine;
  const std::uint64_t islands = group.device_count();
  std::vector<Rng> rngs;
  rngs.reserve(islands);
  for (std::size_t i = 0; i < islands; ++i) rngs.push_back(seeder.next_rng());
  std::vector<std::size_t> rr(islands, 0);
  const auto cancelled = [&hc] { return hc.stopping(); };
  const std::uint64_t check_every = hc.merge_check_interval * islands;
  const bool restarts = engine.config().restart_on_merge;
  const std::uint64_t max_batches = hc.ctx.condition().max_batches;
  const std::uint64_t budget =
      max_batches == 0 ? std::numeric_limits<std::uint64_t>::max()
                       : max_batches;

  SynchronousStats stats;
  stats.batch_threads = batch_width(islands);
  BatchCrew crew(stats.batch_threads);

  std::uint64_t generated = 0;
  std::uint64_t folded = 0;
  bool last_migrates = false;  // round generated - 1 migrates at its fold
  struct Pending {
    PacketChoice choice;
    std::uint8_t by;
  };
  std::optional<Pending> pending;  // round `generated`'s draw, not yet built

  // Builds and posts round `generated`; false while a pool it reads still
  // awaits a fold.  The window (at most I rounds past the last fold) keeps
  // island i's previous round folded.
  const auto generate = [&]() -> bool {
    const std::uint64_t s = generated;
    const auto i = static_cast<std::size_t>(s % islands);
    if (!pending) {
      std::uint8_t by = 0;
      if (last_migrates) {
        if (folded < s) return false;
        by |= kByMigration;
      }
      if (restarts && s >= check_every) {
        const std::uint64_t check = s / check_every * check_every - 1;
        if (folded <= check) return false;
        if (check + islands > s) by |= kByRestart;
      }
      pending = Pending{engine.select(i, rngs[i]), by};
    }
    if (pending->choice.op == GeneticOp::kXrossover && islands > 1 &&
        s + 1 >= islands) {
      // Island i+1's previous round is s - I + 1.
      if (folded + islands < s + 2) return false;
      pending->by |= kByXrossover;
    }
    Slot& slot = crew.slot(s);
    slot.packet = engine.build_packet(i, pending->choice, rngs[i]);
    slot.device = &group.device(i);
    slot.block = rr[i];
    rr[i] = (rr[i] + 1) % slot.device->block_count();
    slot.serialized = pending->by;
    pending.reset();
    last_migrates = engine.migration_due(i);
    crew.post(slot);
    ++generated;
    return true;
  };

  double serial_seconds = 0.0;
  while (!hc.check_stop()) {
    const std::uint64_t window = crew.hired() ? crew.width() : 1;
    while (generated < budget && generated - folded < window && generate()) {
    }
    if (generated == folded) break;  // the budget is spent and folded
    Slot& slot = crew.slot(folded);
    if (crew.hired() || crew.width() == 1) {
      crew.collect(slot);
    } else {
      const Stopwatch clock;
      crew.collect(slot);
      serial_seconds += clock.elapsed_seconds();
      if (serial_seconds >= kParallelAfterSeconds) crew.hire();
    }

    engine.count_packet(slot.packet);
    hc.on_batch(slot.packet);
    engine.maybe_migrate(slot.packet.pool_index, cancelled);
    const std::uint8_t by = slot.serialized;
    stats.serialized_xrossover += (by & kByXrossover) != 0;
    stats.serialized_migration += (by & kByMigration) != 0;
    stats.serialized_restart += (by & kByRestart) != 0;
    if (++folded % check_every == 0) engine.check_restart();
  }
  crew.cancel_all();  // rounds built past the stop are dropped unfolded
  return stats;
}

/// One full framework run driven through the unified stop/progress
/// protocol; both execution modes share the HostContext surface, so
/// synchronous runs stay bit-identical with or without token/observer.
SolveReport run_dabs(const SolverConfig& cfg, const QuboModel& model,
                     StopContext& ctx) {
  DABS_CHECK(model.size() > 0, "cannot solve an empty model");
  DABS_CHECK(!cfg.stop.unbounded(),
             "refusing an unbounded run: set a target energy, time limit, "
             "work budget, or cancel via a bounded request");
  MersenneSeeder seeder(cfg.seed);
  DiversityEngine engine(engine_config(cfg), model.size(), seeder);
  DeviceGroup group(model, cfg.devices, cfg.device, seeder);
  HostContext hc(engine, ctx, model.size(), cfg.merge_check_interval);

  // Seed the pools (and the global best) with any warm-start solutions.
  for (std::size_t i = 0; i < cfg.warm_start.size(); ++i) {
    const BitVector& x = cfg.warm_start[i];
    DABS_CHECK(x.size() == model.size(),
               "warm-start solution length mismatch");
    Packet p;
    p.solution = x;
    p.energy = model.energy(x);
    p.algo = cfg.algorithms[i % cfg.algorithms.size()];
    p.op = cfg.operations[i % cfg.operations.size()];
    p.pool_index = static_cast<std::uint32_t>(i % cfg.devices);
    hc.on_result(p);
  }

  // A run cancelled before the first device result must still report a
  // real (solution, energy) pair, so fold one evaluated initial pool
  // entry into the global best exactly like a warm start.
  if (hc.best_energy == kInfiniteEnergy) {
    const PoolEntry first = engine.ring().pool(0).entry(0);
    Packet p;
    p.solution = first.solution;
    p.energy = model.energy(p.solution);
    p.algo = first.algo;
    p.op = first.op;
    p.pool_index = 0;
    hc.on_result(p);
  }

  std::optional<SynchronousStats> sync;
  if (cfg.mode == ExecutionMode::kThreaded) {
    run_threaded(hc, group, seeder);
  } else {
    sync = run_synchronous(hc, group, seeder);
  }

  SolveReport r;
  r.best_solution = hc.best;
  r.best_energy = hc.best_energy;
  r.batches = ctx.work();
  r.flips = hc.flips;
  r.restarts = static_cast<std::uint32_t>(engine.restarts());
  ctx.stamp(r);
  engine.fill_extras(r.extras);
  if (sync) {
    r.extras["batch_threads"] = std::to_string(sync->batch_threads);
    r.extras["serialized_rounds_xrossover"] =
        std::to_string(sync->serialized_xrossover);
    r.extras["serialized_rounds_migration"] =
        std::to_string(sync->serialized_migration);
    r.extras["serialized_rounds_restart"] =
        std::to_string(sync->serialized_restart);
  }
  return r;
}

}  // namespace

DabsSolver::DabsSolver(SolverConfig config) : config_(std::move(config)) {
  config_.validate();
}

SolveReport DabsSolver::solve(const SolveRequest& request) {
  const QuboModel& model = request_model(request);
  SolverConfig cfg = config_;
  if (!request.stop.unbounded()) cfg.stop = request.stop;
  if (request.seed) cfg.seed = *request.seed;
  if (!request.warm_start.empty()) cfg.warm_start = request.warm_start;
  StopContext ctx(cfg.stop, request.stop_token, request.observer,
                  request.tick_seconds);
  SolveReport report = run_dabs(cfg, model, ctx);
  report.solver = name();
  return report;
}

}  // namespace dabs
