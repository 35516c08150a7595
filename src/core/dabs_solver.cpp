#include "core/dabs_solver.hpp"

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "device/device_group.hpp"
#include "evolve/diversity_engine.hpp"
#include "rng/seeder.hpp"
#include "util/assert.hpp"

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

void run_synchronous(HostContext& hc, DeviceGroup& group,
                     MersenneSeeder& seeder) {
  const std::size_t devices = group.device_count();
  std::vector<Rng> rngs;
  rngs.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i) rngs.push_back(seeder.next_rng());
  std::vector<std::size_t> rr(devices, 0);
  const auto cancelled = [&hc] { return hc.stopping(); };

  std::uint64_t round = 0;
  while (!hc.check_stop()) {
    const auto i = static_cast<std::uint32_t>(round % devices);
    Packet pkt = hc.make_packet(i, rngs[i]);
    VirtualDevice& dev = group.device(i);
    const Packet out = dev.execute(pkt, rr[i]);
    rr[i] = (rr[i] + 1) % dev.block_count();
    hc.on_result(out);
    hc.engine.maybe_migrate(i, cancelled);
    ++round;
    if (round % (hc.merge_check_interval * devices) == 0) {
      hc.engine.check_restart();
    }
  }
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

  if (cfg.mode == ExecutionMode::kThreaded) {
    run_threaded(hc, group, seeder);
  } else {
    run_synchronous(hc, group, seeder);
  }

  SolveReport r;
  r.best_solution = hc.best;
  r.best_energy = hc.best_energy;
  r.batches = ctx.work();
  r.flips = hc.flips;
  r.restarts = static_cast<std::uint32_t>(engine.restarts());
  ctx.stamp(r);
  engine.fill_extras(r.extras);
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
