// k2000-tts, qasp-islands and k2000-bulk: Solver::solve driven directly.
//
// The two TTS workloads run the bit-reproducible synchronous DABS path: a
// trial's trajectory depends only on its seed, and every run draws its
// trials from one fixed set of trial seeds (the workload seed only orders
// them), so every run replays the same trajectories and only their speed
// varies.  A random trial set per workload seed would make the TTS
// percentiles sampling noise: a few hundred trials of a heavy-tailed
// batches-to-target distribution move their median by several percent.  Their
// traced run re-executes every trial through a copy of the synchronous
// driver loop (run_dabs + run_synchronous in src/core/dabs_solver.cpp)
// built from public classes, with a span around each layer call, and
// refuses to report when the copy and Solver::solve disagree on batches or
// best energy for any trial.  k2000-bulk runs the threaded bulk engine,
// whose trajectory depends on thread interleaving, so it runs fixed work;
// its traced run adds a single-threaded full-lane replay of the same work.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/solve_report.hpp"
#include "core/solver_config.hpp"
#include "core/solver_registry.hpp"
#include "evolve/diversity_engine.hpp"
#include "problems/problem_registry.hpp"
#include "rng/seeder.hpp"
#include "search/batch_search.hpp"
#include "search/bulk_batch_search.hpp"
#include "spans.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dabs::BitVector;
using dabs::Energy;

/// DABS knobs a workload sets.  The registry options and the replay's
/// SolverConfig both derive from this one struct, so they cannot drift
/// apart; every other setting is the SolverConfig default on both sides.
struct DabsKnobs {
  std::size_t islands = 2;
  std::uint32_t blocks = 4;
  std::uint32_t replicas = 1;
  double b = 1.0;
  std::uint64_t migrate = 0;
  std::size_t migrants = 1;
};

struct SolverWorkload {
  const char* problem;
  std::vector<std::pair<std::string, std::string>> params;
  DabsKnobs knobs;
  /// TTS workloads stop at this energy; unset = fixed work.
  std::optional<Energy> target;
  /// Batch cap of a TTS trial, or the fixed work of a bulk solve.
  std::uint64_t max_batches;
  /// TTS trials per second of --seconds: sizes the fixed trial set.
  double trials_per_second = 0.0;
};

// Targets and trial rates are constants because the instances are fixed.
// Calibrated with `perfbench --calibrate <workload>`; perfbench/RECORD.md
// holds the calibration output and the measured rates.
constexpr Energy kK2000Target = -31800;
constexpr std::uint64_t kK2000Cap = 400;
constexpr Energy kQaspTarget = -19701;
constexpr std::uint64_t kQaspCap = 2000;
constexpr double kK2000TrialsPerSecond = 10;
constexpr double kQaspTrialsPerSecond = 13;
constexpr std::uint64_t kBulkBatches = 128;
/// Solves of a traced k2000-bulk run (fixed, so its counts are exact).
constexpr std::uint64_t kBulkTracedSolves = 32;
/// Seed of the fixed TTS trial set.
constexpr std::uint64_t kTrialSetSeed = 2023;

SolverWorkload workload_spec(const std::string& name) {
  if (name == "k2000-tts") {
    return {"k2000", {}, DabsKnobs{}, kK2000Target, kK2000Cap,
            kK2000TrialsPerSecond};
  }
  if (name == "qasp-islands") {
    DabsKnobs k;
    k.islands = 4;
    k.b = 0.25;
    k.migrate = 8;
    k.migrants = 2;
    return {"qasp", {{"m", "5"}}, k, kQaspTarget, kQaspCap,
            kQaspTrialsPerSecond};
  }
  if (name == "k2000-bulk") {
    DabsKnobs k;
    k.islands = 1;
    // One block: two measured the same throughput and doubled the
    // exposure to a stalled CPU.
    k.blocks = 1;
    k.replicas = 64;
    return {"k2000", {}, k, std::nullopt, kBulkBatches};
  }
  throw std::invalid_argument("unknown solver workload '" + name + "'");
}

dabs::SolverOptions registry_options(const DabsKnobs& k) {
  dabs::SolverOptions o;
  o.set("islands", std::to_string(k.islands));
  o.set("blocks", std::to_string(k.blocks));
  o.set("replicas", std::to_string(k.replicas));
  o.set("b", std::to_string(k.b));
  o.set("migrate", std::to_string(k.migrate));
  o.set("migrants", std::to_string(k.migrants));
  return o;
}

dabs::SolverConfig replay_config(const DabsKnobs& k) {
  dabs::SolverConfig c;
  c.devices = k.islands;
  c.device.blocks = k.blocks;
  c.device.replicas = k.replicas;
  c.device.batch.batch_flip_factor = k.b;
  c.migration_interval = k.migrate;
  c.migration_count = k.migrants;
  return c;
}

/// Mirrors engine_config() in src/core/dabs_solver.cpp.
dabs::EngineConfig engine_config(const dabs::SolverConfig& cfg) {
  dabs::EngineConfig e;
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

/// The instance and the objects that serve it.
struct Prepared {
  std::unique_ptr<dabs::Problem> problem;
  dabs::QuboModel model;
  std::unique_ptr<dabs::Solver> solver;
  double encode_seconds = 0.0;  // problem create + encode
  double total_seconds = 0.0;   // ... + solver construction
};

Prepared prepare(const SolverWorkload& w) {
  Prepared p;
  const dabs::Stopwatch clock;
  dabs::SolverOptions params;
  for (const auto& [k, v] : w.params) params.set(k, v);
  p.problem = dabs::ProblemRegistry::global().create(w.problem, params);
  p.model = p.problem->encode();
  p.encode_seconds = clock.elapsed_seconds();
  p.solver =
      dabs::SolverRegistry::global().create("dabs", registry_options(w.knobs));
  p.total_seconds = clock.elapsed_seconds();
  return p;
}

/// Builds the inputs repeatedly (see more_setup); returns the last build
/// and the medians of the set-up and encode times.
Prepared prepare_repeated(const SolverWorkload& w, double* setup_seconds,
                          double* encode_seconds) {
  std::vector<double> setup, encode;
  Prepared p;
  double spent = 0.0;
  for (int r = 0; more_setup(r, spent); ++r) {
    p = prepare(w);
    setup.push_back(p.total_seconds);
    encode.push_back(p.encode_seconds);
    spent += p.total_seconds;
  }
  *setup_seconds = median(setup);
  *encode_seconds = median(encode);
  return p;
}

/// Trials of one TTS run: the calibrated rate times `seconds`, at least
/// kMinOps.
std::size_t trial_count(const SolverWorkload& w, double seconds) {
  return std::max<std::size_t>(
      kMinOps, static_cast<std::size_t>(w.trials_per_second * seconds + 0.5));
}

/// The first `count` seeds of the fixed trial set, shuffled by the
/// workload seed.
std::vector<std::uint64_t> trial_seeds(std::size_t count, std::uint64_t seed) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t j = 0; j < count; ++j) seeds[j] = op_seed(kTrialSetSeed, j);
  for (std::size_t j = count - 1; j > 0; --j) {
    std::swap(seeds[j], seeds[op_seed(seed, j) % (j + 1)]);
  }
  return seeds;
}

dabs::SolveRequest trial_request(const Prepared& p, const SolverWorkload& w,
                                 std::uint64_t seed) {
  dabs::SolveRequest req;
  req.model = &p.model;
  req.stop.target_energy = w.target;
  req.stop.max_batches = w.max_batches;
  req.seed = seed;
  return req;
}

/// Correctness gate for one returned answer: the reported energy must
/// equal a fresh evaluation, and the decoded solution must be feasible and
/// pass Problem::verify (which checks the energy<->objective identity).
/// Returns the seconds the check took; sets *why on a wrong answer.
double check_answer(const Prepared& p, const BitVector& x, Energy reported,
                    std::string* why) {
  const dabs::Stopwatch clock;
  const Energy e = p.model.energy(x);
  const dabs::DomainSolution sol = p.problem->decode(x);
  const dabs::VerifyResult verdict = p.problem->verify(x, e);
  if (e != reported) {
    *why = "re-evaluated energy " + std::to_string(e) + " != reported " +
           std::to_string(reported);
  } else if (!sol.feasible || !verdict.ok) {
    *why = "decoded solution fails verification: " + verdict.message;
  } else if (p.problem->family() == "maxcut" && sol.objective != -e) {
    *why = "cut " + std::to_string(sol.objective) + " != -energy";
  }
  return clock.elapsed_seconds();
}

struct Answer {
  BitVector solution;
  Energy energy;
  bool reached_target;
  std::uint64_t batches;
};

/// Checks every stored answer after the measured loop, so verification
/// never counts against the measured wall time.  Returns the mean check
/// time in seconds.
double check_answers(const Prepared& p, const SolverWorkload& w,
                     const std::vector<Answer>& answers, OpLedger& ledger) {
  double seconds = 0.0;
  for (const Answer& a : answers) {
    std::string why;
    seconds += check_answer(p, a.solution, a.energy, &why);
    const bool target_flag_ok =
        !w.target || a.reached_target == (a.energy <= *w.target);
    if (why.empty() && !target_flag_ok) why = "reached_target flag is wrong";
    if (why.empty() && !w.target && a.batches != w.max_batches) {
      why = "fixed-work solve ran " + std::to_string(a.batches) +
            " batches, not " + std::to_string(w.max_batches);
    }
    if (!why.empty()) {
      std::fprintf(stderr, "perfbench: wrong answer: %s\n", why.c_str());
      ledger.record_wrong();
    }
  }
  return answers.empty() ? 0.0 : seconds / double(answers.size());
}

template <class F>
auto traced(SpanLog& log, const char* name, std::uint64_t op,
            std::size_t parent, F&& f) {
  const ScopedSpan span(&log, name, op, parent);
  return f();
}

struct ReplayOutcome {
  BitVector best;
  Energy best_energy = dabs::kInfiniteEnergy;
  bool reached_target = false;
  std::uint64_t batches = 0;
  std::uint64_t flips = 0;
  std::uint64_t generated = 0;
  std::uint64_t accepted = 0;
  std::uint64_t migrations = 0;
  std::uint64_t restarts = 0;
};

/// One synchronous DABS trial, step for step as run_dabs() +
/// run_synchronous() execute it: the same seeder draws in the same order
/// (engine pools + restart seed, one BatchSearch per block, one host RNG
/// per island), the same initial pool-entry fold, and the same round-robin
/// next_packet / run / accept_result / maybe_migrate / check_restart cycle.
ReplayOutcome replay_synchronous(const dabs::QuboModel& model,
                                 const dabs::SolverConfig& cfg,
                                 const SolverWorkload& w, std::uint64_t seed,
                                 SpanLog& log, std::uint64_t op) {
  const ScopedSpan solve(&log, "core.solve", op);
  const std::size_t root = solve.id();
  const std::size_t construct = log.open("core.construct", op, root);
  dabs::MersenneSeeder seeder(seed);
  dabs::DiversityEngine engine(engine_config(cfg), model.size(), seeder);
  const std::size_t devices = cfg.devices;
  std::vector<std::vector<std::unique_ptr<dabs::BatchSearch>>> blocks(devices);
  for (auto& device : blocks) {
    for (std::uint32_t b = 0; b < cfg.device.blocks; ++b) {
      device.push_back(std::make_unique<dabs::BatchSearch>(
          model, cfg.device.batch, seeder.next_seed()));
    }
  }
  log.close(construct);

  ReplayOutcome out;
  out.best = BitVector(model.size());
  bool stop = false;
  const dabs::Stopwatch clock;
  const auto on_result = [&](const dabs::Packet& p) {
    traced(log, "evolve.accept_result", op, root,
           [&] { return engine.accept_result(p); });
    if (p.energy < out.best_energy) {
      out.best_energy = p.energy;
      out.best = p.solution;
      engine.note_improvement(clock.elapsed_seconds(), p.energy, p.algo, p.op);
      if (w.target && p.energy <= *w.target) stop = true;
    }
  };

  const dabs::PoolEntry first = engine.ring().pool(0).entry(0);
  dabs::Packet seed_packet;
  seed_packet.solution = first.solution;
  seed_packet.energy = model.energy(seed_packet.solution);
  seed_packet.algo = first.algo;
  seed_packet.op = first.op;
  seed_packet.pool_index = 0;
  on_result(seed_packet);

  std::vector<dabs::Rng> rngs;
  for (std::size_t i = 0; i < devices; ++i) rngs.push_back(seeder.next_rng());
  std::vector<std::size_t> rr(devices, 0);
  const auto cancelled = [&stop] { return stop; };
  std::uint64_t round = 0;
  while (!stop && out.batches < w.max_batches) {
    const auto i = static_cast<std::uint32_t>(round % devices);
    dabs::Packet packet = traced(log, "evolve.next_packet", op, root, [&] {
      return engine.next_packet(i, rngs[i]);
    });
    ++out.batches;
    dabs::BatchResult r = traced(log, "search.batch", op, root, [&] {
      return blocks[i][rr[i]]->run(packet.solution, packet.algo);
    });
    rr[i] = (rr[i] + 1) % cfg.device.blocks;
    out.flips += r.flips;
    packet.solution = std::move(r.best);
    packet.energy = r.best_energy;
    on_result(packet);
    traced(log, "evolve.migrate", op, root,
           [&] { return engine.maybe_migrate(i, cancelled); });
    ++round;
    if (round % (cfg.merge_check_interval * devices) == 0) {
      traced(log, "evolve.restart", op, root,
             [&] { return engine.check_restart(); });
    }
  }
  out.reached_target = w.target && out.best_energy <= *w.target;
  out.generated = engine.generated();
  out.accepted = engine.accepted();
  out.migrations = engine.migrations();
  out.restarts = engine.restarts();
  return out;
}

/// The full-lane bulk replay: `work` batches as passes of replica_count()
/// lanes, each pass fed by that many next_packet calls and folded back by
/// accept_result, single-threaded so every pass runs full.
void replay_full_lanes(const dabs::QuboModel& model,
                       const dabs::SolverConfig& cfg, std::uint64_t work,
                       std::uint64_t seed, SpanLog& log, std::uint64_t op,
                       std::uint64_t* lane_flips, std::uint64_t* lanes) {
  const ScopedSpan replay(&log, "replay.full_lanes", op);
  const std::size_t root = replay.id();
  dabs::MersenneSeeder seeder(seed);
  dabs::DiversityEngine engine(engine_config(cfg), model.size(), seeder);
  dabs::BulkBatchSearch bulk(model, cfg.device.batch, cfg.device.replicas,
                             seeder.next_seed());
  dabs::Rng rng = seeder.next_rng();
  const std::size_t width = bulk.replica_count();
  std::vector<dabs::Packet> sources(width);
  std::vector<BitVector> targets(width);
  const auto never = [] { return false; };
  for (std::uint64_t done = 0; done < work;) {
    const std::size_t lanes_now =
        static_cast<std::size_t>(std::min<std::uint64_t>(width, work - done));
    for (std::size_t l = 0; l < lanes_now; ++l) {
      sources[l] = traced(log, "evolve.next_packet", op, root,
                          [&] { return engine.next_packet(0, rng); });
      targets[l] = sources[l].solution;
    }
    std::vector<dabs::BatchResult> results =
        traced(log, "search.bulk_batch", op, root, [&] {
          return bulk.run(std::span<const BitVector>(targets.data(), lanes_now));
        });
    for (std::size_t l = 0; l < lanes_now; ++l) {
      dabs::Packet& p = sources[l];
      p.solution = std::move(results[l].best);
      p.energy = results[l].best_energy;
      *lane_flips += results[l].flips;
      traced(log, "evolve.accept_result", op, root,
             [&] { return engine.accept_result(p); });
    }
    traced(log, "evolve.migrate", op, root,
           [&] { return engine.maybe_migrate(0, never); });
    traced(log, "evolve.restart", op, root,
           [&] { return engine.check_restart(); });
    done += lanes_now;
    *lanes += lanes_now;
  }
}

double mean_us(const std::map<std::string, SpanLog::Totals>& t,
               const std::string& name) {
  const auto it = t.find(name);
  if (it == t.end() || it->second.count == 0) return 0.0;
  return it->second.total_seconds / double(it->second.count) * 1e6;
}

double self_seconds(const std::map<std::string, SpanLog::Totals>& t,
                    const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.self_seconds;
}

double total_seconds(const std::map<std::string, SpanLog::Totals>& t,
                     const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.total_seconds;
}

double evolve_self(const std::map<std::string, SpanLog::Totals>& t) {
  return self_seconds(t, "evolve.next_packet") +
         self_seconds(t, "evolve.accept_result") +
         self_seconds(t, "evolve.migrate") +
         self_seconds(t, "evolve.restart");
}

/// Model bytes a flip streams, from the row layout: the dense row (or the
/// CSR neighbour indices + weights), the int64 deltas it reads and writes,
/// the int8 spins it reads, and for CSR the separate Step-1 scan over all
/// n deltas (the dense kernel fuses that scan into the row sweep).
double computed_bytes_per_flip(const dabs::QuboModel& model) {
  const double n = double(model.size());
  if (model.has_dense_rows()) {
    return n * (sizeof(dabs::Weight) + 2 * sizeof(Energy) + 1);
  }
  const double degree = 2.0 * double(model.edge_count()) / n;
  return degree * (sizeof(dabs::VarIndex) + sizeof(dabs::Weight) +
                   2 * sizeof(Energy) + 1) +
         n * sizeof(Energy);
}

/// Untraced run of either kind: a TTS workload runs its whole trial set,
/// a fixed-work workload runs seeded solves for the measured window.
RunOutcome run_untraced(const SolverWorkload& w, const RunOptions& opt) {
  RunOutcome out;
  double setup = 0.0, encode = 0.0;
  const Prepared p = prepare_repeated(w, &setup, &encode);
  const std::vector<std::uint64_t> trials =
      w.target ? trial_seeds(trial_count(w, opt.seconds), opt.seed)
               : std::vector<std::uint64_t>{};

  std::vector<double> latency_ms;
  std::vector<Answer> answers;
  std::uint64_t batches = 0;
  const dabs::Stopwatch wall;
  for (std::uint64_t i = 0;
       w.target ? i < trials.size()
                : keep_running(wall.elapsed_seconds(), i, opt);
       ++i) {
    const dabs::SolveRequest req =
        trial_request(p, w, w.target ? trials[i] : op_seed(opt.seed, i));
    const dabs::Stopwatch clock;
    dabs::SolveReport rep = p.solver->solve(req);
    latency_ms.push_back(clock.elapsed_ms());
    batches += rep.batches;
    out.ledger.record(!w.target || rep.reached_target);
    answers.push_back({std::move(rep.best_solution), rep.best_energy,
                       rep.reached_target, rep.batches});
  }
  const double wall_seconds = wall.elapsed_seconds();
  check_answers(p, w, answers, out.ledger);

  const LatencySummary lat = summarize_latency(latency_ms);
  // batches= is the sum the traced run reports as core.batches; on a TTS
  // workload the two must be equal.
  std::printf(
      "ops=%llu failed_ops=%llu latency_samples=%zu wall_s=%.3f batches=%llu\n",
      static_cast<unsigned long long>(out.ledger.attempted),
      static_cast<unsigned long long>(out.ledger.failed), lat.samples,
      wall_seconds, static_cast<unsigned long long>(batches));
  out.metrics["setup_s"] = setup;
  out.metrics["throughput_per_s"] =
      throughput(out.ledger.attempted, wall_seconds);
  out.metrics["latency_p50_ms"] = lat.p50;
  out.metrics["latency_p90_ms"] = lat.p90;
  return out;
}

RunOutcome run_tts_traced(const SolverWorkload& w, const RunOptions& opt) {
  RunOutcome out;
  double setup = 0.0, encode = 0.0;
  const Prepared p = prepare_repeated(w, &setup, &encode);
  const dabs::SolverConfig cfg = replay_config(w.knobs);

  SpanLog log;
  std::vector<Answer> answers;
  double solve_seconds = 0.0, replay_seconds = 0.0;
  std::uint64_t batches = 0, flips = 0, generated = 0, accepted = 0;
  std::uint64_t migrations = 0, restarts = 0;
  // The whole trial set of the untraced run, so batch and flip counts are
  // exact sums and every trial's replay is checked.
  const std::vector<std::uint64_t> trials =
      trial_seeds(trial_count(w, opt.seconds), opt.seed);
  for (std::uint64_t i = 0; i < trials.size(); ++i) {
    const std::uint64_t seed = trials[i];
    const dabs::Stopwatch solve_clock;
    dabs::SolveReport rep = p.solver->solve(trial_request(p, w, seed));
    solve_seconds += solve_clock.elapsed_seconds();

    const dabs::Stopwatch replay_clock;
    const ReplayOutcome r = replay_synchronous(p.model, cfg, w, seed, log, i);
    replay_seconds += replay_clock.elapsed_seconds();

    if (r.batches != rep.batches || r.best_energy != rep.best_energy ||
        r.reached_target != rep.reached_target || r.best != rep.best_solution) {
      throw ReplayMismatch(
          "trial " + std::to_string(i) + " (seed " + std::to_string(seed) +
          "): replay ran " + std::to_string(r.batches) + " batches to " +
          std::to_string(r.best_energy) + ", Solver::solve ran " +
          std::to_string(rep.batches) + " batches to " +
          std::to_string(rep.best_energy));
    }
    out.ledger.record(rep.reached_target);
    batches += rep.batches;
    flips += r.flips;
    generated += r.generated;
    accepted += r.accepted;
    migrations += r.migrations;
    restarts += r.restarts;
    answers.push_back({std::move(rep.best_solution), rep.best_energy,
                       rep.reached_target, rep.batches});
  }
  const double verify_seconds = check_answers(p, w, answers, out.ledger);

  const auto t = log.totals();
  const double replay_total = total_seconds(t, "core.solve");
  const double kernel_self = self_seconds(t, "search.batch");
  auto& m = out.metrics;
  m["search.batch_us"] = mean_us(t, "search.batch");
  m["search.flips"] = double(flips);
  m["search.flips_per_s"] = kernel_self > 0 ? double(flips) / kernel_self : 0;
  m["search.self_share"] = kernel_self / replay_total;
  m["search.bytes_per_flip"] = computed_bytes_per_flip(p.model);
  m["evolve.next_packet_us"] = mean_us(t, "evolve.next_packet");
  m["evolve.accept_result_us"] = mean_us(t, "evolve.accept_result");
  m["evolve.migrate_us"] = mean_us(t, "evolve.migrate");
  m["evolve.restart_us"] = mean_us(t, "evolve.restart");
  m["evolve.self_share"] = evolve_self(t) / replay_total;
  // Every accept_result call offers one result: the generated packets plus
  // one initial pool-entry fold per trial.
  const auto offered = t.count("evolve.accept_result") == 0
                           ? std::uint64_t{0}
                           : t.at("evolve.accept_result").count;
  m["evolve.accept_ratio"] =
      offered == 0 ? 0.0 : double(accepted) / double(offered);
  m["evolve.migrations"] = double(migrations);
  m["evolve.restarts"] = double(restarts);
  m["core.batches"] = double(batches);
  m["core.solve_ms"] = solve_seconds / double(out.ledger.attempted) * 1e3;
  m["core.batches_per_s"] = double(batches) / solve_seconds;
  m["problems.encode_ms"] = encode * 1e3;
  m["problems.verify_ms"] = verify_seconds * 1e3;
  m["trace.overhead"] = replay_seconds / solve_seconds - 1.0;

  std::printf(
      "replay matched Solver::solve on %llu trials (batches, best energy, "
      "solution)\n",
      static_cast<unsigned long long>(out.ledger.attempted));
  std::printf(
      "evolve.accept_ratio: %llu accepted / %llu offered (%llu generated + "
      "%llu initial folds)\n",
      static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(generated),
      static_cast<unsigned long long>(out.ledger.attempted));
  std::printf(
      "self-time shares of replayed solve time: search=%.4f evolve=%.4f "
      "core.construct=%.4f core.loop=%.4f\n",
      m["search.self_share"], m["evolve.self_share"],
      self_seconds(t, "core.construct") / replay_total,
      self_seconds(t, "core.solve") / replay_total);
  std::printf("search.bytes_per_flip is computed from the row layout\n");
  if (!opt.trace_file.empty()) log.write_chrome_trace(opt.trace_file, opt.environment);
  return out;
}

RunOutcome run_bulk_traced(const SolverWorkload& w, const RunOptions& opt) {
  RunOutcome out;
  double setup = 0.0, encode = 0.0;
  const Prepared p = prepare_repeated(w, &setup, &encode);
  const dabs::SolverConfig cfg = replay_config(w.knobs);

  SpanLog log;
  std::vector<Answer> answers;
  double untraced_seconds = 0.0;
  std::uint64_t batches = 0, lane_flips = 0, lanes = 0;
  for (std::uint64_t i = 0; i < kBulkTracedSolves; ++i) {
    const std::uint64_t seed = op_seed(opt.seed, i);
    const dabs::Stopwatch untraced_clock;
    (void)p.solver->solve(trial_request(p, w, seed));
    untraced_seconds += untraced_clock.elapsed_seconds();

    dabs::SolveReport rep = traced(log, "core.solve", i, SpanLog::kNoParent,
                                   [&] {
                                     return p.solver->solve(
                                         trial_request(p, w, seed));
                                   });
    replay_full_lanes(p.model, cfg, w.max_batches, seed, log, i, &lane_flips,
                      &lanes);
    out.ledger.record(true);
    batches += rep.batches;
    answers.push_back({std::move(rep.best_solution), rep.best_energy,
                       rep.reached_target, rep.batches});
  }
  const double verify_seconds = check_answers(p, w, answers, out.ledger);

  const auto t = log.totals();
  const double solve_total = total_seconds(t, "core.solve");
  const double replay_total = total_seconds(t, "replay.full_lanes");
  const double kernel = self_seconds(t, "search.bulk_batch");
  // Threaded blocks run their passes concurrently, so a full-lane kernel
  // explains kernel-per-lane-batch / blocks of wall time per batch.
  const double explained =
      kernel / double(lanes) / double(cfg.device.blocks) * double(batches);
  auto& m = out.metrics;
  m["search.flips"] = double(lane_flips);
  m["search.flips_per_s"] = double(lane_flips) / kernel;
  m["search.self_share"] = kernel / replay_total;
  m["search.bytes_per_flip"] = computed_bytes_per_flip(p.model);
  m["search.bulk_batch_us"] = mean_us(t, "search.bulk_batch");
  m["search.lane_flips_per_s"] = double(lane_flips) / kernel;
  m["device.non_kernel_share"] = 1.0 - explained / solve_total;
  m["evolve.next_packet_us"] = mean_us(t, "evolve.next_packet");
  m["evolve.accept_result_us"] = mean_us(t, "evolve.accept_result");
  m["evolve.migrate_us"] = mean_us(t, "evolve.migrate");
  m["evolve.restart_us"] = mean_us(t, "evolve.restart");
  m["evolve.self_share"] = evolve_self(t) / replay_total;
  m["core.batches"] = double(batches);
  m["core.solve_ms"] = solve_total / double(out.ledger.attempted) * 1e3;
  m["core.batches_per_s"] = double(batches) / solve_total;
  m["problems.encode_ms"] = encode * 1e3;
  m["problems.verify_ms"] = verify_seconds * 1e3;
  m["trace.overhead"] = solve_total / untraced_seconds - 1.0;
  std::printf(
      "full-lane replay: %llu lane-batches in %.4f s of kernel; threaded "
      "solves: %llu batches in %.4f s on %u blocks\n",
      static_cast<unsigned long long>(lanes), kernel,
      static_cast<unsigned long long>(batches), solve_total,
      cfg.device.blocks);
  if (!opt.trace_file.empty()) log.write_chrome_trace(opt.trace_file, opt.environment);
  return out;
}

}  // namespace

RunOutcome run_solver_workload(const RunOptions& opt) {
  const SolverWorkload w = workload_spec(opt.workload);
  if (!opt.trace) return run_untraced(w, opt);
  return w.target ? run_tts_traced(w, opt) : run_bulk_traced(w, opt);
}

void calibrate_solver_workload(const std::string& workload,
                               std::uint64_t seed, std::size_t trials_wanted) {
  SolverWorkload w = workload_spec(workload);
  if (!w.target) throw std::invalid_argument("only TTS workloads calibrate");
  const Energy target = *w.target;
  w.target.reset();  // run every trial to the cap
  const Prepared p = prepare(w);
  struct Path : dabs::ProgressObserver {
    std::vector<std::pair<std::uint64_t, Energy>> points;
    void on_new_best(const dabs::ProgressEvent& e) override {
      points.emplace_back(e.work, e.best_energy);
    }
  };
  const std::vector<std::uint64_t> trials =
      trial_seeds(trials_wanted, seed);
  std::vector<std::vector<std::pair<std::uint64_t, Energy>>> paths;
  std::vector<double> finals;
  double batch_seconds = 0.0;
  for (const std::uint64_t seed : trials) {
    Path path;
    dabs::SolveRequest req = trial_request(p, w, seed);
    req.observer = &path;
    const dabs::Stopwatch clock;
    const dabs::SolveReport rep = p.solver->solve(req);
    batch_seconds += clock.elapsed_seconds() / double(rep.batches);
    finals.push_back(double(rep.best_energy));
    paths.push_back(std::move(path.points));
  }
  batch_seconds /= double(trials.size());
  std::sort(finals.begin(), finals.end());
  std::printf("%zu trials capped at %llu batches (%.3f ms per batch); best "
              "energy min %.0f median %.0f max %.0f\n",
              trials.size(), static_cast<unsigned long long>(w.max_batches),
              batch_seconds * 1e3, finals.front(), median(finals),
              finals.back());
  // Candidates: the configured target, then the median best energy after
  // k batches.  For each: trials reaching it within the cap, quartiles of
  // batches to it, and the implied length of an untraced run.
  std::vector<Energy> candidates{target};
  for (const std::uint64_t k : {2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128}) {
    if (k > w.max_batches) break;
    std::vector<double> at_k;
    for (const auto& path : paths) {
      Energy best = dabs::kInfiniteEnergy;
      for (const auto& [work, energy] : path) {
        if (work <= k) best = energy;
      }
      at_k.push_back(double(best));
    }
    candidates.push_back(static_cast<Energy>(median(at_k)));
  }
  for (const Energy candidate : candidates) {
    std::vector<double> hits;
    double total = 0.0;
    for (const auto& path : paths) {
      double first = double(w.max_batches);
      for (const auto& [work, energy] : path) {
        if (energy <= candidate) {
          first = double(work);
          hits.push_back(first);
          break;
        }
      }
      total += first;
    }
    std::sort(hits.begin(), hits.end());
    const auto q = [&hits](double f) {
      return hits.empty() ? 0.0
                          : hits[std::size_t(f * double(hits.size() - 1))];
    };
    const double run_seconds = total * batch_seconds;
    std::printf(
        "target %lld%s: reached %zu/%zu, batches p25 %.0f p50 %.0f p75 %.0f "
        "p90 %.0f max %.0f, run ~%.1f s = %.1f trials/s\n",
        static_cast<long long>(candidate),
        candidate == target ? " (configured)" : "", hits.size(),
        trials.size(), q(0.25), q(0.5), q(0.75), q(0.9), q(1.0), run_seconds,
        double(trials.size()) / run_seconds);
  }
}

}  // namespace perfbench
