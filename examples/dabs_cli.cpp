// Command-line QUBO solver front end on the unified solver + problem
// registries: obtain an instance from any registered problem (generator or
// file loader) or a legacy --format file, run any registered solver, and
// print the unified report as text or JSON.  Problem runs additionally
// decode the best solution into domain terms (cut weight, assignment +
// cost, tour + length, Ising energy) and verify it — the verdict rides in
// the report extras.
//
//   $ ./dabs_cli --list-solvers
//   $ ./dabs_cli --list-problems
//   $ ./dabs_cli --problem g22 --solver tabu --time-limit 5
//   $ ./dabs_cli --problem qap --param kind=grid,rows=3,cols=4 --json
//   $ ./dabs_cli --problem gset:G22 --solver tabu --opt tenure=8
//   $ ./dabs_cli --format qubo model.txt --time-limit 5
//   $ ./dabs_cli model.txt --solver sa --target -1234 --campaign 100
//
// The batch subcommand runs a JSONL job file through the solve service
// (see src/service/job_ledger.hpp for the line schema) and streams one
// report object per line as jobs complete:
//
//   $ ./dabs_cli batch jobs.jsonl --jobs 4 > reports.jsonl
//
// Batch runs are fault tolerant: --journal arms a write-ahead job journal
// (add --resume to skip jobs a previous run already finished), retryable
// failures back off and retry (--attempts), --queue-limit sheds load, and
// SIGINT/SIGTERM cancel outstanding jobs, flush the journal plus every
// report already earned, print the summary, and exit 130.
//
// Exit status: 0 on success, 1 when a batch had failing jobs or malformed
// lines, 2 on usage errors, 130 when a batch was interrupted by a signal.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>

#include "core/campaign.hpp"
#include "core/solve_report.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"
#include "io/json_writer.hpp"
#include "io/solution_io.hpp"
#include "net/net_util.hpp"
#include "net/solve_server.hpp"
#include "problems/problem_registry.hpp"
#include "qubo/model_info.hpp"
#include "service/batch_runner.hpp"
#include "util/arg_parser.hpp"

namespace {

void usage(const std::string& prog) {
  std::cerr
      << "usage: " << prog << " [options] <model-file>\n"
      << "       " << prog << " --problem <name[:path]> [options]\n"
      << "       " << prog << " batch <jobs.jsonl> [--jobs <n>] "
         "[--journal <path> [--resume]]\n"
      << "       " << prog << " serve [--port <p>] [--host <addr>]\n"
      << "  --list-solvers              print the solver registry and exit\n"
      << "  --list-problems             print the problem registry and exit\n"
      << "  --problem <name[:path]>     solve a registered problem instead "
         "of a\n"
      << "                              model file; decodes and verifies "
         "the result\n"
      << "  --param k=v[,k=v...]        problem params (see "
         "--list-problems)\n"
      << "  --format qubo|gset|qaplib   input format (default qubo)\n"
      << "  --solver <name>             any registered solver (default "
         "dabs)\n"
      << "  --opt k=v[,k=v...]          solver-specific options (see "
         "--list-solvers)\n"
      << "  --time-limit <sec>          wall-clock budget (default 5)\n"
      << "  --max-batches <n>           work budget: batches for bulk\n"
      << "                              solvers, flips for baselines (0 = "
         "none)\n"
      << "  --target <energy>           stop at this energy\n"
      << "  --seed <n>                  master seed (default: solver's "
         "own)\n"
      << "  --devices <n> --blocks <n>  bulk solver shape (dabs/abs only)\n"
      << "  --s <f> --b <f>             search/batch flip factors "
         "(dabs/abs)\n"
      << "  --pool <n>                  pool capacity (dabs/abs)\n"
      << "  --threads                   threaded bulk mode (default "
         "synchronous)\n"
      << "  --progress                  print improvements to stderr\n"
      << "  --progress-interval <ms>    also print a heartbeat every <ms>\n"
      << "                              milliseconds (implies --progress; "
         "0 = improvements only)\n"
      << "  --save-solution <path>      write the best solution found\n"
      << "  --json                      JSON output\n"
      << "  --describe                  print model statistics and exit\n"
      << "  --campaign <trials>         repeated-trial TTS campaign "
         "(needs --target)\n"
      << "  --campaign-threads <n>      workers for --campaign (default 2)\n"
      << "batch options (one JSON job object per input line; see README):\n"
      << "  --jobs <n>                  batch worker threads (default 4)\n"
      << "  --cache-mb <n>              model cache budget in MiB "
         "(default 256)\n"
      << "  --time-limit <sec>          default per-job budget when a line "
         "sets no stop\n"
      << "  --journal <path>            write-ahead job journal (fsync'd "
         "JSONL)\n"
      << "  --resume                    skip jobs the journal already shows "
         "done/failed\n"
      << "  --attempts <n>              retry budget for retryable failures "
         "(default 3)\n"
      << "  --queue-limit <n>           shed submits past this queue depth "
         "(default: unbounded)\n"
      << "  --trace <path>              dump per-job trace spans as Chrome "
         "trace-event\n"
      << "                              JSON (open at chrome://tracing)\n"
      << "(SIGINT/SIGTERM cancel outstanding jobs, flush journal + earned "
         "reports,\n"
      << " print the summary, and exit 130)\n"
      << "serve options (HTTP solve API; see README \"HTTP server\"):\n"
      << "  --port <p>                  listen port (0 = ephemeral; default "
         "8080)\n"
      << "  --host <addr>               bind address (default 127.0.0.1)\n"
      << "  --jobs/--cache-mb/--time-limit/--attempts/--queue-limit/\n"
      << "  --journal/--resume/--trace  as for batch (unknown serve options "
         "exit 2)\n"
      << "(SIGINT/SIGTERM stop the server gracefully; with --journal, "
         "restart with\n"
      << " --resume to re-enqueue jobs that never finished)\n"
      << "observability (all modes):\n"
      << "  DABS_LOG=<level>[,json]     structured stderr logging: debug, "
         "info, warn\n"
      << "                              (default), error, off; \",json\" "
         "switches to\n"
      << "                              JSON-lines output\n"
      << "  GET /v1/metrics             Prometheus metrics (serve mode; "
         "see README)\n";
}

void list_solvers() {
  for (const dabs::SolverInfo& info : dabs::SolverRegistry::global().list()) {
    std::cout << "  " << info.name << "\n      " << info.description << "\n";
  }
}

void list_problems() {
  for (const dabs::ProblemInfo& info :
       dabs::ProblemRegistry::global().list()) {
    std::cout << "  " << info.name << (info.takes_path ? ":<path>" : "")
              << "\n      " << info.description << "\n";
  }
}

/// --progress sink: improvements as they happen, on stderr so --json
/// stdout stays machine-readable.  --progress-interval adds heartbeat
/// lines at the requested cadence (SolveRequest::tick_seconds) so long
/// plateaus still show the run is alive.
class StderrProgress : public dabs::ProgressObserver {
 public:
  void on_new_best(const dabs::ProgressEvent& event) override {
    std::cerr << "[" << event.elapsed_seconds << "s] best "
              << event.best_energy << " (work " << event.work << ")\n";
  }
  void on_tick(const dabs::ProgressEvent& event) override {
    std::cerr << "[" << event.elapsed_seconds << "s] ... best "
              << event.best_energy << " (work " << event.work << ")\n";
  }
};

/// Signal-to-batch bridge: the handler only flips the flag (the one thing
/// that is async-signal-safe here); run_batch polls it and winds down.
std::atomic<bool> g_batch_interrupted{false};

extern "C" void on_batch_signal(int) {
  g_batch_interrupted.store(true, std::memory_order_relaxed);
}

/// Fills the settings `batch` and `serve` share from their common flags;
/// `config` arrives with the front end's own defaults (--jobs is 4 for
/// batch, 2 for serve).  Prints the problem and returns false when a value
/// is out of range.
bool read_job_config(const dabs::ArgParser& args,
                     dabs::service::JobConfig& config) {
  const std::int64_t jobs =
      args.get_int("jobs", static_cast<std::int64_t>(config.threads));
  const std::int64_t cache_mb = args.get_int("cache-mb", 256);
  const double time_limit = args.get_double("time-limit", 5.0);
  const std::int64_t attempts = args.get_int("attempts", 3);
  const std::int64_t queue_limit = args.get_int("queue-limit", 0);
  if (jobs < 1 || cache_mb < 0 || time_limit < 0 || attempts < 1 ||
      attempts > 100 || queue_limit < 0) {
    std::cerr << "--jobs must be >= 1; --cache-mb and --time-limit must be "
                 ">= 0; --attempts must be in [1, 100]; --queue-limit must "
                 "be >= 0\n";
    return false;
  }
  config.threads = static_cast<std::size_t>(jobs);
  config.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
  config.default_time_limit = time_limit;
  config.max_attempts = static_cast<std::uint32_t>(attempts);
  config.max_queue_depth = static_cast<std::size_t>(queue_limit);
  config.journal_path = args.get("journal").value_or("");
  config.resume = args.get_bool("resume");
  config.trace_path = args.get("trace").value_or("");
  if (config.resume && config.journal_path.empty()) {
    std::cerr << "--resume requires --journal <path>\n";
    return false;
  }
  return true;
}

/// `dabs_cli batch <jobs.jsonl>`: stream the JSONL job file through the
/// batch service.  "-" reads jobs from stdin.
int run_batch_command(const dabs::ArgParser& args) {
  if (args.positional().size() != 2) {
    usage(args.program());
    return 2;
  }
  dabs::service::BatchOptions opts;
  if (!read_job_config(args, opts)) return 2;
  for (const std::string& name : args.unused()) {
    std::cerr << "warning: unknown option --" << name << "\n";
  }

  // ^C / SIGTERM wind the batch down instead of killing it mid-write:
  // intake stops, outstanding jobs cancel, the journal and every earned
  // report flush, the summary prints, and the exit code is 130.
  opts.interrupt = &g_batch_interrupted;
  std::signal(SIGINT, on_batch_signal);
  std::signal(SIGTERM, on_batch_signal);

  const std::string& path = args.positional()[1];
  if (path == "-") {
    return dabs::service::run_batch(std::cin, std::cout, std::cerr, opts);
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open job file '" << path << "'\n";
    return 2;
  }
  return dabs::service::run_batch(in, std::cout, std::cerr, opts);
}

/// `dabs_cli serve`: the HTTP solve API over one in-process JobApi.
/// Unlike batch, an unknown option is fatal: a server started without a
/// setting its operator asked for would fail later and less visibly.
int run_serve_command(const dabs::ArgParser& args) {
  const std::int64_t port = args.get_int("port", 8080);
  const std::string host = args.get("host").value_or("127.0.0.1");
  if (port < 0 || port > 65535) {
    std::cerr << "serve: option out of range (see --help)\n";
    return 2;
  }
  dabs::net::JobApi::Config api;
  if (!read_job_config(args, api)) return 2;
  const std::vector<std::string> unknown = args.unused();
  if (!unknown.empty()) {
    std::cerr << "serve: unknown option --" << unknown.front() << "\n";
    return 2;
  }

  dabs::net::SolveServer::Config config;
  config.http.host = host;
  config.http.port = static_cast<std::uint16_t>(port);

  std::signal(SIGINT, on_batch_signal);
  std::signal(SIGTERM, on_batch_signal);

  dabs::net::JobApi jobs(api);
  dabs::net::SolveServer server(config, jobs);
  std::cerr << "dabs-serve: listening on " << host << ":" << server.port()
            << "\n";
  server.run(&g_batch_interrupted);
  std::cerr << "dabs-serve: shutting down\n";
  return 0;
}

/// Splits "k=v,k2=v2" --opt payloads into the options map.
void parse_opts(const std::string& spec, dabs::SolverOptions& opts) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("--opt entries must look like key=value");
      }
      opts.set(item.substr(0, eq), item.substr(eq + 1));
    }
    start = end + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dabs;
  // Process-wide: every socket/stdout write path (batch report stream,
  // HTTP server) sees a dead peer as EPIPE, never as a process-killing
  // signal.
  net::ignore_sigpipe();
  const ArgParser args(argc, argv);
  try {
    if (args.get_bool("list-solvers")) {
      list_solvers();
      return 0;
    }
    if (args.get_bool("list-problems")) {
      list_problems();
      return 0;
    }
    // The subcommand shape is exactly `batch <jobs.jsonl>`; a model file
    // literally named "batch" is still reachable as `./batch`.
    if (args.positional().size() == 2 && args.positional()[0] == "batch" &&
        !args.get_bool("help")) {
      return run_batch_command(args);
    }
    if (args.positional().size() == 1 && args.positional()[0] == "batch") {
      std::cerr << "batch needs a job file: " << args.program()
                << " batch <jobs.jsonl> (to solve a model file named "
                   "'batch', use ./batch)\n";
      return 2;
    }
    if (args.positional().size() == 1 && args.positional()[0] == "serve" &&
        !args.get_bool("help")) {
      return run_serve_command(args);
    }
    const bool problem_run = args.has("problem");
    if (args.positional().size() != (problem_run ? 0u : 1u) ||
        args.get_bool("help")) {
      usage(args.program());
      return 2;
    }

    // Instance acquisition: a registered problem (decoded and verified
    // after the solve) or the legacy model-file path (raw energies only —
    // its fixed-seed reports are stable across releases).
    std::unique_ptr<Problem> problem;
    QuboModel model;
    if (problem_run) {
      if (args.has("format")) {
        // Mirrors the batch front end: fold the loader into the spec.
        std::cerr << "--format applies to model files only (use --problem "
                  << args.get("format", "") << ":<path> instead)\n";
        return 2;
      }
      SolverOptions problem_params;
      if (const auto spec = args.get("param")) {
        parse_opts(*spec, problem_params);
      }
      problem = ProblemRegistry::global().create(args.get("problem", ""),
                                                 problem_params);
      model = problem->encode();
    } else {
      if (args.has("param")) {
        std::cerr << "--param requires --problem\n";
        return 2;
      }
      const std::string path = args.positional()[0];
      const std::string format = args.get("format", "qubo");
      if (!ProblemRegistry::global().is_loader(format)) {
        std::cerr << "unknown format '" << format << "'\n";
        return 2;
      }
      model = ProblemRegistry::global().create(format + ":" + path)->encode();
    }

    if (args.get_bool("describe")) {
      if (problem) std::cout << problem->describe() << "\n";
      std::cout << describe_model(analyze_model(model));
      return 0;
    }

    // Solver-specific options: the legacy bulk flags forward when present,
    // --opt covers everything else.  Unknown keys are rejected by the
    // registry with the solver's name in the message.
    const std::string solver_name = args.get("solver", "dabs");
    const bool campaign = args.has("campaign");
    SolverOptions opts;
    for (const char* key : {"devices", "blocks", "s", "b", "pool"}) {
      if (const auto v = args.get(key)) opts.set(key, *v);
    }
    // --threads is the bulk-mode flag, so it forwards to dabs/abs only.
    // Campaigns keep trials synchronous (bit-reproducible statistics,
    // no devices x trials thread oversubscription), as they always have.
    if (args.get_bool("threads") && !campaign &&
        (solver_name == "dabs" || solver_name == "abs")) {
      opts.set("threads", "true");
    }
    if (const auto spec = args.get("opt")) parse_opts(*spec, opts);

    SolveRequest req;
    req.model = &model;
    req.stop.time_limit_seconds = args.get_double("time-limit", 5.0);
    req.stop.max_batches =
        static_cast<std::uint64_t>(args.get_int("max-batches", 0));
    if (args.has("target")) {
      req.stop.target_energy = args.get_int("target", 0);
    }
    if (args.has("seed")) {
      req.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    }
    StderrProgress progress;
    const double progress_interval_ms =
        args.get_double("progress-interval", 0.0);
    if (progress_interval_ms < 0) {
      std::cerr << "--progress-interval must be >= 0\n";
      return 2;
    }
    // An interval without --progress still means "show me progress".
    if (args.get_bool("progress") || progress_interval_ms > 0) {
      req.observer = &progress;
      req.tick_seconds = progress_interval_ms / 1000.0;
    }

    // When a stop condition governs the run, lift the baselines' small
    // default iteration budgets so --time-limit / --target decide when to
    // stop.  An explicit --opt value always wins.  Shared with the batch
    // front end so both surfaces apply one policy.
    service::apply_time_governed_budgets(solver_name, req.stop, opts);

    const bool as_json = args.get_bool("json");
    const auto trials = static_cast<std::size_t>(args.get_int("campaign", 10));
    const auto workers =
        static_cast<std::size_t>(args.get_int("campaign-threads", 2));
    const auto save_path = args.get("save-solution");

    // All options have been queried by now: anything left is a typo.
    for (const std::string& name : args.unused()) {
      std::cerr << "warning: unknown option --" << name << "\n";
    }

    const std::unique_ptr<Solver> solver =
        SolverRegistry::global().create(solver_name, opts);

    if (campaign) {
      if (!req.stop.target_energy) {
        std::cerr << "--campaign requires --target <energy>\n";
        return 2;
      }
      const Energy target = *req.stop.target_energy;
      // `req` is the prototype: its stop condition and seed shape every
      // trial, and --progress (and a future cancellation hook) reach each.
      const CampaignResult r =
          run_campaign(*solver, req, target, trials, workers);
      if (as_json) {
        io::JsonWriter json(std::cout);
        json.begin_object()
            .value("model", model.describe())
            .value("solver", solver_name)
            .value("target", target)
            .value("trials", std::uint64_t{r.runs})
            .value("successes", std::uint64_t{r.successes})
            .value("success_rate", r.success_rate())
            .value("best_energy", r.best_energy);
        if (r.successes > 0) {
          json.value("tts_mean_seconds", r.tts.mean())
              .value("tts_at_99", r.tts_at(0.99));
        }
        json.end_object();
        std::cout << "\n";
      } else {
        std::cout << "campaign: " << r.successes << "/" << r.runs
                  << " trials reached " << target << "\n";
        if (r.successes > 0) {
          std::cout << "TTS " << r.tts.to_string() << "\n"
                    << "TTS@99% = " << r.tts_at(0.99) << "s\n";
        }
        std::cout << "best energy over campaign: " << r.best_energy << "\n";
      }
      return 0;
    }

    SolveReport report = solver->solve(req);

    // Problem runs: decode the best solution into domain terms and verify
    // it against an independent energy re-evaluation; the verdict travels
    // in the report extras ("objective", "feasible", "verified", ...).
    if (problem && report.best_solution.size() == model.size()) {
      const DomainSolution sol = problem->decode(report.best_solution);
      const VerifyResult verdict = problem->verify(
          report.best_solution, model.energy(report.best_solution));
      annotate_extras(*problem, sol, verdict, report.extras);
    }

    if (save_path) {
      io::write_solution_file(*save_path, report.best_solution,
                              report.best_energy);
    }

    if (as_json) {
      io::JsonWriter json(std::cout);
      json.begin_object().value("model", model.describe());
      report.write_json(json, "report");
      json.end_object();
      std::cout << "\n";
    } else {
      std::cout << model.describe() << "\n" << report.to_string();
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage(args.program());
    return 2;
  }
}
