// Micro benchmarks (google-benchmark) for the batch solve service: job
// pipeline throughput end to end (submit -> schedule -> solve -> report)
// and the model-cache fast paths every batch request crosses.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/solve_report.hpp"
#include "io/json_reader.hpp"
#include "io/json_writer.hpp"
#include "net/http_client.hpp"
#include "net/job_api.hpp"
#include "net/solve_server.hpp"
#include "obs/metrics.hpp"
#include "qubo/qubo_builder.hpp"
#include "rng/xorshift.hpp"
#include "service/model_cache.hpp"
#include "service/solver_service.hpp"

namespace dabs {
namespace {

QuboModel bench_model(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  QuboBuilder b(n);
  for (VarIndex i = 0; i < n; ++i) {
    b.add_linear(i, static_cast<Weight>(rng.next_index(19)) - 9);
  }
  for (VarIndex i = 0; i + 1 < n; ++i) {
    for (VarIndex j = i + 1; j < n; ++j) {
      if (rng.next_unit() < 0.3) {
        b.add_quadratic(i, j, static_cast<Weight>(rng.next_index(19)) - 9);
      }
    }
  }
  return b.build();
}

/// Jobs/second through the full service pipeline: short deterministic sa
/// runs (work-budget stop) over one shared cached model, threads as the
/// benchmark argument.  This is the number the JSONL front end scales with.
void BM_ServiceThroughput(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  service::SolverService::Config config;
  config.threads = threads;
  config.max_events_per_job = 16;
  service::SolverService svc(config);
  const std::shared_ptr<const QuboModel> model =
      svc.cache().intern(bench_model(64, 42));

  constexpr int kJobsPerIter = 32;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    std::vector<service::JobId> ids;
    ids.reserve(kJobsPerIter);
    for (int i = 0; i < kJobsPerIter; ++i) {
      service::JobSpec spec;
      spec.model = model;
      spec.solver = "sa";
      spec.stop.max_batches = 500;  // flips: short but non-trivial runs
      spec.seed = ++seed;
      ids.push_back(svc.submit(std::move(spec)));
    }
    for (const service::JobId id : ids) {
      benchmark::DoNotOptimize(svc.wait(id).report.best_energy);
    }
  }
  state.SetItemsProcessed(state.iterations() * kJobsPerIter);
}
BENCHMARK(BM_ServiceThroughput)->Arg(1)->Arg(2)->Arg(4);

/// The submit-side cache hit every duplicated model takes.
void BM_ModelCacheInternHit(benchmark::State& state) {
  service::ModelCache cache;
  (void)cache.intern(bench_model(256, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.intern(bench_model(256, 7)));
  }
  state.SetLabel("includes rebuild of the probe model");
}
BENCHMARK(BM_ModelCacheInternHit);

/// The key-aliased lookup the JSONL front end takes on repeated paths —
/// no parse, no hash of the content.
void BM_ModelCacheKeyHit(benchmark::State& state) {
  service::ModelCache cache;
  const auto load = [] { return bench_model(256, 7); };
  (void)cache.get_or_load("qubo#bench.txt", load);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get_or_load("qubo#bench.txt", load));
  }
}
BENCHMARK(BM_ModelCacheKeyHit);

/// Cost of one telemetry touch: a counter increment plus a histogram
/// observation through pre-resolved handles, the exact pattern every
/// instrumented call site uses (resolve once, update per event).  This is
/// the per-request overhead /v1/metrics instrumentation adds — it must
/// stay in the low tens of nanoseconds.
void BM_MetricsOverhead(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter& requests = reg.counter("bench_requests_total", "bench");
  obs::Histogram& latency = reg.histogram(
      "bench_latency_seconds", "bench",
      obs::Histogram::default_latency_bounds());
  double sample = 0.0;
  for (auto _ : state) {
    requests.inc();
    latency.observe(sample);
    sample += 1e-6;  // walk the bucket ladder instead of hitting one bucket
    if (sample > 1.0) sample = 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsOverhead);

/// The same two updates under thread contention: relaxed atomics mean no
/// lock, but the cachelines bounce.  Threads as the benchmark argument.
void BM_MetricsOverheadContended(benchmark::State& state) {
  static obs::MetricsRegistry reg;
  obs::Counter& requests = reg.counter("bench_contended_total", "bench");
  obs::Histogram& latency = reg.histogram(
      "bench_contended_seconds", "bench",
      obs::Histogram::default_latency_bounds());
  for (auto _ : state) {
    requests.inc();
    latency.observe(0.002);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsOverheadContended)->Threads(1)->Threads(4);

/// The report a service-http poll renders: one maxcut dabs job (the
/// perfbench service-http spec) run through a JobApi and read back from
/// its status JSON.
SolveReport service_report() {
  net::JobApi api(net::JobApi::Config{});
  const net::ApiReply submitted = api.submit(
      R"({"problem":"maxcut","params":{"n":200,"m":2000,"seed":1},)"
      R"("solver":"dabs","max_batches":2,"seed":1})");
  const auto id = static_cast<service::JobId>(
      io::parse_json(submitted.body).find("job_id")->as_int());
  for (;;) {
    const io::JsonValue status = io::parse_json(api.status(id).body);
    const std::string& state = status.find("state")->as_string();
    if (state == "queued" || state == "running") {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    const io::JsonValue* report = status.find("report");
    if (state != "done" || report == nullptr) {
      throw std::runtime_error("the report job ended " + state);
    }
    SolveReport r;
    r.solver = report->find("solver")->as_string();
    r.best_energy = report->find("best_energy")->as_int();
    r.reached_target = report->find("reached_target")->as_bool();
    r.tts_seconds = report->find("tts_seconds")->as_double();
    r.elapsed_seconds = report->find("elapsed_seconds")->as_double();
    r.flips = static_cast<std::uint64_t>(report->find("flips")->as_int());
    r.batches = static_cast<std::uint64_t>(report->find("batches")->as_int());
    r.restarts =
        static_cast<std::uint32_t>(report->find("restarts")->as_int());
    for (const auto& [k, v] : report->find("extras")->as_object()) {
      r.extras[k] = v.as_string();
    }
    return r;
  }
}

/// Serializing one finished job's report, which every status poll of a
/// finished job renders (the serialize layer of a service-http job).
void BM_ReportJson(benchmark::State& state) {
  const SolveReport report = service_report();
  std::ostringstream out;
  for (auto _ : state) {
    out.str("");
    {
      io::JsonWriter json(out);
      report.write_json(json);
    }
    benchmark::DoNotOptimize(out.tellp());
  }
  state.SetLabel(std::to_string(report.extras.size()) + " extras");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReportJson)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// HTTP solve server: the same pipeline through SolveServer + the wire.

/// One running solve server (two solver workers) plus the thread running
/// its event loop.
class BenchServer {
 public:
  BenchServer() : api_(api_config()) {
    net::SolveServer::Config config;
    config.http.port = 0;
    config.http.stream_poll_seconds = 0.001;
    server_ = std::make_unique<net::SolveServer>(config, api_);
    thread_ = std::thread([this] { server_->run(); });
  }
  ~BenchServer() {
    server_->stop();
    thread_.join();
  }
  std::uint16_t port() const { return server_->port(); }

 private:
  static net::JobApi::Config api_config() {
    net::JobApi::Config api;
    api.threads = 2;
    api.max_events_per_job = 16;
    return api;
  }

  net::JobApi api_;
  std::unique_ptr<net::SolveServer> server_;
  std::thread thread_;
};

std::string bench_job(std::uint64_t seed) {
  // Distinct seeds: every job encodes a fresh model (a cache miss).
  return R"({"problem": "maxcut", "params": {"n": 32, "m": 120, "seed": )" +
         std::to_string(seed) +
         R"(}, "solver": "sa", "max_batches": 500, "seed": )" +
         std::to_string(seed) + "}";
}

std::uint64_t submitted_id(const net::HttpClient::Response& resp) {
  const std::size_t at = resp.body.find("\"job_id\":");
  return std::stoull(resp.body.substr(at + 9));
}

bool is_terminal(const std::string& status_body) {
  return status_body.find("\"state\":\"queued\"") == std::string::npos &&
         status_body.find("\"state\":\"running\"") == std::string::npos;
}

/// Sustained jobs/second through the HTTP server: batches of short solve
/// jobs submitted and polled to completion over one keep-alive connection.
/// Arg(1) is the one server process; it keeps the result names of earlier
/// BENCH_micro.json reports.
void BM_HttpServerJobThroughput(benchmark::State& state) {
  BenchServer server;
  net::HttpClient client("127.0.0.1", server.port());

  constexpr int kJobsPerIter = 32;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    std::vector<std::uint64_t> ids;
    ids.reserve(kJobsPerIter);
    for (int i = 0; i < kJobsPerIter; ++i) {
      ids.push_back(submitted_id(
          client.request("POST", "/v1/jobs", bench_job(++seed))));
    }
    for (const std::uint64_t id : ids) {
      for (;;) {
        const auto status =
            client.request("GET", "/v1/jobs/" + std::to_string(id));
        if (is_terminal(status.body)) break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kJobsPerIter);
}
BENCHMARK(BM_HttpServerJobThroughput)
    ->Arg(1)
    ->UseRealTime()  // the work happens on server threads
    ->Unit(benchmark::kMillisecond);

/// Submit -> first solver tick latency over HTTP: time from POST /v1/jobs
/// to the first event observed on the chunked events stream.  Reported as
/// p50/p99 counters (seconds) across the benchmark's iterations.  Arg(1)
/// as for BM_HttpServerJobThroughput.
void BM_HttpSubmitToFirstTick(benchmark::State& state) {
  BenchServer server;
  net::HttpClient submit_client("127.0.0.1", server.port());

  std::vector<double> samples;
  std::uint64_t seed = 1000000;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t id = submitted_id(
        submit_client.request("POST", "/v1/jobs", bench_job(++seed)));
    // Follow the events stream until the first event page; abandoning the
    // chunked stream closes the connection, so each sample reconnects.
    net::HttpClient streamer("127.0.0.1", server.port());
    double elapsed = 0.0;
    (void)streamer.stream(
        "GET", "/v1/jobs/" + std::to_string(id) + "/events",
        [&](const std::string& chunk) {
          if (chunk.find("\"kind\":") == std::string::npos) return true;
          elapsed = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
          return false;  // first tick seen; abandon the stream
        });
    samples.push_back(elapsed);
    // Drain the job so queue depth stays flat across samples.
    for (;;) {
      const auto status =
          submit_client.request("GET", "/v1/jobs/" + std::to_string(id));
      if (is_terminal(status.body)) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  std::sort(samples.begin(), samples.end());
  const auto percentile = [&samples](double p) {
    const std::size_t at = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(samples.size())));
    return samples[at];
  };
  state.counters["p50_submit_to_first_tick_s"] = percentile(0.50);
  state.counters["p99_submit_to_first_tick_s"] = percentile(0.99);
}
BENCHMARK(BM_HttpSubmitToFirstTick)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dabs

BENCHMARK_MAIN();
