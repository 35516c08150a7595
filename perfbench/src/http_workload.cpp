// service-http: an in-process SolveServer over JobApi (2 solver workers)
// driven over real sockets by net::HttpClient.
//
// Closed loop, 2 clients: one client thread keeps 2 keep-alive
// connections, each with one job in flight, and polls GET /v1/jobs/{id}
// back to back until the job is terminal and verified.  Jobs are small
// maxcut dabs jobs with fixed work, so solving is a minor share of a job
// and parse, cache, queue, serialize, decode/verify and HTTP dominate.
// About 3 in 4 jobs name one of a small warmed instance set (ModelCache
// hit); the rest name a new instance, so the POST handler runs the
// generator and Problem::encode (miss).
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/json_reader.hpp"
#include "net/http_client.hpp"
#include "net/job_api.hpp"
#include "net/solve_server.hpp"
#include "problems/problem_registry.hpp"
#include "rng/xorshift.hpp"
#include "spans.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dabs::io::JsonValue;

constexpr std::size_t kClients = 2;
constexpr std::size_t kSolverWorkers = 2;
constexpr std::uint64_t kHitInstances = 8;
constexpr std::uint64_t kMissSeedBase = 1000000;
constexpr std::uint64_t kJobBatches = 2;
constexpr const char* kNodes = "200";
constexpr const char* kEdges = "2000";
/// Jobs of each half of a traced run (fixed, so its counts are exact).
constexpr std::size_t kTracedJobs = 300;

std::string job_body(std::uint64_t instance_seed, std::uint64_t job_seed,
                     std::uint64_t max_batches) {
  return std::string(R"({"problem":"maxcut","params":{"n":)") + kNodes +
         R"(,"m":)" + kEdges + R"(,"seed":)" + std::to_string(instance_seed) +
         R"(},"solver":"dabs","max_batches":)" + std::to_string(max_batches) +
         R"(,"seed":)" + std::to_string(job_seed) + "}";
}

struct JobPlan {
  std::string body;
  bool miss = false;
};

/// Job `index` of the mix under workload seed `seed`.
JobPlan plan_job(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t h = op_seed(seed, index);
  JobPlan plan;
  plan.miss = h % 4 == 0;
  const std::uint64_t instance =
      plan.miss ? kMissSeedBase + index : 1 + (h >> 8) % kHitInstances;
  plan.body = job_body(instance, h >> 16, kJobBatches);
  return plan;
}

/// The server under test plus the thread running its event loop.
class Server {
 public:
  Server() : api_(api_config()), server_(server_config(), api_) {
    thread_ = std::thread([this] { server_.run(); });
  }
  ~Server() {
    server_.stop();
    thread_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const noexcept { return server_.port(); }

 private:
  static dabs::net::JobApi::Config api_config() {
    dabs::net::JobApi::Config c;
    c.threads = kSolverWorkers;
    c.max_events_per_job = 16;
    return c;
  }
  static dabs::net::SolveServer::Config server_config() {
    dabs::net::SolveServer::Config c;
    c.http.port = 0;
    return c;
  }

  dabs::net::JobApi api_;
  dabs::net::SolveServer server_;
  std::thread thread_;  // declared last: runs server_
};

std::uint64_t submitted_id(const dabs::net::HttpClient::Response& r) {
  return static_cast<std::uint64_t>(
      dabs::io::parse_json(r.body).find("job_id")->as_int());
}

/// True once the status body shows a terminal job whose report the
/// server's reaper has decoded and verified (failed/cancelled jobs carry
/// no verdict).
bool is_finished(const JsonValue& status) {
  const std::string& state = status.find("state")->as_string();
  if (state == "queued" || state == "running") return false;
  if (state != "done") return true;
  return status.find("report")->find("extras")->find("verified") != nullptr;
}

/// Starts a server and warms its cache with the hit set (one 1-batch job
/// per instance, waited to completion).
std::unique_ptr<Server> start_and_warm() {
  auto server = std::make_unique<Server>();
  dabs::net::HttpClient client("127.0.0.1", server->port());
  std::vector<std::uint64_t> ids;
  for (std::uint64_t k = 1; k <= kHitInstances; ++k) {
    const auto r = client.request("POST", "/v1/jobs", job_body(k, k, 1));
    if (r.status != 202) {
      throw std::runtime_error("warm-up POST answered " +
                               std::to_string(r.status) + ": " + r.body);
    }
    ids.push_back(submitted_id(r));
  }
  for (const std::uint64_t id : ids) {
    for (;;) {
      const auto r = client.request("GET", "/v1/jobs/" + std::to_string(id));
      if (is_finished(dabs::io::parse_json(r.body))) break;
    }
  }
  return server;
}

std::unique_ptr<Server> start_repeated(double* setup_seconds) {
  std::vector<double> samples;
  std::unique_ptr<Server> server;
  double spent = 0.0;
  for (int r = 0; more_setup(r, spent); ++r) {
    server.reset();  // tear-down is not set-up time
    const dabs::Stopwatch clock;
    server = start_and_warm();
    samples.push_back(clock.elapsed_seconds());
    spent += samples.back();
  }
  *setup_seconds = median(samples);
  return server;
}

struct LoopStats {
  std::uint64_t jobs = 0;
  double wall_seconds = 0.0;
  std::vector<double> job_ms, post_ms, post_miss_ms, get_ms, queue_ms, run_ms;
  std::uint64_t polls = 0, hits = 0, misses = 0, batches = 0;
  double solve_seconds = 0.0;
};

double extra_seconds(const JsonValue& extras, const char* key) {
  const JsonValue* v = extras.find(key);
  return v == nullptr ? 0.0 : std::stod(v->as_string());
}

/// Checks one terminal status body; returns an empty string when the job
/// is done and correct, "failed" when it finished without an answer, and a
/// description of the defect when its answer is wrong.
std::string judge(const JsonValue& status) {
  const std::string& state = status.find("state")->as_string();
  if (state != "done") return "failed";
  const JsonValue& report = *status.find("report");
  const JsonValue& extras = *report.find("extras");
  const auto text = [&extras](const char* key) {
    const JsonValue* v = extras.find(key);
    return v == nullptr ? std::string() : v->as_string();
  };
  if (text("verified") != "true" || text("feasible") != "true") {
    return "report not verified: " + text("verify_message");
  }
  const std::int64_t energy = report.find("best_energy")->as_int();
  if (std::stoll(text("objective")) != -energy) {
    return "cut " + text("objective") + " != -energy " +
           std::to_string(energy);
  }
  const std::int64_t batches = report.find("batches")->as_int();
  if (batches != std::int64_t(kJobBatches)) {
    return "job ran " + std::to_string(batches) + " batches, not " +
           std::to_string(kJobBatches);
  }
  return "";
}

struct Slot {
  std::unique_ptr<dabs::net::HttpClient> client;
  bool busy = false;
  bool miss = false;
  std::uint64_t op = 0;
  std::uint64_t job_id = 0;
  double post_start = 0.0;
  double post_end = 0.0;
  std::size_t span = SpanLog::kNoParent;
};

/// Runs the closed loop for `seconds`, and until at least `min_jobs` jobs
/// are submitted, starting at job index *next.  Spans go to `log` when
/// `traced`.
LoopStats closed_loop(std::uint16_t port, std::uint64_t seed,
                      std::uint64_t* next, double seconds,
                      std::size_t min_jobs, SpanLog& log, bool traced,
                      OpLedger& ledger) {
  std::vector<Slot> slots(kClients);
  for (Slot& s : slots) {
    s.client = std::make_unique<dabs::net::HttpClient>("127.0.0.1", port);
  }

  LoopStats st;
  const std::uint64_t first = *next;
  const double start = log.now();
  double last_finish = start;
  for (;;) {
    const double elapsed = log.now() - start;
    const bool submitting =
        elapsed < seconds + kGraceSeconds &&
        (elapsed < seconds || *next - first < min_jobs);
    bool busy = false;
    for (Slot& s : slots) {
      if (!s.busy) {
        if (!submitting) continue;
        const std::uint64_t index = (*next)++;
        const JobPlan plan = plan_job(seed, index);
        const double t0 = log.now();
        const auto r = s.client->request("POST", "/v1/jobs", plan.body);
        const double t1 = log.now();
        if (r.status != 202) {
          std::fprintf(stderr, "perfbench: POST answered %d: %s\n", r.status,
                       r.body.c_str());
          ledger.record(false);
          ++st.jobs;
          continue;
        }
        s.busy = true;
        s.miss = plan.miss;
        s.op = index;
        s.job_id = submitted_id(r);
        s.post_start = t0;
        s.post_end = t1;
        st.post_ms.push_back((t1 - t0) * 1e3);
        if (plan.miss) st.post_miss_ms.push_back((t1 - t0) * 1e3);
        if (traced) {
          s.span = log.add("net.job", index, SpanLog::kNoParent, t0, -1.0);
          log.add("net.post", index, s.span, t0, t1);
        }
        busy = true;
        continue;
      }
      busy = true;
      const double t0 = log.now();
      const auto r =
          s.client->request("GET", "/v1/jobs/" + std::to_string(s.job_id));
      const double t1 = log.now();
      ++st.polls;
      st.get_ms.push_back((t1 - t0) * 1e3);
      if (traced) log.add("net.get", s.op, s.span, t0, t1);
      if (r.status != 200) {
        throw std::runtime_error("GET of job " + std::to_string(s.job_id) +
                                 " answered " + std::to_string(r.status));
      }
      const JsonValue status = dabs::io::parse_json(r.body);
      if (!is_finished(status)) continue;

      s.busy = false;
      ++st.jobs;
      last_finish = t1;
      st.job_ms.push_back((t1 - s.post_start) * 1e3);
      const std::string verdict = judge(status);
      ledger.record(verdict.empty());
      if (verdict.empty()) {
        const JsonValue& report = *status.find("report");
        const JsonValue& extras = *report.find("extras");
        const double queued = extra_seconds(extras, "queue_seconds");
        const double ran = extra_seconds(extras, "run_seconds");
        st.queue_ms.push_back(queued * 1e3);
        st.run_ms.push_back(ran * 1e3);
        const JsonValue* cache = extras.find("model_cache");
        if (cache != nullptr && cache->as_string() == "hit") {
          ++st.hits;
        } else {
          ++st.misses;
        }
        st.batches +=
            static_cast<std::uint64_t>(report.find("batches")->as_int());
        st.solve_seconds += report.find("elapsed_seconds")->as_double();
        if (traced) {
          // The job's own durations, placed from the end of its POST: the
          // service clock is private, so the start is approximate.
          log.add("service.queue", s.op, s.span, s.post_end,
                  s.post_end + queued);
          log.add("service.run", s.op, s.span, s.post_end + queued,
                  s.post_end + queued + ran);
        }
      } else if (verdict != "failed") {
        std::fprintf(stderr, "perfbench: wrong answer for job %llu: %s\n",
                     static_cast<unsigned long long>(s.job_id),
                     verdict.c_str());
        ledger.record_wrong();
      }
      if (traced) log.close(s.span);
    }
    if (!busy && !submitting) break;
  }
  st.wall_seconds = last_finish - start;
  return st;
}

/// Create + encode and decode + verify + energy times over the hit set.
void measure_problem_layer(double* encode_ms, double* verify_ms) {
  std::vector<double> encode, verify;
  dabs::Rng rng(kHitInstances);
  for (std::uint64_t k = 1; k <= kHitInstances; ++k) {
    const dabs::Stopwatch clock;
    const dabs::SolverOptions params{
        {"n", kNodes}, {"m", kEdges}, {"seed", std::to_string(k)}};
    const auto problem =
        dabs::ProblemRegistry::global().create("maxcut", params);
    const dabs::QuboModel model = problem->encode();
    encode.push_back(clock.elapsed_ms());

    dabs::BitVector x(model.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.set(i, rng.next_index(2) == 1);
    }
    const dabs::Stopwatch verify_clock;
    const dabs::Energy e = model.energy(x);
    const dabs::DomainSolution sol = problem->decode(x);
    const dabs::VerifyResult v = problem->verify(x, e);
    verify.push_back(verify_clock.elapsed_ms());
    if (!v.ok || sol.objective != -e) {
      throw std::runtime_error("maxcut verify rejected a random partition");
    }
  }
  *encode_ms = median(encode);
  *verify_ms = median(verify);
}

}  // namespace

RunOutcome run_http_workload(const RunOptions& opt) {
  RunOutcome out;
  double setup = 0.0;
  const std::unique_ptr<Server> server = start_repeated(&setup);
  SpanLog log;
  std::uint64_t next = 0;

  if (!opt.trace) {
    const LoopStats st = closed_loop(server->port(), opt.seed, &next,
                                     opt.seconds, kMinOps, log, false,
                                     out.ledger);
    const LatencySummary lat = summarize_latency(st.job_ms);
    std::printf("ops=%llu failed_ops=%llu latency_samples=%zu wall_s=%.3f "
                "cache_hits=%llu cache_misses=%llu\n",
                static_cast<unsigned long long>(out.ledger.attempted),
                static_cast<unsigned long long>(out.ledger.failed),
                lat.samples, st.wall_seconds,
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.misses));
    out.metrics["setup_s"] = setup;
    out.metrics["throughput_per_s"] = throughput(st.jobs, st.wall_seconds);
    out.metrics["latency_p50_ms"] = lat.p50;
    out.metrics["latency_p90_ms"] = lat.p90;
    return out;
  }

  // Traced run: the same loop untraced, then traced, kTracedJobs jobs
  // each; the change in median job latency is the tracing overhead.
  const LoopStats plain = closed_loop(server->port(), opt.seed, &next, 0.0,
                                      kTracedJobs, log, false, out.ledger);
  const LoopStats st = closed_loop(server->port(), opt.seed, &next, 0.0,
                                   kTracedJobs, log, true, out.ledger);

  double encode_ms = 0.0, verify_ms = 0.0;
  measure_problem_layer(&encode_ms, &verify_ms);
  const double done = double(st.queue_ms.size());
  auto& m = out.metrics;
  m["net.post_p50_ms"] = median(st.post_ms);
  m["net.post_miss_p50_ms"] =
      st.post_miss_ms.empty() ? 0.0 : median(st.post_miss_ms);
  m["net.get_p50_ms"] = median(st.get_ms);
  m["net.polls_per_job"] = double(st.polls) / double(st.jobs);
  m["service.queue_p50_ms"] = median(st.queue_ms);
  m["service.run_p50_ms"] = median(st.run_ms);
  m["service.cache_hit_ratio"] = double(st.hits) / double(st.hits + st.misses);
  m["core.batches"] = double(st.batches);
  m["core.solve_ms"] = st.solve_seconds / done * 1e3;
  m["core.batches_per_s"] = double(st.batches) / st.solve_seconds;
  m["problems.encode_ms"] = encode_ms;
  m["problems.verify_ms"] = verify_ms;
  // Medians, so a rare transport stall in either half does not read as
  // tracing cost.
  m["trace.overhead"] = median(st.job_ms) / median(plain.job_ms) - 1.0;
  std::printf(
      "traced jobs=%llu: cache %llu hits / %llu misses, %llu polls; job "
      "p50 %.4f ms of which service.run p50 %.4f ms\n",
      static_cast<unsigned long long>(st.jobs),
      static_cast<unsigned long long>(st.hits),
      static_cast<unsigned long long>(st.misses),
      static_cast<unsigned long long>(st.polls), median(st.job_ms),
      m["service.run_p50_ms"]);
  if (!opt.trace_file.empty()) {
    log.write_chrome_trace(opt.trace_file, opt.environment);
  }
  return out;
}

}  // namespace perfbench
