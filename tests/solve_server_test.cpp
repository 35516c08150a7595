// Solve-API tests: JobApi lifecycle (submit/status/events/cancel/stats,
// duplicate fingerprints, shedding, journal resume) and the HTTP surface
// end-to-end through SolveServer.
#include "net/solve_server.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/json_reader.hpp"
#include "net/http_client.hpp"
#include "net/job_api.hpp"
#include "service/job_journal.hpp"

namespace dabs::net {
namespace {

std::string temp_path(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string small_job(int seed, double time_limit = 0.05,
                      const char* tag = "") {
  std::string body = R"({"problem": "maxcut", "params": {"n": 16, "m": 40, )"
                     R"("seed": )" + std::to_string(seed) +
                     R"(}, "solver": "sa", "time_limit": )" +
                     std::to_string(time_limit);
  if (*tag != '\0') body += R"(, "tag": ")" + std::string(tag) + "\"";
  return body + "}";
}

io::JsonValue parse(const std::string& body) { return io::parse_json(body); }

std::uint64_t job_id_of(const ApiReply& reply) {
  return static_cast<std::uint64_t>(
      parse(reply.body).find("job_id")->as_int());
}

std::string state_of(const std::string& body) {
  return parse(body).find("state")->as_string();
}

/// Polls `api.status(id)` until the job is terminal (10s deadline).
ApiReply wait_terminal(JobApi& api, std::uint64_t id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    ApiReply reply = api.status(id);
    if (reply.status == 200) {
      const std::string state = state_of(reply.body);
      if (state != "queued" && state != "running" && state != "cancelling") {
        return reply;
      }
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "job " << id << " never reached a terminal state: "
                    << reply.body;
      return reply;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

JobApi::Config fast_config() {
  JobApi::Config config;
  config.threads = 2;
  config.default_time_limit = 0.05;
  return config;
}

// ---------------------------------------------------------------------------
// JobApi

TEST(JobApiTest, SubmitRunsToDoneWithAnnotatedReport) {
  JobApi api(fast_config());
  const ApiReply accepted = api.submit(small_job(1, 0.05, "t1"));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const auto submitted = parse(accepted.body);
  // A worker may grab the job before the reply is built, so either
  // pre-terminal state is fine here.
  const std::string state = submitted.find("state")->as_string();
  EXPECT_TRUE(state == "queued" || state == "running") << state;
  EXPECT_EQ(submitted.find("fingerprint")->as_string().size(), 16u);

  const std::uint64_t id = job_id_of(accepted);
  const ApiReply done = wait_terminal(api, id);
  ASSERT_EQ(done.status, 200);
  const auto status = parse(done.body);
  EXPECT_EQ(status.find("state")->as_string(), "done");
  EXPECT_EQ(status.find("tag")->as_string(), "t1");
  const io::JsonValue* report = status.find("report");
  ASSERT_NE(report, nullptr);
  const io::JsonValue* extras = report->find("extras");
  ASSERT_NE(extras, nullptr);
  // The decode/verify annotation pass ran (same fields the batch runner
  // streams for a finished job).
  EXPECT_EQ(extras->find("feasible")->as_string(), "true");
  EXPECT_EQ(extras->find("verified")->as_string(), "true");
  EXPECT_NE(extras->find("objective"), nullptr);
}

TEST(JobApiTest, BadRequestsGet400) {
  JobApi api(fast_config());
  EXPECT_EQ(api.submit("{not json").status, 400);
  EXPECT_EQ(api.submit(R"({"params": {}})").status, 400);  // no problem/model
  EXPECT_EQ(api.submit(R"({"problem": "no-such-problem"})").status, 400);
  // The body carries the batch runner's validation message.
  const ApiReply reply = api.submit(R"({"problem": "no-such-problem"})");
  EXPECT_NE(parse(reply.body).find("error"), nullptr);
}

TEST(JobApiTest, UnknownIdsGet404) {
  JobApi api(fast_config());
  EXPECT_EQ(api.status(12345).status, 404);
  EXPECT_EQ(api.cancel(12345).status, 404);
  std::uint64_t cursor = 0;
  bool done = false;
  std::size_t count = 0;
  EXPECT_EQ(api.events(12345, &cursor, &done, &count).status, 404);
}

TEST(JobApiTest, DuplicateSubmissionsGetNumberedFingerprints) {
  JobApi api(fast_config());
  const ApiReply first = api.submit(small_job(7));
  const ApiReply second = api.submit(small_job(7));
  ASSERT_EQ(first.status, 202);
  ASSERT_EQ(second.status, 202);
  const std::string fp1 = parse(first.body).find("fingerprint")->as_string();
  const std::string fp2 = parse(second.body).find("fingerprint")->as_string();
  EXPECT_EQ(fp2, fp1 + "#2");
}

TEST(JobApiTest, QueueDepthLimitSheds429) {
  JobApi::Config config;
  config.threads = 1;
  config.max_queue_depth = 1;
  JobApi api(config);
  // Long enough to hold the worker + the one queue slot while we overflow.
  int shed = 0;
  std::vector<std::uint64_t> accepted_ids;
  for (int i = 0; i < 6; ++i) {
    const ApiReply reply = api.submit(small_job(100 + i, 0.3));
    if (reply.status == 429) {
      ++shed;
      EXPECT_NE(parse(reply.body).find("error"), nullptr);
    } else {
      ASSERT_EQ(reply.status, 202) << reply.body;
      accepted_ids.push_back(job_id_of(reply));
    }
  }
  EXPECT_GE(shed, 1);
  for (const std::uint64_t id : accepted_ids) wait_terminal(api, id);
}

TEST(JobApiTest, CancelLifecycle) {
  JobApi api(fast_config());
  const ApiReply accepted = api.submit(small_job(3, 5.0));
  ASSERT_EQ(accepted.status, 202);
  const std::uint64_t id = job_id_of(accepted);
  const ApiReply cancel = api.cancel(id);
  ASSERT_EQ(cancel.status, 202) << cancel.body;
  const ApiReply final_status = wait_terminal(api, id);
  EXPECT_EQ(state_of(final_status.body), "cancelled");
  // Cancelling a terminal job conflicts.
  EXPECT_EQ(api.cancel(id).status, 409);
}

TEST(JobApiTest, EventsPageWithCursor) {
  JobApi api(fast_config());
  const ApiReply accepted = api.submit(small_job(5, 0.1));
  ASSERT_EQ(accepted.status, 202);
  const std::uint64_t id = job_id_of(accepted);
  wait_terminal(api, id);

  std::uint64_t cursor = 0;
  bool done = false;
  std::size_t count = 0;
  const ApiReply page = api.events(id, &cursor, &done, &count);
  ASSERT_EQ(page.status, 200) << page.body;
  EXPECT_TRUE(done);
  EXPECT_GE(count, 1u);  // at least one new_best on a fresh instance
  EXPECT_EQ(cursor, count);  // cursor advanced past the returned events
  const auto body = parse(page.body);
  const auto& events = body.find("events")->as_array();
  ASSERT_EQ(events.size(), count);
  EXPECT_EQ(events.front().find("kind")->as_string(), "new_best");
  EXPECT_NE(events.front().find("best_energy"), nullptr);

  // Re-polling from the advanced cursor returns an empty, still-done page.
  std::uint64_t cursor2 = cursor;
  bool done2 = false;
  std::size_t count2 = 99;
  ASSERT_EQ(api.events(id, &cursor2, &done2, &count2).status, 200);
  EXPECT_TRUE(done2);
  EXPECT_EQ(count2, 0u);
  EXPECT_EQ(cursor2, cursor);
}

TEST(JobApiTest, StatsSnapshotCountsLifecycle) {
  JobApi api(fast_config());
  const ApiReply accepted = api.submit(small_job(11));
  ASSERT_EQ(accepted.status, 202);
  wait_terminal(api, job_id_of(accepted));
  const ApiReply stats = api.stats();
  ASSERT_EQ(stats.status, 200);
  const auto body = parse(stats.body);
  EXPECT_EQ(body.find("submitted")->as_int(), 1);
  EXPECT_EQ(body.find("done")->as_int(), 1);
  EXPECT_EQ(body.find("outstanding")->as_int(), 0);
  EXPECT_EQ(body.find("retained")->as_int(), 1);
  const io::JsonValue* cache = body.find("model_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("misses")->as_int(), 1);
}

TEST(JobApiTest, ResumeResubmitsNonTerminalJobsUnderOriginalFingerprint) {
  const std::string path = temp_path("job_api_resume.jsonl");
  // Simulate a server that accepted three jobs and was SIGKILLed after one
  // finished: the journal holds the raw bodies, one terminal record.
  const std::string body_a = small_job(21, 0.05, "resumed-a");
  const std::string body_b = small_job(22, 0.05, "resumed-b");
  const std::string fp_a =
      service::job_fingerprint(service::parse_batch_job(body_a));
  const std::string fp_b =
      service::job_fingerprint(service::parse_batch_job(body_b));
  {
    service::JobJournal journal(path);
    service::JournalRecord record;
    record.event = service::JournalEvent::kSubmitted;
    record.fingerprint = fp_a;
    record.detail = body_a;
    journal.append(record);
    record.fingerprint = fp_a + "#2";
    journal.append(record);
    record.fingerprint = fp_b;
    record.detail = body_b;
    journal.append(record);
    record.event = service::JournalEvent::kDone;
    record.detail.clear();
    journal.append(record);
  }

  JobApi::Config config = fast_config();
  config.journal_path = path;
  config.resume = true;
  JobApi api(config);
  EXPECT_EQ(api.resumed(), 2u);  // fp_a + fp_a#2; fp_b was terminal

  // The resumed jobs run to completion and journal their terminal records
  // under the ORIGINAL fingerprints (numbering survives the restart).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const auto replay = service::JobJournal::replay(path);
    if (replay.terminal(fp_a) && replay.terminal(fp_a + "#2")) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "resumed jobs never reached terminal journal records";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // A fresh duplicate of the same job line continues the numbering past
  // the replayed occurrences instead of colliding with them.
  const ApiReply again = api.submit(body_a);
  ASSERT_EQ(again.status, 202);
  const std::string fp = parse(again.body).find("fingerprint")->as_string();
  EXPECT_EQ(fp, fp_a + "#3");
}

TEST(JobApiTest, OldestFinishedJobIsEvictedPastRetention) {
  JobApi::Config config = fast_config();
  config.threads = 1;  // jobs finish in submit order
  JobApi api(config);
  const std::size_t jobs = service::SolverService::kRetainedJobs + 1;
  for (std::size_t i = 0; i < jobs; ++i) {
    ASSERT_EQ(api.submit(R"({"problem": "maxcut", "params": {"n": 8, "m": 12},)"
                         R"( "solver": "sa", "max_batches": 1})")
                  .status,
              202);
  }
  wait_terminal(api, jobs);
  std::uint64_t cursor = 0;
  bool done = false;
  std::size_t count = 0;
  EXPECT_EQ(api.status(1).status, 404);
  EXPECT_EQ(api.events(1, &cursor, &done, &count).status, 404);
  EXPECT_EQ(api.status(2).status, 200);
  EXPECT_EQ(parse(api.stats().body).find("retained")->as_int(),
            static_cast<std::int64_t>(jobs - 1));
}

TEST(JobApiTest, ShutdownJournalsOneCancelPerUnfinishedJob) {
  const std::string path = temp_path("job_api_shutdown.jsonl");
  JobApi::Config config = fast_config();
  config.threads = 1;
  config.journal_path = path;
  std::string running_fp;
  std::string queued_fp;
  {
    JobApi api(config);
    const ApiReply running = api.submit(small_job(31, 30.0));
    const ApiReply queued = api.submit(small_job(32, 30.0));
    running_fp = parse(running.body).find("fingerprint")->as_string();
    queued_fp = parse(queued.body).find("fingerprint")->as_string();
    while (state_of(api.status(job_id_of(running)).body) != "running") {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  std::map<std::string, std::vector<std::string>> events;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    const io::JsonValue record = parse(line);
    events[record.find("fp")->as_string()].push_back(
        record.find("event")->as_string());
  }
  using Events = std::vector<std::string>;
  EXPECT_EQ(events[running_fp], (Events{"submitted", "started", "cancelled"}));
  EXPECT_EQ(events[queued_fp], (Events{"submitted", "cancelled"}));
  // A cancelled record is not terminal: --resume runs both again.
  config.resume = true;
  EXPECT_EQ(JobApi(config).resumed(), 2u);
}

// ---------------------------------------------------------------------------
// SolveServer over HTTP

/// SolveServer + JobApi + run() thread, for driving with HttpClient.
class ServerUnderTest {
 public:
  explicit ServerUnderTest(JobApi::Config api_config = fast_config())
      : api_(std::move(api_config)) {
    SolveServer::Config config;
    config.http.port = 0;
    config.http.stream_poll_seconds = 0.005;
    server_ = std::make_unique<SolveServer>(config, api_);
    thread_ = std::thread([this] { server_->run(); });
  }
  ~ServerUnderTest() {
    server_->stop();
    thread_.join();
  }
  std::uint16_t port() const { return server_->port(); }

 private:
  JobApi api_;
  std::unique_ptr<SolveServer> server_;
  std::thread thread_;
};

TEST(SolveServerTest, EndToEndJobLifecycle) {
  ServerUnderTest server;
  HttpClient client("127.0.0.1", server.port());

  const auto health = client.request("GET", "/v1/healthz");
  EXPECT_EQ(health.status, 200);
  const auto health_body = parse(health.body);
  EXPECT_EQ(health_body.find("status")->as_string(), "ok");
  EXPECT_GE(health_body.find("uptime_seconds")->as_double(), 0.0);
  EXPECT_GT(health_body.find("pid")->as_int(), 0);
  const io::JsonValue* build = health_body.find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_FALSE(build->find("version")->as_string().empty());
  EXPECT_FALSE(build->find("compiler")->as_string().empty());

  const auto solvers = client.request("GET", "/v1/solvers");
  EXPECT_EQ(solvers.status, 200);
  EXPECT_NE(solvers.body.find("\"sa\""), std::string::npos);
  const auto problems = client.request("GET", "/v1/problems");
  EXPECT_EQ(problems.status, 200);
  EXPECT_NE(problems.body.find("maxcut"), std::string::npos);

  const auto accepted =
      client.request("POST", "/v1/jobs", small_job(51, 0.1, "http"));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::uint64_t id = static_cast<std::uint64_t>(
      parse(accepted.body).find("job_id")->as_int());

  // Poll status over HTTP until terminal.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::string state;
  for (;;) {
    const auto status =
        client.request("GET", "/v1/jobs/" + std::to_string(id));
    ASSERT_EQ(status.status, 200) << status.body;
    state = state_of(status.body);
    if (state != "queued" && state != "running") break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(state, "done");

  // The event stream of a finished job: one JSONL body, cursor complete.
  std::string streamed;
  const auto events = client.stream(
      "GET", "/v1/jobs/" + std::to_string(id) + "/events",
      [&streamed](const std::string& chunk) {
        streamed += chunk;
        return true;
      });
  EXPECT_EQ(events.status, 200);
  ASSERT_FALSE(streamed.empty());
  const auto first_page = parse(streamed.substr(0, streamed.find('\n')));
  EXPECT_EQ(first_page.find("state")->as_string(), "done");
  EXPECT_GE(first_page.find("events")->as_array().size(), 1u);

  // Cancel after done conflicts; stats reflect the lifecycle.
  EXPECT_EQ(
      client.request("DELETE", "/v1/jobs/" + std::to_string(id)).status, 409);
  const auto stats = client.request("GET", "/v1/stats");
  ASSERT_EQ(stats.status, 200);
  const auto stats_body = parse(stats.body);
  EXPECT_GE(stats_body.find("http")->find("requests")->as_int(), 5);
  EXPECT_EQ(stats_body.find("service")->find("done")->as_int(), 1);
}

TEST(SolveServerTest, StreamingEventsWhileJobRuns) {
  ServerUnderTest server;
  HttpClient client("127.0.0.1", server.port());
  const auto accepted =
      client.request("POST", "/v1/jobs", small_job(52, 0.4));
  ASSERT_EQ(accepted.status, 202);
  const std::string id =
      std::to_string(parse(accepted.body).find("job_id")->as_int());

  // Stream from a second connection while the job is still solving: the
  // chunked stream must span pages and terminate once the job is done.
  HttpClient streamer("127.0.0.1", server.port());
  std::vector<std::string> pages;
  const auto resp = streamer.stream("GET", "/v1/jobs/" + id + "/events",
                                    [&pages](const std::string& chunk) {
                                      pages.push_back(chunk);
                                      return true;
                                    });
  EXPECT_EQ(resp.status, 200);
  ASSERT_GE(pages.size(), 1u);
  bool saw_terminal = false;
  for (const std::string& page : pages) {
    const auto parsed = parse(page);
    if (parsed.find("state")->as_string() == "done") saw_terminal = true;
  }
  EXPECT_TRUE(saw_terminal);
}

TEST(SolveServerTest, ErrorStatusMapping) {
  ServerUnderTest server;
  HttpClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.request("POST", "/v1/jobs", "{oops").status, 400);
  EXPECT_EQ(client.request("GET", "/v1/jobs/999").status, 404);
  EXPECT_EQ(client.request("GET", "/v1/jobs/not-a-number").status, 400);
  EXPECT_EQ(client.request("DELETE", "/v1/jobs/999").status, 404);
  EXPECT_EQ(client.request("GET", "/no/such/route").status, 404);
  EXPECT_EQ(client.request("POST", "/v1/healthz").status, 405);
  EXPECT_EQ(client.request("PUT", "/v1/jobs/3").status, 405);
}

// ---------------------------------------------------------------------------
// /v1/metrics

/// Tiny Prometheus text-exposition checker: every comment line is a
/// well-formed HELP/TYPE, every sample line is `name[{labels}] value` with
/// a valid identifier and a parsable number.  Returns the sample names.
std::set<std::string> check_prometheus_text(const std::string& text) {
  std::set<std::string> names;
  std::istringstream in(text);
  std::string line;
  const auto valid_name = [](const std::string& name) {
    if (name.empty()) return false;
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      if (!ok) return false;
    }
    return !(name[0] >= '0' && name[0] <= '9');
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash;
      std::string what;
      std::string name;
      meta >> hash >> what >> name;
      EXPECT_TRUE(what == "HELP" || what == "TYPE") << line;
      EXPECT_TRUE(valid_name(name)) << line;
      if (what == "TYPE") {
        std::string kind;
        meta >> kind;
        EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                    kind == "histogram")
            << line;
      }
      continue;
    }
    const std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << line;
    if (space == std::string::npos) continue;
    std::string name = line.substr(0, space);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      // Labels must close right before the value and quote every value.
      EXPECT_EQ(name.back(), '}') << line;
      const std::string labels = name.substr(brace + 1,
                                             name.size() - brace - 2);
      std::size_t quotes = 0;
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] == '"' && (i == 0 || labels[i - 1] != '\\')) ++quotes;
      }
      EXPECT_EQ(quotes % 2, 0u) << line;
      name = name.substr(0, brace);
    }
    EXPECT_TRUE(valid_name(name)) << line;
    char* end = nullptr;
    const std::string value = line.substr(space + 1);
    std::strtod(value.c_str(), &end);
    EXPECT_TRUE(end != nullptr && *end == '\0' && end != value.c_str())
        << line;
    names.insert(name);
  }
  return names;
}

TEST(SolveServerTest, MetricsEndpointServesPrometheusText) {
  ServerUnderTest server;
  HttpClient client("127.0.0.1", server.port());

  const auto accepted =
      client.request("POST", "/v1/jobs", small_job(61, 0.05));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::uint64_t id = static_cast<std::uint64_t>(
      parse(accepted.body).find("job_id")->as_int());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const auto status =
        client.request("GET", "/v1/jobs/" + std::to_string(id));
    ASSERT_EQ(status.status, 200);
    const std::string state = state_of(status.body);
    if (state != "queued" && state != "running") break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const auto scrape = client.request("GET", "/v1/metrics");
  ASSERT_EQ(scrape.status, 200);
  const std::set<std::string> names = check_prometheus_text(scrape.body);
  // Every instrumented family shows up in one scrape: http, service,
  // cache, and the solver progress counters.
  EXPECT_TRUE(names.count("dabs_http_requests_total")) << scrape.body;
  EXPECT_TRUE(names.count("dabs_service_jobs_submitted_total"));
  EXPECT_TRUE(names.count("dabs_service_jobs_terminal_total"));
  EXPECT_TRUE(names.count("dabs_service_queue_depth"));
  EXPECT_TRUE(names.count("dabs_service_job_seconds_bucket"));
  EXPECT_TRUE(names.count("dabs_model_cache_misses_total"));
  EXPECT_EQ(client.request("POST", "/v1/metrics").status, 405);
}

}  // namespace
}  // namespace dabs::net
