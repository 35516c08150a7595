#include "net/solve_server.hpp"

#include <unistd.h>

#include <cstdlib>
#include <sstream>
#include <utility>

#include "core/solver_registry.hpp"
#include "io/json_writer.hpp"
#include "obs/build_info.hpp"
#include "problems/problem_registry.hpp"

namespace dabs::net {

namespace {

std::string error_body(const std::string& message) {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object().value("error", message).end_object();
  }
  return out.str();
}

HttpResult reply(int status, std::string body) {
  HttpResult result;
  result.response.status = status;
  result.response.body = std::move(body);
  return result;
}

HttpResult from_api(const ApiReply& api) {
  return reply(api.status, api.body);
}

/// "cursor=N" out of the query string; 0 when absent/garbled.
std::uint64_t cursor_from_query(const std::string& query) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    pos = amp + 1;
    if (pair.rfind("cursor=", 0) == 0) {
      return std::strtoull(pair.c_str() + 7, nullptr, 10);
    }
  }
  return 0;
}

/// Streams event pages as chunks until the backend reports the job
/// terminal and drained.  Pages with no events are skipped (kIdle) so an
/// idle stream costs poll cycles, not bytes.
class EventStream final : public ChunkSource {
 public:
  EventStream(JobBackend& backend, std::uint64_t id, std::uint64_t cursor)
      : backend_(backend), id_(id), cursor_(cursor) {}

  Next next(std::string& chunk) override {
    if (finished_) return Next::kDone;
    bool done = false;
    std::size_t count = 0;
    const ApiReply page = backend_.events(id_, &cursor_, &done, &count);
    if (page.status != 200) {
      // The job vanished (retention eviction) or the shard went away;
      // the error object is the stream's last line.
      finished_ = true;
      chunk = page.body + "\n";
      return Next::kChunk;
    }
    if (done) finished_ = true;
    if (count == 0 && !done) return Next::kIdle;
    chunk = page.body + "\n";
    return Next::kChunk;
  }

 private:
  JobBackend& backend_;
  const std::uint64_t id_;
  std::uint64_t cursor_;
  bool finished_ = false;
};

}  // namespace

SolveServer::SolveServer(Config config, JobBackend& backend)
    : config_(std::move(config)),
      backend_(backend),
      ring_(config_.shard_of_total == 0 ? 1 : config_.shard_of_total),
      http_(config_.http,
            [this](const HttpRequest& request) { return route(request); }) {}

HttpResult SolveServer::route(const HttpRequest& request) {
  if (request.path == "/v1/healthz") {
    if (request.method != "GET") return reply(405, error_body("GET only"));
    return healthz_result();
  }
  if (request.path == "/v1/stats") {
    if (request.method != "GET") return reply(405, error_body("GET only"));
    return stats_result();
  }
  if (request.path == "/v1/metrics") {
    if (request.method != "GET") return reply(405, error_body("GET only"));
    HttpResult result = from_api(backend_.metrics());
    if (result.response.status == 200) {
      result.response.content_type =
          "text/plain; version=0.0.4; charset=utf-8";
    }
    return result;
  }
  if (request.path == "/v1/solvers") {
    if (request.method != "GET") return reply(405, error_body("GET only"));
    std::ostringstream out;
    {
      io::JsonWriter json(out);
      json.begin_object().begin_array("solvers");
      for (const SolverInfo& info : SolverRegistry::global().list()) {
        json.begin_object()
            .value("name", info.name)
            .value("description", info.description)
            .end_object();
      }
      json.end_array().end_object();
    }
    return reply(200, out.str());
  }
  if (request.path == "/v1/problems") {
    if (request.method != "GET") return reply(405, error_body("GET only"));
    std::ostringstream out;
    {
      io::JsonWriter json(out);
      json.begin_object().begin_array("problems");
      for (const ProblemInfo& info : ProblemRegistry::global().list()) {
        json.begin_object()
            .value("name", info.name)
            .value("description", info.description)
            .value("takes_path", info.takes_path)
            .end_object();
      }
      json.end_array().end_object();
    }
    return reply(200, out.str());
  }
  if (request.path == "/v1/jobs" || request.path.rfind("/v1/jobs/", 0) == 0) {
    return handle_jobs_path(request);
  }
  return reply(404, error_body("no route for '" + request.path + "'"));
}

HttpResult SolveServer::handle_jobs_path(const HttpRequest& request) {
  if (request.path == "/v1/jobs") {
    if (request.method != "POST") {
      return reply(405, error_body("POST a job object to /v1/jobs"));
    }
    if (config_.shard_of_idx) {
      // External-LB sharding: this process owns one slice of the ring.
      // A misrouted submission is the balancer's bug; point at the owner.
      service::BatchJob job;
      try {
        job = service::parse_batch_job(request.body);
      } catch (const std::exception& e) {
        return reply(400, error_body(e.what()));
      }
      const std::size_t owner = ring_.owner(service::spec_key(job));
      if (owner != *config_.shard_of_idx) {
        std::ostringstream out;
        {
          io::JsonWriter json(out);
          json.begin_object()
              .value("error", "key is owned by shard " +
                                  std::to_string(owner) + " of " +
                                  std::to_string(config_.shard_of_total))
              .value("shard", static_cast<std::uint64_t>(owner))
              .end_object();
        }
        return reply(421, out.str());
      }
    }
    return from_api(backend_.submit(request.body));
  }

  // "/v1/jobs/{id}" or "/v1/jobs/{id}/events".
  const std::string rest = request.path.substr(sizeof("/v1/jobs/") - 1);
  const std::size_t slash = rest.find('/');
  const std::string id_text = rest.substr(0, slash);
  const std::string tail =
      slash == std::string::npos ? "" : rest.substr(slash);
  if (id_text.empty() ||
      id_text.find_first_not_of("0123456789") != std::string::npos) {
    return reply(400, error_body("malformed job id '" + id_text + "'"));
  }
  const std::uint64_t id = std::strtoull(id_text.c_str(), nullptr, 10);

  if (config_.shard_of_idx && config_.shard_of_total > 1 &&
      id % config_.shard_of_total != *config_.shard_of_idx) {
    std::ostringstream out;
    {
      io::JsonWriter json(out);
      json.begin_object()
          .value("error", "job " + id_text + " is owned by shard " +
                              std::to_string(id % config_.shard_of_total))
          .value("shard",
                 static_cast<std::uint64_t>(id % config_.shard_of_total))
          .end_object();
    }
    return reply(421, out.str());
  }

  if (tail.empty()) {
    if (request.method == "GET") return from_api(backend_.status(id));
    if (request.method == "DELETE") return from_api(backend_.cancel(id));
    return reply(405, error_body("GET or DELETE a job"));
  }
  if (tail == "/events") {
    if (request.method != "GET") return reply(405, error_body("GET only"));
    std::uint64_t cursor = cursor_from_query(request.query);
    bool done = false;
    std::size_t count = 0;
    // First page inline: a 404/503 stays a plain response (no stream is
    // started), and the client always gets an immediate state line.
    const ApiReply first = backend_.events(id, &cursor, &done, &count);
    if (first.status != 200) return from_api(first);
    HttpResult result;
    result.response.status = 200;
    result.response.content_type = "application/jsonl";
    if (done) {
      result.response.body = first.body + "\n";
      return result;
    }
    result.response.body.clear();
    auto stream = std::make_unique<EventStream>(backend_, id, cursor);
    // The first page becomes the first chunk by prepending it.
    class FirstThen final : public ChunkSource {
     public:
      FirstThen(std::string first, std::unique_ptr<ChunkSource> rest)
          : first_(std::move(first)), rest_(std::move(rest)) {}
      Next next(std::string& chunk) override {
        if (!first_.empty()) {
          chunk = std::move(first_);
          first_.clear();
          return Next::kChunk;
        }
        return rest_->next(chunk);
      }

     private:
      std::string first_;
      std::unique_ptr<ChunkSource> rest_;
    };
    result.stream =
        std::make_unique<FirstThen>(first.body + "\n", std::move(stream));
    return result;
  }
  return reply(404, error_body("no route for '" + request.path + "'"));
}

HttpResult SolveServer::healthz_result() {
  const obs::BuildInfo& build = obs::build_info();
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object()
        .value("status", "ok")
        .value("uptime_seconds", uptime_.elapsed_seconds())
        .value("pid", static_cast<std::int64_t>(::getpid()))
        .value("shards", static_cast<std::uint64_t>(backend_.shards()));
    if (config_.shard_of_idx) {
      json.value("shard_of_idx",
                 static_cast<std::uint64_t>(*config_.shard_of_idx))
          .value("shard_of_total",
                 static_cast<std::uint64_t>(config_.shard_of_total));
    }
    json.begin_object("build")
        .value("version", build.version)
        .value("git", build.git)
        .value("compiler", build.compiler)
        .value("build_type", build.build_type)
        .value("flags", build.flags)
        .end_object();
    json.end_object();
  }
  return reply(200, out.str());
}

HttpResult SolveServer::stats_result() {
  const ApiReply backend = backend_.stats();
  const HttpServer::Counters& c = http_.counters();
  std::ostringstream http_json;
  {
    io::JsonWriter json(http_json);
    json.begin_object()
        .value("connections_accepted", c.connections_accepted)
        .value("connections_rejected", c.connections_rejected)
        .value("accept_faults", c.accept_faults)
        .value("requests", c.requests)
        .value("handler_errors", c.handler_errors)
        .value("write_errors", c.write_errors)
        .end_object();
  }
  // Both parts are rendered JSON objects; splice rather than re-parse.
  return reply(200, "{\"http\": " + http_json.str() +
                        ", \"service\": " + backend.body + "}");
}

}  // namespace dabs::net
