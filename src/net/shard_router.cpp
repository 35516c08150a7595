#include "net/shard_router.hpp"

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <stdexcept>

#include "io/json_reader.hpp"
#include "io/json_writer.hpp"
#include "net/shard_rpc.hpp"
#include "obs/log.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace dabs::net {

namespace {

/// Front-end-side shard RPC metrics (the forked workers never touch
/// these — their registries are separate address spaces).
struct RpcMetrics {
  obs::Counter* frames = nullptr;
  obs::Counter* errors = nullptr;
  obs::Histogram* seconds = nullptr;
};

RpcMetrics& rpc_metrics() {
  static RpcMetrics metrics = [] {
    auto& reg = obs::MetricsRegistry::global();
    RpcMetrics m;
    m.frames = &reg.counter("dabs_shard_rpc_frames_total",
                            "Shard RPC round trips attempted by the front "
                            "end.");
    m.errors = &reg.counter("dabs_shard_rpc_errors_total",
                            "Shard RPC round trips that failed (transport "
                            "fault, torn frame, or injected failpoint).");
    m.seconds = &reg.histogram("dabs_shard_rpc_seconds",
                               "Shard RPC round-trip latency in seconds.",
                               obs::Histogram::default_latency_bounds());
    return m;
  }();
  return metrics;
}

void note_rpc_failure(std::size_t shard, const char* stage) {
  rpc_metrics().errors->inc();
  static obs::LogRateLimit gate(5.0);
  std::uint64_t suppressed = 0;
  if (gate.allow(&suppressed)) {
    obs::log(obs::LogLevel::kWarn, "shard", "rpc failed",
             {{"shard", static_cast<std::uint64_t>(shard)},
              {"stage", stage},
              {"suppressed", suppressed}});
  }
}

// FNV-1a alone places short, similar strings unevenly around the ring (its
// high bits barely avalanche, and ring ordering is dominated by high bits),
// so the hash is pushed through a 64-bit finalizer before use.
std::uint64_t ring_hash(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

std::string error_body(const std::string& message) {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object().value("error", message).end_object();
  }
  return out.str();
}

}  // namespace

HashRing::HashRing(std::size_t shards, std::size_t vnodes_per_shard)
    : shards_(shards == 0 ? 1 : shards) {
  ring_.reserve(shards_ * vnodes_per_shard);
  for (std::size_t s = 0; s < shards_; ++s) {
    for (std::size_t v = 0; v < vnodes_per_shard; ++v) {
      ring_.emplace_back(ring_hash("shard:" + std::to_string(s) +
                                   ":vnode:" + std::to_string(v)),
                         static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t HashRing::owner(const std::string& key) const {
  const std::uint64_t h = ring_hash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::uint32_t>& point,
         std::uint64_t hash) { return point.first < hash; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the circle
  return it->second;
}

ShardGroup::ShardGroup(const JobApi::Config& base, std::size_t shards) {
  if (shards == 0) {
    throw std::invalid_argument("shard group needs at least one shard");
  }
  shards_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("socketpair: " + errno_string());
    }
    UniqueFd parent_end(sv[0]);
    UniqueFd child_end(sv[1]);
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error("fork: " + errno_string());
    }
    if (pid == 0) {
      // Child: drop every parent-side fd (including earlier siblings' —
      // a stray duplicate would block their EOF shutdown), then become
      // the worker.  _exit skips parent-state destructors.
      parent_end.reset();
      for (Shard& earlier : shards_) earlier.fd.reset();
      JobApi::Config config = base;
      config.shard_idx = k;
      config.shards = shards;
      if (!config.journal_path.empty()) {
        config.journal_path += ".shard" + std::to_string(k);
      }
      if (!config.trace_path.empty()) {
        config.trace_path += ".shard" + std::to_string(k);
      }
      int code = 1;
      try {
        code = shard_worker_main(child_end.get(), config);
      } catch (...) {
      }
      ::_exit(code);
    }
    Shard shard;
    shard.fd = std::move(parent_end);
    shard.pid = pid;
    shard.mu = std::make_unique<std::mutex>();
    shards_.push_back(std::move(shard));
  }
}

ShardGroup::~ShardGroup() {
  for (Shard& shard : shards_) shard.fd.reset();  // EOF: workers exit
  for (Shard& shard : shards_) {
    if (shard.pid > 0) {
      int status = 0;
      while (::waitpid(shard.pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
}

ApiReply ShardGroup::call(std::size_t shard, const std::string& frame,
                          std::uint64_t* cursor, bool* done,
                          std::size_t* count) {
  if (shard >= shards_.size()) {
    return {500, error_body("shard index out of range")};
  }
  Shard& target = shards_[shard];
  std::lock_guard lock(*target.mu);
  rpc_metrics().frames->inc();
  const Stopwatch rtt;
  try {
    // Injected RPC fault (DABS_FAILPOINTS="shard.rpc=..."): fires before
    // any bytes are written, so the frame stream stays in sync and the
    // next call goes through — a 503-then-recover, not a wedged pipe.
    fail::point("shard.rpc");
  } catch (const std::exception& e) {
    note_rpc_failure(shard, "failpoint");
    return {503, error_body(std::string("shard rpc fault: ") + e.what())};
  }
  if (!target.fd.valid() || !write_frame(target.fd.get(), frame)) {
    note_rpc_failure(shard, "write");
    return {503, error_body("shard " + std::to_string(shard) +
                            " is unreachable (write): " + errno_string())};
  }
  std::string response;
  if (read_frame(target.fd.get(), &response) != 1) {
    note_rpc_failure(shard, "read");
    return {503, error_body("shard " + std::to_string(shard) +
                            " is unreachable (read)")};
  }
  rpc_metrics().seconds->observe(rtt.elapsed_seconds());
  try {
    const io::JsonValue root = io::parse_json(response);
    ApiReply reply;
    const io::JsonValue* status = root.find("status");
    const io::JsonValue* body = root.find("body");
    if (status == nullptr || body == nullptr) {
      throw std::invalid_argument("response missing status/body");
    }
    reply.status = static_cast<int>(status->as_int());
    reply.body = body->as_string();
    if (cursor != nullptr) {
      const io::JsonValue* c = root.find("cursor");
      if (c != nullptr) *cursor = static_cast<std::uint64_t>(c->as_int());
    }
    if (done != nullptr) {
      const io::JsonValue* d = root.find("done");
      if (d != nullptr) *done = d->as_bool();
    }
    if (count != nullptr) {
      const io::JsonValue* n = root.find("count");
      if (n != nullptr) *count = static_cast<std::size_t>(n->as_int());
    }
    return reply;
  } catch (const std::exception& e) {
    note_rpc_failure(shard, "decode");
    return {503, error_body("shard " + std::to_string(shard) +
                            " sent an unreadable response: " + e.what())};
  }
}

ApiReply ShardGroup::call_submit(std::size_t shard, const std::string& body) {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object().value("op", "submit").value("body", body).end_object();
  }
  return call(shard, out.str(), nullptr, nullptr, nullptr);
}

ApiReply ShardGroup::call_id(std::size_t shard, const char* op,
                             std::uint64_t id) {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object().value("op", op).value("id", id).end_object();
  }
  return call(shard, out.str(), nullptr, nullptr, nullptr);
}

ApiReply ShardGroup::call_events(std::size_t shard, std::uint64_t id,
                                 std::uint64_t* cursor, bool* done,
                                 std::size_t* count) {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object()
        .value("op", "events")
        .value("id", id)
        .value("cursor", *cursor)
        .end_object();
  }
  return call(shard, out.str(), cursor, done, count);
}

ApiReply ShardGroup::call_stats(std::size_t shard) {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object().value("op", "stats").end_object();
  }
  return call(shard, out.str(), nullptr, nullptr, nullptr);
}

ApiReply ShardGroup::call_metrics(std::size_t shard) {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object().value("op", "metrics").end_object();
  }
  return call(shard, out.str(), nullptr, nullptr, nullptr);
}

ShardBackend::ShardBackend(ShardGroup& group)
    : group_(group), ring_(group.shards()) {
  auto& reg = obs::MetricsRegistry::global();
  submit_counters_.reserve(group_.shards());
  for (std::size_t k = 0; k < group_.shards(); ++k) {
    submit_counters_.push_back(
        &reg.counter("dabs_shard_submits_total",
                     "Submissions routed to each shard by the front end.",
                     {{"shard", std::to_string(k)}}));
  }
}

ApiReply ShardBackend::submit(const std::string& body) {
  service::BatchJob job;
  try {
    job = service::parse_batch_job(body);
  } catch (const std::exception& e) {
    return {400, error_body(e.what())};  // reject before spending an RPC
  }
  const std::size_t owner = ring_.owner(service::spec_key(job));
  submit_counters_[owner]->inc();
  return group_.call_submit(owner, body);
}

ApiReply ShardBackend::status(std::uint64_t id) {
  return group_.call_id(id % group_.shards(), "status", id);
}

ApiReply ShardBackend::cancel(std::uint64_t id) {
  return group_.call_id(id % group_.shards(), "cancel", id);
}

ApiReply ShardBackend::events(std::uint64_t id, std::uint64_t* cursor,
                              bool* done, std::size_t* count) {
  *done = false;
  *count = 0;
  return group_.call_events(id % group_.shards(), id, cursor, done, count);
}

ApiReply ShardBackend::stats() {
  // Fan out and aggregate: one entry per worker, raw as each worker sent
  // it (every entry is a valid JSON object, including 503 error bodies).
  std::string merged = "{\"shards\": " + std::to_string(group_.shards()) +
                       ", \"workers\": [";
  for (std::size_t k = 0; k < group_.shards(); ++k) {
    if (k != 0) merged += ", ";
    merged += group_.call_stats(k).body;
  }
  merged += "]}";
  return {200, merged};
}

ApiReply ShardBackend::metrics() {
  // Merge every worker's registry snapshot under shard="k" labels, plus
  // the front-end process's own registry (HTTP + RPC metrics) under
  // shard="front".  A worker whose RPC fails is skipped — the scrape
  // still succeeds with the shards that answered (and the failure shows
  // up in dabs_shard_rpc_errors_total).
  std::vector<obs::MetricsSnapshot> parts;
  parts.reserve(group_.shards() + 1);
  for (std::size_t k = 0; k < group_.shards(); ++k) {
    const ApiReply reply = group_.call_metrics(k);
    if (reply.status != 200) continue;
    try {
      obs::MetricsSnapshot snap = obs::parse_snapshot_json(reply.body);
      obs::add_label(snap, "shard", std::to_string(k));
      parts.push_back(std::move(snap));
    } catch (const std::exception& e) {
      static obs::LogRateLimit gate(5.0);
      std::uint64_t suppressed = 0;
      if (gate.allow(&suppressed)) {
        obs::log(obs::LogLevel::kWarn, "shard",
                 "unreadable metrics snapshot",
                 {{"shard", static_cast<std::uint64_t>(k)},
                  {"error", e.what()},
                  {"suppressed", suppressed}});
      }
    }
  }
  obs::MetricsSnapshot front = obs::MetricsRegistry::global().snapshot();
  obs::add_label(front, "shard", "front");
  parts.push_back(std::move(front));

  std::ostringstream out;
  obs::render_prometheus(obs::merge_snapshots(parts), out);
  return {200, out.str()};
}

}  // namespace dabs::net
