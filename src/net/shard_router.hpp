// Horizontal sharding for the solve server: N forked worker processes,
// each owning a private SolverService + ModelCache (a JobApi), fronted by
// consistent-hash routing so every model spec key lands on the same
// worker every time — that worker's cache stays hot, and no lock is
// shared across shards.
//
// ShardGroup forks its workers at construction.  fork() and threads do
// not mix, so construct the group BEFORE anything that spawns threads
// (the CLI builds it before the HTTP server and before any JobApi; the
// bench builds it before its client threads).
//
// Topology notes:
//   - Job ids are globally unique by construction (worker k of N issues
//     local*N+k), so the front end routes id-keyed requests with a modulo
//     and never rewrites a response body.
//   - Submissions route on service::spec_key() — the job's *spec*, not the
//     resolved model — hashed onto a 64-vnode-per-shard ring.  The ring is
//     deterministic for a fixed N across processes, which is what lets
//     `dabs_cli serve --shard-of k/N` run the same placement behind an
//     external load balancer.
//   - The failpoint "shard.rpc" (DABS_FAILPOINTS) fires in the front
//     end's call path before any bytes hit the wire: the caller gets a
//     503 and the pipe stays in sync, so the next request succeeds.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

#include "net/job_api.hpp"
#include "net/net_util.hpp"
#include "obs/metrics.hpp"

namespace dabs::net {

/// Consistent-hash ring over `shards` shards: deterministic (FNV-1a plus a
/// fixed 64-bit finalizer over printable vnode labels, no process-local
/// salt), so every process that builds HashRing(N) agrees on placement.
class HashRing {
 public:
  explicit HashRing(std::size_t shards, std::size_t vnodes_per_shard = 64);

  /// The shard owning `key`: first ring point clockwise of hash(key).
  std::size_t owner(const std::string& key) const;

  std::size_t shards() const noexcept { return shards_; }

 private:
  std::size_t shards_;
  /// (point hash, shard) sorted by hash.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

/// N forked shard workers plus the parent-side RPC endpoints.  Calls to
/// one shard serialize on that shard's mutex (the frame protocol has no
/// multiplexing); different shards proceed in parallel.
class ShardGroup {
 public:
  /// Forks `shards` workers immediately.  `base` is each worker's JobApi
  /// config; shard_idx/shards are overridden per worker and a non-empty
  /// journal_path gets a ".shard<k>" suffix so each worker journals (and
  /// resumes) its own slice.  Throws std::runtime_error when a
  /// socketpair/fork fails (workers already forked are shut down).
  ShardGroup(const JobApi::Config& base, std::size_t shards);
  /// Closes the pipes (workers exit on EOF) and reaps every child.
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  std::size_t shards() const noexcept { return shards_.size(); }

  ApiReply call_submit(std::size_t shard, const std::string& body);
  /// op is "status" or "cancel".
  ApiReply call_id(std::size_t shard, const char* op, std::uint64_t id);
  ApiReply call_events(std::size_t shard, std::uint64_t id,
                       std::uint64_t* cursor, bool* done, std::size_t* count);
  ApiReply call_stats(std::size_t shard);
  /// The worker's registry as a snapshot-JSON body (see JobApi::
  /// metrics_snapshot_json); transport failures come back as 503.
  ApiReply call_metrics(std::size_t shard);

 private:
  struct Shard {
    UniqueFd fd;
    pid_t pid = -1;
    std::unique_ptr<std::mutex> mu;
  };

  /// One framed round trip; 503 ApiReply on any transport failure or an
  /// injected "shard.rpc" fault.  The events out-params are filled only
  /// when non-null and present in the response.
  ApiReply call(std::size_t shard, const std::string& frame,
                std::uint64_t* cursor, bool* done, std::size_t* count);

  std::vector<Shard> shards_;
};

/// JobBackend over a ShardGroup: submissions consistent-hash to a worker,
/// id-keyed operations route by id modulo, stats fans out to every shard.
class ShardBackend final : public JobBackend {
 public:
  explicit ShardBackend(ShardGroup& group);

  ApiReply submit(const std::string& body) override;
  ApiReply status(std::uint64_t id) override;
  ApiReply events(std::uint64_t id, std::uint64_t* cursor, bool* done,
                  std::size_t* count) override;
  ApiReply cancel(std::uint64_t id) override;
  ApiReply stats() override;
  /// One Prometheus exposition covering every worker's registry (labelled
  /// shard="k") plus this front-end process's own (shard="front").
  ApiReply metrics() override;
  std::size_t shards() const override { return group_.shards(); }

  const HashRing& ring() const noexcept { return ring_; }

 private:
  ShardGroup& group_;
  HashRing ring_;
  /// dabs_shard_submits_total{shard="k"}: routing decisions per worker.
  std::vector<obs::Counter*> submit_counters_;
};

}  // namespace dabs::net
