// One job contract, both front ends: the same job submitted through the
// JSONL batch runner and through the HTTP JobApi must get the same
// fingerprint, the same per-job journal sequence and the same report
// extras, because both run the one lifecycle in service/job_ledger.hpp.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/json_reader.hpp"
#include "net/job_api.hpp"
#include "obs/metrics.hpp"
#include "service/batch_runner.hpp"
#include "util/failpoint.hpp"

namespace dabs {
namespace {

const char* const kJob =
    R"({"problem": "maxcut", "params": {"n": 16, "m": 40, "seed": 3}, )"
    R"("solver": "sa", "max_batches": 300, "seed": 5, "tag": "contract"})";

std::string fresh_path(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// The journal's events for one fingerprint, in file order.
std::vector<std::string> journal_events(const std::string& path,
                                        const std::string& fingerprint) {
  std::vector<std::string> events;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const io::JsonValue record = io::parse_json(line);
    if (record.find("fp")->as_string() == fingerprint) {
      events.push_back(record.find("event")->as_string());
    }
  }
  return events;
}

std::set<std::string> extras_keys(const io::JsonValue& report) {
  std::set<std::string> keys;
  for (const auto& [key, value] : report.find("extras")->as_object()) {
    keys.insert(key);
  }
  return keys;
}

double journal_error_total() {
  for (const obs::FamilySnapshot& family :
       obs::MetricsRegistry::global().snapshot()) {
    if (family.name != "dabs_journal_append_errors_total") continue;
    double total = 0;
    for (const obs::SampleSnapshot& sample : family.samples) {
      total += sample.value;
    }
    return total;
  }
  return 0;
}

struct FailpointGuard {
  ~FailpointGuard() { fail::clear(); }
};

TEST(JobLedgerContract, BatchAndHttpAgreeOnFingerprintJournalAndExtras) {
  // Batch front end.
  const std::string batch_journal = fresh_path("contract_batch.jsonl");
  service::BatchOptions options;
  options.threads = 1;
  options.journal_path = batch_journal;
  std::istringstream in(std::string(kJob) + "\n");
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(service::run_batch(in, out, err, options), 0) << err.str();
  const io::JsonValue batch_line = io::parse_json(out.str());
  const std::string batch_fp = batch_line.find("fingerprint")->as_string();
  const std::set<std::string> batch_keys =
      extras_keys(*batch_line.find("report"));

  // HTTP front end.
  const std::string http_journal = fresh_path("contract_http.jsonl");
  std::string http_fp;
  std::set<std::string> http_keys;
  {
    net::JobApi::Config config;
    config.threads = 1;
    config.journal_path = http_journal;
    net::JobApi api(config);
    const net::ApiReply accepted = api.submit(kJob);
    ASSERT_EQ(accepted.status, 202) << accepted.body;
    const auto id = static_cast<std::uint64_t>(
        io::parse_json(accepted.body).find("job_id")->as_int());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
      const net::ApiReply reply = api.status(id);
      ASSERT_EQ(reply.status, 200) << reply.body;
      const io::JsonValue status = io::parse_json(reply.body);
      if (status.find("state")->as_string() == "done") {
        http_fp = status.find("fingerprint")->as_string();
        http_keys = extras_keys(*status.find("report"));
        break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << reply.body;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  EXPECT_EQ(batch_fp, http_fp);
  const std::vector<std::string> lifecycle = {"submitted", "started", "done"};
  EXPECT_EQ(journal_events(batch_journal, batch_fp), lifecycle);
  EXPECT_EQ(journal_events(http_journal, http_fp), lifecycle);
  EXPECT_EQ(batch_keys, http_keys);
  for (const char* key : {"objective", "feasible", "verified", "fingerprint",
                          "model", "model_cache", "model_cache_hits"}) {
    EXPECT_EQ(batch_keys.count(key), 1u) << key;
  }
}

TEST(JobLedgerContract, BatchJournalAppendFailuresReachTheMetric) {
  if (!fail::compiled_in()) GTEST_SKIP() << "DABS_FAILPOINTS=OFF";
  FailpointGuard guard;
  fail::configure("journal.append", "always");
  const double before = journal_error_total();
  service::BatchOptions options;
  options.threads = 1;
  options.journal_path = fresh_path("contract_failing.jsonl");
  std::istringstream in(std::string(kJob) + "\n");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(service::run_batch(in, out, err, options), 0) << err.str();
  // submitted, started and done all failed to append.
  EXPECT_GE(journal_error_total() - before, 3.0);
}

}  // namespace
}  // namespace dabs
