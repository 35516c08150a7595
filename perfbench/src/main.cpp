// perfbench: the measuring program behind `python3 perfbench/run.py`.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//   perfbench --calibrate <tts workload> [--seed <n>] [--trials <n>]
//
// Prints an environment stamp, one line per metric (name, value, unit),
// and as its last line the JSON result object.  Exit codes: 0 success,
// 1 a wrong answer or a failed run, 2 bad usage or an unoptimized library
// build, 3 the traced replay disagreed with Solver::solve.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/build_info.hpp"
#include "workloads.hpp"

namespace {

using Env = std::vector<std::pair<std::string, std::string>>;

std::string isa_flags() {
  std::string isa;
  const auto add = [&isa](const char* name) {
    if (!isa.empty()) isa += ' ';
    isa += name;
  };
#if defined(__AVX512F__)
  add("avx512f");
#endif
#if defined(__AVX2__)
  add("avx2");
#endif
#if defined(__FMA__)
  add("fma");
#endif
#if defined(__BMI2__)
  add("bmi2");
#endif
#if defined(__SSE4_2__)
  add("sse4.2");
#endif
#if defined(__ARM_NEON)
  add("neon");
#endif
  return isa.empty() ? "baseline" : isa;
}

Env environment() {
  const dabs::obs::BuildInfo& b = dabs::obs::build_info();
  return {{"num_cpus", std::to_string(std::thread::hardware_concurrency())},
          {"build_type", b.build_type},
          {"dabs_native", PERFBENCH_DABS_NATIVE ? "ON" : "OFF"},
          {"isa", isa_flags()},
          {"compiler", b.compiler},
          {"flags", b.flags},
          {"git", b.git},
          {"version", b.version}};
}

bool optimized(const std::string& build_type) {
  return build_type == "Release" || build_type == "RelWithDebInfo" ||
         build_type == "MinSizeRel";
}

const char* value_of(int argc, char** argv, int i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "perfbench: %s needs a value\n", argv[i]);
    std::exit(2);
  }
  return argv[i + 1];
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    std::fprintf(stderr, "perfbench: %s expects a whole number, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <k2000-tts|qasp-islands|"
               "k2000-bulk|service-http> --seed <n> --seconds <s> --trace "
               "<0|1> [--trace-file <path>]\n"
               "       perfbench --calibrate <k2000-tts|qasp-islands> "
               "[--seed <n>] [--trials <n>]\n");
  return 2;
}

void print_result(const perfbench::RunOutcome& out, bool trace) {
  std::string json = "{\"correct\": ";
  json += out.ledger.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.ledger.attempted);
  json += ", \"failed\": " + std::to_string(out.ledger.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const perfbench::MetricDef& def) {
    const auto it = out.metrics.find(def.name);
    const double value = it == out.metrics.end() ? 0.0 : it->second;
    std::printf("%-26s %.6g %s%s\n", def.name, value, def.unit,
                it == out.metrics.end() ? " (layer not on this workload)"
                                        : "");
    char number[40];
    std::snprintf(number, sizeof number, "%.17g", value);
    json += first ? "" : ", ";
    json += std::string("\"") + def.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const auto& def : perfbench::kPerLayerMetrics) emit(def);
  } else {
    for (const auto& def : perfbench::kEndToEndMetrics) emit(def);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string calibrate;
  std::size_t trials = 100;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = value_of(argc, argv, i);
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = double(parse_u64(flag, value));
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) return usage();
      opt.trace = t == 1;
      have_trace = true;
    } else if (std::strcmp(flag, "--trace-file") == 0) {
      opt.trace_file = value;
    } else if (std::strcmp(flag, "--calibrate") == 0) {
      calibrate = value;
    } else if (std::strcmp(flag, "--trials") == 0) {
      trials = parse_u64(flag, value);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag);
      return usage();
    }
  }

  opt.environment = environment();
  std::string stamp = "environment:";
  for (const auto& [k, v] : opt.environment) stamp += " " + k + "=" + v;
  std::printf("%s\n", stamp.c_str());
  const std::string& build_type = dabs::obs::build_info().build_type;
  if (!optimized(build_type)) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' library build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }

  try {
    if (!calibrate.empty()) {
      if (trials == 0) return usage();
      perfbench::calibrate_solver_workload(calibrate, opt.seed, trials);
      return 0;
    }
    if (!have_seed || !have_seconds || !have_trace || opt.seconds <= 0) {
      return usage();
    }
    perfbench::RunOutcome out;
    if (opt.workload == "service-http") {
      out = perfbench::run_http_workload(opt);
    } else if (opt.workload == "k2000-tts" || opt.workload == "qasp-islands" ||
               opt.workload == "k2000-bulk") {
      out = perfbench::run_solver_workload(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return usage();
    }
    print_result(out, opt.trace);
    if (!out.ledger.correct()) {
      std::fprintf(stderr, "perfbench: %llu wrong answers\n",
                   static_cast<unsigned long long>(out.ledger.wrong));
      return 1;
    }
    return 0;
  } catch (const perfbench::ReplayMismatch& e) {
    std::fprintf(stderr, "perfbench: replay mismatch: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
