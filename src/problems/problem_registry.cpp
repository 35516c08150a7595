#include "problems/problem_registry.hpp"

#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include "io/gset.hpp"
#include "io/qaplib.hpp"
#include "io/qubo_text.hpp"
#include "problems/pegasus.hpp"
#include "problems/standard_problems.hpp"
#include "util/assert.hpp"

namespace dabs {

void ProblemRegistry::add_entry(std::string name, std::string description,
                                bool takes_path, Factory factory) {
  DABS_CHECK(!name.empty(), "problem name must not be empty");
  DABS_CHECK(factory != nullptr, "problem factory must not be null");
  DABS_CHECK(name.find(':') == std::string::npos,
             "problem names must not contain ':'");
  std::lock_guard lock(mu_);
  const bool inserted =
      entries_
          .emplace(std::move(name), Entry{std::move(description), takes_path,
                                          std::move(factory)})
          .second;
  DABS_CHECK(inserted, "duplicate problem registration");
}

void ProblemRegistry::add(std::string name, std::string description,
                          Factory factory) {
  add_entry(std::move(name), std::move(description), false,
            std::move(factory));
}

void ProblemRegistry::add_loader(std::string name, std::string description,
                                 Factory factory) {
  add_entry(std::move(name), std::move(description), true,
            std::move(factory));
}

bool ProblemRegistry::contains(const std::string& name) const {
  std::lock_guard lock(mu_);
  return entries_.count(name) != 0;
}

bool ProblemRegistry::is_loader(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.takes_path;
}

std::unique_ptr<Problem> ProblemRegistry::create(
    const std::string& spec, const SolverOptions& options) const {
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  Factory factory;
  {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::ostringstream os;
      os << "unknown problem '" << name << "'; registered:";
      for (const auto& [n, e] : entries_) {
        (void)e;
        os << ' ' << n;
      }
      throw std::invalid_argument(os.str());
    }
    factory = it->second.factory;
  }
  SolverOptions with_path = options;
  if (colon != std::string::npos) {
    with_path.set("path", spec.substr(colon + 1));
  }
  std::unique_ptr<Problem> problem = factory(with_path);
  const std::vector<std::string> unknown = with_path.unused();
  if (!unknown.empty()) {
    std::ostringstream os;
    os << "problem '" << name << "' does not take param";
    os << (unknown.size() > 1 ? "s" : "");
    for (const std::string& k : unknown) os << " '" << k << "'";
    throw std::invalid_argument(os.str());
  }
  return problem;
}

std::vector<ProblemInfo> ProblemRegistry::list() const {
  std::lock_guard lock(mu_);
  std::vector<ProblemInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back({name, entry.description, entry.takes_path});
  }
  return out;  // std::map iteration is already name-sorted
}

namespace {

namespace pr = problems;

/// Canonical "family(k=v,...)" keys: every factory resolves its defaults
/// first, so equal specs always render equal keys (ModelCache dedupe).
class KeyBuilder {
 public:
  explicit KeyBuilder(const char* family) { os_ << family << '('; }

  template <typename T>
  KeyBuilder& param(const char* k, const T& v) {
    if (!first_) os_ << ',';
    first_ = false;
    os_ << k << '=' << v;
    return *this;
  }

  std::string str() {
    os_ << ')';
    return os_.str();
  }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

/// File-loader wrapper: params are validated eagerly (create() still
/// rejects bad specs), but the file read is deferred to first use — so an
/// unreadable path surfaces where the model is loaded (a retryable
/// "failed" in the batch pipeline), not as a spec error; a cache-hit job
/// touches the disk only at its first decode/verify call.
class DeferredLoaderProblem : public Problem {
 public:
  DeferredLoaderProblem(std::string family, std::string name,
                        std::string key,
                        std::function<std::unique_ptr<Problem>()> make)
      : family_(std::move(family)),
        name_(std::move(name)),
        key_(std::move(key)),
        make_(std::move(make)) {}

  std::string_view family() const noexcept override { return family_; }
  const std::string& name() const noexcept override { return name_; }
  const std::string& cache_key() const noexcept override { return key_; }
  QuboModel encode() const override { return inner().encode(); }
  DomainSolution decode(const BitVector& x) const override {
    return inner().decode(x);
  }
  VerifyResult verify(const BitVector& x,
                      std::optional<Energy> model_energy) const override {
    return inner().verify(x, model_energy);
  }
  std::string describe() const override { return inner().describe(); }

 private:
  /// Materializes once; a throwing load (missing file) is retried on the
  /// next call (std::call_once does not latch on exceptions).
  const Problem& inner() const {
    std::call_once(once_, [this] { inner_ = make_(); });
    return *inner_;
  }

  std::string family_;
  std::string name_;
  std::string key_;
  std::function<std::unique_ptr<Problem>()> make_;
  mutable std::once_flag once_;
  mutable std::unique_ptr<Problem> inner_;
};

std::string require_path(const char* family, const SolverOptions& o) {
  const std::string path = o.get("path", "");
  if (path.empty()) {
    throw std::invalid_argument(std::string("loader '") + family +
                                "' needs a file: use \"" + family +
                                ":<path>\" or the path=<file> param");
  }
  return path;
}

/// File stem ("dir/G22.txt" -> "G22") for loader instance names.
std::string path_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  std::size_t end = path.find_last_of('.');
  if (end == std::string::npos || end <= start) end = path.size();
  return path.substr(start, end - start);
}

// Bounds of the params narrowed to `int`/`Weight`: a larger value would
// wrap in the cast.  The grid QAP draws flows from [0, max], and QASP draws
// biases from [-4r, 4r] through a count of 8r, both in `int`.
constexpr std::uint64_t kMaxWeight = std::numeric_limits<Weight>::max();
constexpr std::uint64_t kMaxDrawBound = std::numeric_limits<int>::max() - 1;
constexpr std::uint64_t kMaxQaspResolution =
    std::numeric_limits<int>::max() / 8;

void register_builtin_problems(ProblemRegistry& reg) {
  // -- MaxCut generators (paper §VI-A benchmark graphs) --------------------
  reg.add("k2000",
          "K2000-equivalent MaxCut: 2000-node complete graph, +-1 weights "
          "[seed]",
          [](const SolverOptions& o) -> std::unique_ptr<Problem> {
            const std::uint64_t seed = o.get_u64("seed", 2000);
            return std::make_unique<pr::MaxCutProblem>(
                pr::make_k2000(seed), QuboBackend::kAuto,
                KeyBuilder("k2000").param("seed", seed).str());
          });
  reg.add("g22",
          "G22-equivalent MaxCut: 2000 nodes, 19990 edges, +1 weights "
          "[seed]",
          [](const SolverOptions& o) -> std::unique_ptr<Problem> {
            const std::uint64_t seed = o.get_u64("seed", 22);
            return std::make_unique<pr::MaxCutProblem>(
                pr::make_g22_like(seed), QuboBackend::kAuto,
                KeyBuilder("g22").param("seed", seed).str());
          });
  reg.add("g39",
          "G39-equivalent MaxCut: 2000 nodes, 11778 edges, +-1 weights "
          "[seed]",
          [](const SolverOptions& o) -> std::unique_ptr<Problem> {
            const std::uint64_t seed = o.get_u64("seed", 39);
            return std::make_unique<pr::MaxCutProblem>(
                pr::make_g39_like(seed), QuboBackend::kAuto,
                KeyBuilder("g39").param("seed", seed).str());
          });
  reg.add("maxcut",
          "Random MaxCut graph [n, m, weights=pm1|p1, seed]",
          [](const SolverOptions& o) -> std::unique_ptr<Problem> {
            const std::uint64_t n = o.get_u64("n", 200);
            const std::uint64_t m = o.get_u64("m", 2000);
            const std::string weights = o.get("weights", "pm1");
            const std::uint64_t seed = o.get_u64("seed", 1);
            pr::EdgeWeights w;
            if (weights == "pm1") {
              w = pr::EdgeWeights::kPlusMinusOne;
            } else if (weights == "p1") {
              w = pr::EdgeWeights::kPlusOne;
            } else {
              throw std::invalid_argument(
                  "problem param 'weights' must be pm1 or p1");
            }
            return std::make_unique<pr::MaxCutProblem>(
                pr::make_random_maxcut(n, m, w, seed, "maxcut"),
                QuboBackend::kAuto, KeyBuilder("maxcut")
                                        .param("n", n)
                                        .param("m", m)
                                        .param("weights", weights)
                                        .param("seed", seed)
                                        .str());
          });

  // -- QAP generators (paper §II-B) ----------------------------------------
  reg.add("qap",
          "Synthetic QAP: kind=uniform (Taillard-style: n, max) or "
          "kind=grid (Nugent-style: rows, cols, max) [kind, n, rows, cols, "
          "max, seed, penalty]",
          [](const SolverOptions& o) -> std::unique_ptr<Problem> {
            const std::string kind = o.get("kind", "uniform");
            const std::uint64_t seed = o.get_u64("seed", 1);
            const auto penalty =
                static_cast<Weight>(o.get_u64("penalty", 0, kMaxWeight));
            KeyBuilder key("qap");
            key.param("kind", kind);
            pr::QapInstance inst;
            if (kind == "uniform") {
              const std::uint64_t n = o.get_u64("n", 8);
              const auto max =
                  static_cast<int>(o.get_u64("max", 9, kMaxDrawBound));
              inst = pr::make_uniform_qap(n, max, seed, "uniform");
              key.param("n", n).param("max", max);
            } else if (kind == "grid") {
              const std::uint64_t rows = o.get_u64("rows", 3);
              const std::uint64_t cols = o.get_u64("cols", 4);
              const auto max =
                  static_cast<int>(o.get_u64("max", 10, kMaxDrawBound));
              inst = pr::make_grid_qap(rows, cols, max, seed, "grid");
              key.param("rows", rows).param("cols", cols).param("max", max);
            } else {
              throw std::invalid_argument(
                  "problem param 'kind' must be uniform or grid");
            }
            // Key the *resolved* penalty so "penalty=0" (auto) and an
            // explicit equal value name the same instance.
            const Weight resolved =
                penalty == 0 ? pr::min_safe_qap_penalty(inst) : penalty;
            key.param("seed", seed).param("penalty", resolved);
            return std::make_unique<pr::QapProblem>(std::move(inst), penalty,
                                                    key.str());
          });

  // -- QASP generator (paper §II-C) -----------------------------------------
  reg.add("qasp",
          "Quantum Annealer Simulation Problem: random Ising on Pegasus "
          "P(m) at resolution r [r, m, nodes, graph-seed, value-seed]",
          [](const SolverOptions& o) -> std::unique_ptr<Problem> {
            pr::QaspParams p;
            p.resolution =
                static_cast<int>(o.get_u64("r", 16, kMaxQaspResolution));
            p.pegasus_m = o.get_u64("m", 3);
            p.graph_seed = o.get_u64("graph-seed", 41);
            p.value_seed = o.get_u64("value-seed", 42);
            // 0 = the full ideal graph (no faults); the paper's Advantage
            // 4.1 working graph is m=16, nodes=5627.
            p.working_nodes = o.get_u64("nodes", 0);
            if (p.working_nodes == 0) {
              p.working_nodes = pr::PegasusGraph::ideal_node_count(p.pegasus_m);
            }
            return std::make_unique<pr::QaspProblem>(
                p, KeyBuilder("qasp")
                       .param("r", p.resolution)
                       .param("m", p.pegasus_m)
                       .param("nodes", p.working_nodes)
                       .param("graph-seed", p.graph_seed)
                       .param("value-seed", p.value_seed)
                       .str());
          });

  // -- File loaders (the legacy model formats) -----------------------------
  reg.add_loader(
      "qubo", "QUBO text file (io/qubo_text.hpp) [path]",
      [](const SolverOptions& o) -> std::unique_ptr<Problem> {
        const std::string path = require_path("qubo", o);
        return std::make_unique<DeferredLoaderProblem>(
            "qubo", path_stem(path),
            KeyBuilder("qubo").param("path", path).str(),
            [path]() -> std::unique_ptr<Problem> {
              return std::make_unique<pr::RawQuboProblem>(
                  io::read_qubo_file(path), path_stem(path));
            });
      });
  reg.add_loader(
      "gset", "Gset MaxCut file (io/gset.hpp) [path]",
      [](const SolverOptions& o) -> std::unique_ptr<Problem> {
        const std::string path = require_path("gset", o);
        return std::make_unique<DeferredLoaderProblem>(
            "maxcut", path_stem(path),
            KeyBuilder("gset").param("path", path).str(),
            [path]() -> std::unique_ptr<Problem> {
              return std::make_unique<pr::MaxCutProblem>(
                  io::read_gset_file(path));
            });
      });
  reg.add_loader(
      "qaplib", "QAPLIB .dat file (io/qaplib.hpp) [path, penalty]",
      [](const SolverOptions& o) -> std::unique_ptr<Problem> {
        const std::string path = require_path("qaplib", o);
        const auto penalty =
            static_cast<Weight>(o.get_u64("penalty", 0, kMaxWeight));
        // Keyed as given ("auto" when 0): resolving the bound here would
        // need the file; equal-content encodes still collapse at the
        // cache's content-interning layer.
        KeyBuilder key("qaplib");
        key.param("path", path);
        if (penalty == 0) {
          key.param("penalty", "auto");
        } else {
          key.param("penalty", penalty);
        }
        return std::make_unique<DeferredLoaderProblem>(
            "qap", path_stem(path), key.str(),
            [path, penalty]() -> std::unique_ptr<Problem> {
              return std::make_unique<pr::QapProblem>(
                  io::read_qaplib_file(path), penalty);
            });
      });
}

}  // namespace

ProblemRegistry& ProblemRegistry::global() {
  static ProblemRegistry* reg = [] {
    auto* r = new ProblemRegistry();
    register_builtin_problems(*r);
    return r;
  }();
  return *reg;
}

}  // namespace dabs
