#include "io/qubo_text.hpp"

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "qubo/qubo_builder.hpp"
#include "util/assert.hpp"

namespace dabs::io {

QuboModel read_qubo(std::istream& in) {
  std::string line;
  std::size_t n = 0, m = 0;
  bool have_header = false;
  std::unique_ptr<QuboBuilder> builder;
  std::size_t quadratic_seen = 0;

  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;  // blank / comment line
    if (!have_header) {
      DABS_CHECK(tag == "qubo", "qubo: expected 'qubo <n> <edges>' header");
      DABS_CHECK(static_cast<bool>(ls >> n >> m), "qubo: malformed header");
      DABS_CHECK(n > 0, "qubo: empty model");
      builder = std::make_unique<QuboBuilder>(n);
      have_header = true;
      continue;
    }
    if (tag == "d") {
      long long i = 0, w = 0;
      DABS_CHECK(static_cast<bool>(ls >> i >> w), "qubo: malformed 'd' line");
      builder->add_linear(static_cast<VarIndex>(i), static_cast<Weight>(w));
    } else if (tag == "q") {
      long long i = 0, j = 0, w = 0;
      DABS_CHECK(static_cast<bool>(ls >> i >> j >> w),
                 "qubo: malformed 'q' line");
      builder->add_quadratic(static_cast<VarIndex>(i),
                             static_cast<VarIndex>(j),
                             static_cast<Weight>(w));
      ++quadratic_seen;
    } else {
      DABS_CHECK(false, "qubo: unknown line tag '" + tag + "'");
    }
  }
  DABS_CHECK(have_header, "qubo: missing header");
  DABS_CHECK(quadratic_seen == m,
             "qubo: header edge count does not match 'q' lines");
  return builder->build();
}

QuboModel read_qubo_file(const std::string& path) {
  std::ifstream in(path);
  DABS_CHECK(in.good(), "qubo: cannot open file " + path);
  return read_qubo(in);
}

void write_qubo(std::ostream& out, const QuboModel& model) {
  out << "qubo " << model.size() << ' ' << model.edge_count() << '\n';
  for (VarIndex i = 0; i < model.size(); ++i) {
    if (model.diag(i) != 0) out << "d " << i << ' ' << model.diag(i) << '\n';
  }
  for (VarIndex i = 0; i < model.size(); ++i) {
    model.for_each_coupling(i, [&](VarIndex j, Weight w) {
      if (j > i) out << "q " << i << ' ' << j << ' ' << w << '\n';
    });
  }
}

void write_qubo_file(const std::string& path, const QuboModel& model) {
  std::ofstream out(path);
  DABS_CHECK(out.good(), "qubo: cannot open file for writing " + path);
  write_qubo(out, model);
}

}  // namespace dabs::io
