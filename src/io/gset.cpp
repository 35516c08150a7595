#include "io/gset.hpp"

#include <fstream>
#include <sstream>

#include "util/assert.hpp"

namespace dabs::io {

problems::MaxCutInstance read_gset(std::istream& in, std::string name) {
  std::size_t n = 0, m = 0;
  DABS_CHECK(static_cast<bool>(in >> n >> m), "gset: missing header");
  DABS_CHECK(n >= 2, "gset: fewer than two nodes");
  problems::MaxCutInstance inst;
  inst.n = n;
  inst.name = std::move(name);
  inst.edges.reserve(m);
  for (std::size_t e = 0; e < m; ++e) {
    long long u = 0, v = 0, w = 0;
    DABS_CHECK(static_cast<bool>(in >> u >> v >> w),
               "gset: truncated edge list");
    DABS_CHECK(u >= 1 && v >= 1 && u <= static_cast<long long>(n) &&
                   v <= static_cast<long long>(n) && u != v,
               "gset: invalid edge endpoints");
    inst.edges.push_back({static_cast<VarIndex>(u - 1),
                          static_cast<VarIndex>(v - 1),
                          static_cast<Weight>(w)});
  }
  return inst;
}

problems::MaxCutInstance read_gset_file(const std::string& path) {
  std::ifstream in(path);
  DABS_CHECK(in.good(), "gset: cannot open file " + path);
  // Use the filename (without directories) as the instance name.
  const auto slash = path.find_last_of('/');
  return read_gset(in, slash == std::string::npos ? path
                                                  : path.substr(slash + 1));
}

void write_gset(std::ostream& out, const problems::MaxCutInstance& inst) {
  out << inst.n << ' ' << inst.edge_count() << '\n';
  inst.for_each_edge([&out](const problems::WeightedEdge& e) {
    out << (e.u + 1) << ' ' << (e.v + 1) << ' ' << e.w << '\n';
  });
}

void write_gset_file(const std::string& path,
                     const problems::MaxCutInstance& inst) {
  std::ofstream out(path);
  DABS_CHECK(out.good(), "gset: cannot open file for writing " + path);
  write_gset(out, inst);
}

}  // namespace dabs::io
