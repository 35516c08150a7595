#include "qubo/model_info.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <vector>

#include "util/assert.hpp"

namespace dabs {

ModelInfo analyze_model(const QuboModel& model) {
  const auto n = static_cast<VarIndex>(model.size());
  DABS_CHECK(n > 0, "cannot analyze an empty model");
  ModelInfo info;
  info.variables = n;
  info.couplings = model.edge_count();
  info.density =
      n >= 2 ? double(info.couplings) / (double(n) * double(n - 1) / 2.0)
             : 0.0;

  info.min_degree = model.size();
  std::size_t degree_sum = 0;
  bool first_weight = true;
  auto consider = [&](Weight w) {
    if (first_weight) {
      info.min_weight = info.max_weight = w;
      first_weight = false;
    } else {
      info.min_weight = std::min(info.min_weight, w);
      info.max_weight = std::max(info.max_weight, w);
    }
  };

  for (VarIndex i = 0; i < n; ++i) {
    if (model.diag(i) != 0) consider(model.diag(i));
    info.energy_scale += std::abs(Energy{model.diag(i)});

    std::size_t d = 0;
    model.for_each_coupling(i, [&](VarIndex j, Weight w) {
      ++d;
      consider(w);
      if (j > i) info.energy_scale += std::abs(Energy{w});
    });
    degree_sum += d;
    info.min_degree = std::min(info.min_degree, d);
    info.max_degree = std::max(info.max_degree, d);
    if (d == 0 && model.diag(i) == 0) ++info.isolated_variables;
  }
  info.mean_degree = double(degree_sum) / double(n);

  // Connected components over the coupling graph.
  std::vector<bool> visited(n, false);
  for (VarIndex s = 0; s < n; ++s) {
    if (visited[s]) continue;
    ++info.components;
    std::queue<VarIndex> q;
    q.push(s);
    visited[s] = true;
    while (!q.empty()) {
      const VarIndex v = q.front();
      q.pop();
      model.for_each_coupling(v, [&](VarIndex u, Weight) {
        if (!visited[u]) {
          visited[u] = true;
          q.push(u);
        }
      });
    }
  }
  return info;
}

std::string describe_model(const ModelInfo& info) {
  std::ostringstream os;
  os << "variables : " << info.variables << "\n"
     << "couplings : " << info.couplings << " (density " << info.density
     << ")\n"
     << "degree    : min " << info.min_degree << " mean "
     << info.mean_degree << " max " << info.max_degree << "\n"
     << "weights   : [" << info.min_weight << ", " << info.max_weight
     << "], total |w| = " << info.energy_scale << "\n"
     << "structure : " << info.components << " component(s), "
     << info.isolated_variables << " isolated variable(s)\n";
  return os.str();
}

}  // namespace dabs
