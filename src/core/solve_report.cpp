#include "core/solve_report.hpp"

#include <cmath>
#include <sstream>

#include "io/json_writer.hpp"

namespace dabs {

void SolveReport::write_json(io::JsonWriter& json,
                             const std::string& key) const {
  json.begin_object(key)
      .value("solver", solver)
      .value("best_energy", best_energy)
      .value("reached_target", reached_target)
      .value("tts_seconds", tts_seconds)
      .value("elapsed_seconds", elapsed_seconds)
      .value("flips", flips)
      .value("batches", batches)
      .value("restarts", restarts)
      .value("cancelled", cancelled);
  json.begin_object("extras");
  for (const auto& [k, v] : extras) json.value(k, v);
  json.end_object();
  json.end_object();
}

std::string SolveReport::to_string() const {
  std::ostringstream os;
  os << "solver      : " << solver << "\n"
     << "best energy : " << best_energy << "\n"
     << "elapsed     : " << elapsed_seconds << "s\n";
  if (reached_target) os << "TTS         : " << tts_seconds << "s\n";
  if (batches != 0) os << "batches     : " << batches << "\n";
  if (flips != 0) os << "flips       : " << flips << "\n";
  if (restarts != 0) os << "restarts    : " << restarts << "\n";
  if (cancelled) os << "cancelled   : yes\n";
  for (const auto& [k, v] : extras) os << k << " = " << v << "\n";
  return os.str();
}

double energy_gap(Energy found, Energy reference) {
  if (reference == 0) return found == 0 ? 0.0 : 1.0;
  return double(found - reference) / std::abs(double(reference));
}

}  // namespace dabs
