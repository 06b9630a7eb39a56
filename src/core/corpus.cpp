#include "core/corpus.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"

namespace rush::core {

void Corpus::add(CollectedSample sample) {
  RUSH_EXPECTS(sample.features_all.size() == telemetry::FeatureAssembler::kNumFeatures);
  RUSH_EXPECTS(sample.features_job.size() == telemetry::FeatureAssembler::kNumFeatures);
  RUSH_EXPECTS(sample.runtime_s > 0.0);
  samples_.push_back(std::move(sample));
}

void Corpus::append(Corpus other) {
  samples_.insert(samples_.end(), std::make_move_iterator(other.samples_.begin()),
                  std::make_move_iterator(other.samples_.end()));
  other.samples_.clear();
}

std::vector<std::string> Corpus::app_names() const {
  std::vector<std::string> out;
  for (const auto& s : samples_)
    if (std::find(out.begin(), out.end(), s.app) == out.end()) out.push_back(s.app);
  return out;
}

std::vector<AppStats> Corpus::app_stats() const {
  std::vector<AppStats> out;
  for (const std::string& app : app_names()) out.push_back(stats_for(app));
  return out;
}

AppStats Corpus::stats_for(const std::string& app) const {
  RunningStats acc;
  for (const auto& s : samples_)
    if (s.app == app) acc.add(s.runtime_s);
  RUSH_EXPECTS(acc.count() > 0);
  AppStats stats;
  stats.app = app;
  stats.runs = acc.count();
  stats.mean_s = acc.mean();
  stats.stddev_s = acc.sample_stddev();
  stats.min_s = acc.min();
  stats.max_s = acc.max();
  return stats;
}

Corpus Corpus::filter_apps(const std::vector<std::string>& apps) const {
  Corpus out;
  for (const auto& s : samples_)
    if (std::find(apps.begin(), apps.end(), s.app) != apps.end()) out.samples_.push_back(s);
  return out;
}

void Corpus::to_csv(std::ostream& os) const {
  CsvWriter writer(os);
  std::vector<std::string> header{"app", "app_index", "workload", "node_count", "start_s",
                                  "runtime_s"};
  const auto names = telemetry::FeatureAssembler::feature_names();
  for (const auto& n : names) header.push_back("all_" + n);
  for (const auto& n : names) header.push_back("job_" + n);
  writer.write_row(header);

  for (const auto& s : samples_) {
    std::vector<std::string> row;
    row.reserve(header.size());
    row.push_back(s.app);
    row.push_back(std::to_string(s.app_index));
    row.push_back(std::to_string(static_cast<int>(s.workload)));
    row.push_back(std::to_string(s.node_count));
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6f", s.start_s);
    row.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "%.9g", s.runtime_s);
    row.emplace_back(buf);
    for (double v : s.features_all) {
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      row.emplace_back(buf);
    }
    for (double v : s.features_job) {
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      row.emplace_back(buf);
    }
    writer.write_row(row);
  }
}

Corpus Corpus::from_csv(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const auto rows = parse_csv(buffer.str());
  if (rows.empty()) throw ParseError("empty corpus CSV");

  constexpr std::size_t kF = telemetry::FeatureAssembler::kNumFeatures;
  const std::size_t expected_cols = 6 + 2 * kF;
  if (rows.front().size() != expected_cols)
    throw ParseError("corpus CSV has wrong column count");

  Corpus out;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& cells = rows[i];
    if (cells.size() != expected_cols)
      throw ParseError("corpus CSV row " + std::to_string(i) + " has wrong arity");
    CollectedSample s;
    s.app = cells[0];
    s.app_index = static_cast<int>(str::to_int(cells[1]));
    const long long workload = str::to_int(cells[2]);
    if (workload < 0 || workload > static_cast<int>(telemetry::WorkloadClass::Io))
      throw ParseError("corpus CSV row " + std::to_string(i) + " has an unknown workload class");
    s.workload = static_cast<telemetry::WorkloadClass>(workload);
    s.node_count = static_cast<int>(str::to_int(cells[3]));
    s.start_s = str::to_double(cells[4]);
    s.runtime_s = str::to_double(cells[5]);
    if (!std::isfinite(s.runtime_s) || s.runtime_s <= 0.0)
      throw ParseError("corpus CSV row " + std::to_string(i) + " needs a finite runtime_s > 0");
    s.features_all.resize(kF);
    s.features_job.resize(kF);
    for (std::size_t f = 0; f < kF; ++f) s.features_all[f] = str::to_double(cells[6 + f]);
    for (std::size_t f = 0; f < kF; ++f) s.features_job[f] = str::to_double(cells[6 + kF + f]);
    out.add(std::move(s));
  }
  return out;
}

}  // namespace rush::core
