#include "core/corpus.hpp"

#include <algorithm>
#include <iterator>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

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
  for (const char* name : {"app", "app_index", "workload", "node_count", "start_s", "runtime_s"})
    writer.text(name);
  const auto& names = telemetry::FeatureAssembler::feature_names();
  for (const auto& n : names) writer.text("all_" + n);
  for (const auto& n : names) writer.text("job_" + n);
  writer.end_row();

  for (const auto& s : samples_) {
    writer.text(s.app);
    writer.integer(s.app_index);
    writer.integer(static_cast<int>(s.workload));
    writer.integer(s.node_count);
    writer.fixed(s.start_s, 6);
    writer.general(s.runtime_s, 9);
    for (double v : s.features_all) writer.general(v, 9);
    for (double v : s.features_job) writer.general(v, 9);
    writer.end_row();
  }
}

Corpus Corpus::from_csv(std::istream& is) {
  CsvReader reader(is, "corpus CSV");
  if (!reader.next()) throw ParseError("empty corpus CSV");
  constexpr std::size_t kF = telemetry::FeatureAssembler::kNumFeatures;
  constexpr std::size_t kColumns = 6 + 2 * kF;
  if (reader.size() != kColumns) throw reader.error("wrong column count");

  Corpus out;
  while (reader.next()) {
    if (reader.size() != kColumns) throw reader.error("wrong arity");
    CollectedSample s;
    s.app = reader.text(0);
    s.app_index = reader.integer<int>(1);
    const int workload = reader.integer<int>(2);
    if (workload < 0 || workload > static_cast<int>(telemetry::WorkloadClass::Io))
      throw reader.error("unknown workload class", 2);
    s.workload = static_cast<telemetry::WorkloadClass>(workload);
    s.node_count = reader.integer<int>(3);
    s.start_s = reader.number(4);
    s.runtime_s = reader.number(5);
    if (s.runtime_s <= 0.0) throw reader.error("runtime_s must be > 0", 5);
    s.features_all.resize(kF);
    s.features_job.resize(kF);
    for (std::size_t f = 0; f < kF; ++f) s.features_all[f] = reader.number(6 + f);
    for (std::size_t f = 0; f < kF; ++f) s.features_job[f] = reader.number(6 + kF + f);
    out.add(std::move(s));
  }
  return out;
}

}  // namespace rush::core
