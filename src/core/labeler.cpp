#include "core/labeler.hpp"

#include "common/error.hpp"

namespace rush::core {

Labeler::Labeler(const Corpus& reference, LabelThresholds thresholds) : thresholds_(thresholds) {
  RUSH_EXPECTS(thresholds_.little_sigma > 0.0);
  RUSH_EXPECTS(thresholds_.variation_sigma > thresholds_.little_sigma);
  RUSH_EXPECTS(!reference.empty());
  for (const AppStats& s : reference.app_stats()) stats_.emplace(s.app, s);
}

double Labeler::zscore(const std::string& app, double runtime_s) const {
  const auto it = stats_.find(app);
  RUSH_EXPECTS(it != stats_.end());
  const AppStats& s = it->second;
  if (s.stddev_s <= 0.0) return 0.0;
  return (runtime_s - s.mean_s) / s.stddev_s;
}

int Labeler::binary_label(const std::string& app, double runtime_s) const {
  return zscore(app, runtime_s) > thresholds_.variation_sigma ? 1 : 0;
}

int Labeler::three_class_label(const std::string& app, double runtime_s) const {
  const double z = zscore(app, runtime_s);
  if (z > thresholds_.variation_sigma) return 2;
  if (z > thresholds_.little_sigma) return 1;
  return 0;
}

ml::Dataset Labeler::make_dataset(const Corpus& corpus, telemetry::AggregationScope scope,
                                  bool three_class) const {
  RUSH_EXPECTS(!corpus.empty());
  ml::Dataset out(telemetry::FeatureAssembler::kNumFeatures);
  for (const CollectedSample& s : corpus.samples()) {
    const int label = three_class ? three_class_label(s.app, s.runtime_s)
                                  : binary_label(s.app, s.runtime_s);
    const auto& features =
        scope == telemetry::AggregationScope::AllNodes ? s.features_all : s.features_job;
    out.add_row(features, label, s.app_index);
  }
  return out;
}

ml::Dataset Labeler::binary_dataset(const Corpus& corpus,
                                    telemetry::AggregationScope scope) const {
  return make_dataset(corpus, scope, /*three_class=*/false);
}

ml::Dataset Labeler::three_class_dataset(const Corpus& corpus,
                                         telemetry::AggregationScope scope) const {
  return make_dataset(corpus, scope, /*three_class=*/true);
}

}  // namespace rush::core
