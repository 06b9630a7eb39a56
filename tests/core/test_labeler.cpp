#include "core/labeler.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rush::core {
namespace {

CollectedSample make_sample(const std::string& app, int app_index, double runtime) {
  CollectedSample s;
  s.app = app;
  s.app_index = app_index;
  s.node_count = 16;
  s.runtime_s = runtime;
  s.features_all.assign(telemetry::FeatureAssembler::kNumFeatures, runtime);
  s.features_job.assign(telemetry::FeatureAssembler::kNumFeatures, runtime + 1.0);
  return s;
}

/// App "A": mean 100, sample sd 10 (many points); app "B": mean 500, sd 50.
Corpus reference_corpus() {
  Corpus c;
  Rng rng(1);
  for (int i = 0; i < 400; ++i) c.add(make_sample("A", 0, rng.normal(100.0, 10.0)));
  for (int i = 0; i < 400; ++i) c.add(make_sample("B", 1, rng.normal(500.0, 50.0)));
  return c;
}

TEST(Labeler, ZscoreIsPerApplication) {
  const Corpus c = reference_corpus();
  const Labeler labeler(c);
  EXPECT_NEAR(labeler.zscore("A", 100.0), 0.0, 0.2);
  EXPECT_NEAR(labeler.zscore("A", 120.0), 2.0, 0.3);
  // The same absolute runtime means something different per app.
  EXPECT_NEAR(labeler.zscore("B", 500.0), 0.0, 0.2);
  EXPECT_GT(labeler.zscore("A", 500.0), 10.0);
}

TEST(Labeler, BinaryLabelAtOnePointFiveSigma) {
  const Corpus c = reference_corpus();
  const Labeler labeler(c);
  EXPECT_EQ(labeler.binary_label("A", 100.0), 0);
  EXPECT_EQ(labeler.binary_label("A", 113.0), 0);   // ~1.3 sigma
  EXPECT_EQ(labeler.binary_label("A", 118.0), 1);   // ~1.8 sigma
  EXPECT_TRUE(labeler.is_variation("A", 130.0));
  EXPECT_FALSE(labeler.is_variation("A", 60.0));  // fast runs are not variation
}

TEST(Labeler, ThreeClassThresholds) {
  const Corpus c = reference_corpus();
  const Labeler labeler(c);
  EXPECT_EQ(labeler.three_class_label("A", 100.0), 0);
  EXPECT_EQ(labeler.three_class_label("A", 113.5), 1);  // between 1.2 and 1.5 sigma
  EXPECT_EQ(labeler.three_class_label("A", 125.0), 2);
}

TEST(Labeler, CustomThresholds) {
  const Corpus c = reference_corpus();
  const Labeler strict(c, LabelThresholds{0.5, 1.0});
  EXPECT_EQ(strict.three_class_label("A", 107.0), 1);  // ~0.7 sigma
  EXPECT_EQ(strict.three_class_label("A", 112.0), 2);  // ~1.2 sigma
}

TEST(Labeler, DegenerateSpreadNeverLabelsVariation) {
  Corpus c;
  for (int i = 0; i < 5; ++i) c.add(make_sample("Const", 0, 100.0));
  const Labeler labeler(c);
  EXPECT_EQ(labeler.zscore("Const", 1000.0), 0.0);
  EXPECT_EQ(labeler.binary_label("Const", 1000.0), 0);
}

TEST(Labeler, KnowsApp) {
  const Corpus c = reference_corpus();
  const Labeler labeler(c);
  EXPECT_TRUE(labeler.knows_app("A"));
  EXPECT_FALSE(labeler.knows_app("Z"));
  EXPECT_THROW((void)labeler.zscore("Z", 1.0), PreconditionError);
}

TEST(Labeler, BinaryDatasetUsesScopeFeaturesAndGroups) {
  Corpus c;
  c.add(make_sample("A", 0, 100.0));
  c.add(make_sample("A", 0, 110.0));
  c.add(make_sample("B", 1, 200.0));
  c.add(make_sample("B", 1, 220.0));
  const Labeler labeler(c);
  const ml::Dataset all = labeler.binary_dataset(c, telemetry::AggregationScope::AllNodes);
  const ml::Dataset job = labeler.binary_dataset(c, telemetry::AggregationScope::JobNodes);
  ASSERT_EQ(all.rows(), 4u);
  EXPECT_EQ(all.cols(), telemetry::FeatureAssembler::kNumFeatures);
  EXPECT_DOUBLE_EQ(all.row(0)[0], 100.0);
  EXPECT_DOUBLE_EQ(job.row(0)[0], 101.0);  // the job-scope variant
  EXPECT_EQ(all.groups()[0], 0);
  EXPECT_EQ(all.groups()[2], 1);
}

TEST(Labeler, ThreeClassDatasetLabelsMatchDirectCalls) {
  const Corpus c = reference_corpus();
  const Labeler labeler(c);
  const ml::Dataset three = labeler.three_class_dataset(c, telemetry::AggregationScope::AllNodes);
  for (std::size_t i = 0; i < c.size(); ++i) {
    const auto& s = c.samples()[i];
    EXPECT_EQ(three.label(i), labeler.three_class_label(s.app, s.runtime_s));
  }
}

TEST(Labeler, LabelRatesAreImbalanced) {
  // Normal data: roughly 6-7% of runs sit above 1.5 sigma.
  const Corpus c = reference_corpus();
  const Labeler labeler(c);
  const ml::Dataset binary = labeler.binary_dataset(c, telemetry::AggregationScope::AllNodes);
  const auto counts = binary.class_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_GT(counts[0], 8 * counts[1]);
  EXPECT_GT(counts[1], 0u);
}

TEST(Labeler, RejectsBadConstruction) {
  EXPECT_THROW(Labeler(Corpus{}), PreconditionError);
  const Corpus c = reference_corpus();
  EXPECT_THROW(Labeler(c, LabelThresholds{1.5, 1.2}), PreconditionError);  // inverted
  EXPECT_THROW(Labeler(c, LabelThresholds{0.0, 1.0}), PreconditionError);
}

}  // namespace
}  // namespace rush::core
