#include "ml/knn.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rush::ml {
namespace {

Dataset two_blobs(std::size_t n, std::uint64_t seed, double spread = 0.3) {
  Rng rng(seed);
  Dataset d({"x0", "x1"});
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    const double cx = label == 0 ? -1.0 : 1.0;
    d.add_row(std::vector<double>{rng.normal(cx, spread), rng.normal(cx, spread)}, label);
  }
  return d;
}

TEST(Knn, ClassifiesBlobCenters) {
  Knn knn(KnnConfig{.k = 5});
  knn.fit(two_blobs(200, 1));
  EXPECT_EQ(knn.predict(std::vector<double>{-1.0, -1.0}), 0);
  EXPECT_EQ(knn.predict(std::vector<double>{1.0, 1.0}), 1);
}

TEST(Knn, KEqualsOneMemorizesTrainingData) {
  const Dataset d = two_blobs(100, 2);
  Knn knn(KnnConfig{.k = 1});
  knn.fit(d);
  for (std::size_t i = 0; i < d.rows(); ++i) EXPECT_EQ(knn.predict(d.row(i)), d.label(i));
}

TEST(Knn, StandardizationMakesScalesIrrelevant) {
  // Feature 1 is the informative one but lives on a tiny scale; without
  // standardization feature 0's noise would dominate the distance.
  Rng rng(3);
  Dataset d({"huge_noise", "tiny_signal"});
  for (int i = 0; i < 300; ++i) {
    const int label = i % 2;
    d.add_row(std::vector<double>{rng.uniform(-1000.0, 1000.0),
                                  (label == 0 ? -1.0 : 1.0) * 1e-4 + rng.normal(0.0, 1e-5)},
              label);
  }
  Knn knn(KnnConfig{.k = 7});
  knn.fit(d);
  int correct = 0;
  for (int i = 0; i < 100; ++i) {
    const int label = i % 2;
    const std::vector<double> x{rng.uniform(-1000.0, 1000.0), (label == 0 ? -1.0 : 1.0) * 1e-4};
    if (knn.predict(x) == label) ++correct;
  }
  EXPECT_GT(correct, 90);
}

TEST(Knn, DistanceWeightingBreaksTies) {
  // Two far label-1 points vs one adjacent label-0 point with k=3:
  // inverse-distance weighting favors the close neighbor.
  Dataset d({"x"});
  d.add_row(std::vector<double>{0.0}, 0);
  d.add_row(std::vector<double>{10.0}, 1);
  d.add_row(std::vector<double>{11.0}, 1);
  Knn weighted(KnnConfig{.k = 3, .distance_weighted = true});
  weighted.fit(d);
  EXPECT_EQ(weighted.predict(std::vector<double>{0.5}), 0);
  Knn uniform(KnnConfig{.k = 3, .distance_weighted = false});
  uniform.fit(d);
  EXPECT_EQ(uniform.predict(std::vector<double>{0.5}), 1);  // majority of 3
}

TEST(Knn, KLargerThanDatasetIsClamped) {
  Dataset d({"x"});
  d.add_row(std::vector<double>{0.0}, 0);
  d.add_row(std::vector<double>{1.0}, 1);
  Knn knn(KnnConfig{.k = 50});
  knn.fit(d);
  EXPECT_NO_THROW((void)knn.predict(std::vector<double>{0.2}));
}

TEST(Knn, ProbaIsNormalized) {
  Knn knn(KnnConfig{.k = 5});
  knn.fit(two_blobs(100, 4));
  std::vector<double> p(static_cast<std::size_t>(knn.num_classes()));
  knn.predict_proba_into(std::vector<double>{0.0, 0.0}, p);
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Knn, SerializationRoundTripPreservesPredictions) {
  const Dataset d = two_blobs(150, 5);
  Knn knn(KnnConfig{.k = 3});
  knn.fit(d);
  std::stringstream ss;
  knn.save_body(ss);
  Knn loaded;
  loaded.load_body(ss);
  EXPECT_EQ(loaded.config().k, 3u);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{rng.uniform(-2, 2), rng.uniform(-2, 2)};
    EXPECT_EQ(loaded.predict(x), knn.predict(x));
  }
}

TEST(Knn, IgnoresSampleWeights) {
  const Dataset d = two_blobs(100, 7);
  Knn a, b;
  a.fit(d);
  b.fit(d, std::vector<double>(d.rows(), 5.0));
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(a.predict(d.row(i)), b.predict(d.row(i)));
}

TEST(Knn, PreconditionViolations) {
  EXPECT_THROW(Knn(KnnConfig{.k = 0}), PreconditionError);
  Knn knn;
  EXPECT_THROW((void)knn.predict(std::vector<double>{1.0}), PreconditionError);
  knn.fit(two_blobs(20, 8));
  EXPECT_THROW((void)knn.predict(std::vector<double>{1.0}), PreconditionError);  // arity
}

}  // namespace
}  // namespace rush::ml
