// K-nearest-neighbors classifier with internal standardization.
//
// Brute-force Euclidean search; training data is standardized at fit time
// so counter features with wildly different scales (bytes vs. call
// counts) contribute comparably.
#pragma once

#include "ml/classifier.hpp"
#include "ml/scaler.hpp"

namespace rush::ml {

struct KnnConfig {
  std::size_t k = 7;
  /// Weight votes by inverse distance instead of uniformly.
  bool distance_weighted = true;
};

class Knn final : public Classifier {
 public:
  explicit Knn(KnnConfig config = {});

  /// Sample weights are ignored (noted in the interface contract).
  void fit(const Dataset& data, std::span<const double> sample_weights = {}) override;
  void predict_proba_into(std::span<const double> x, std::span<double> out) const override;
  [[nodiscard]] int num_classes() const noexcept override { return num_classes_; }
  [[nodiscard]] std::size_t num_features() const noexcept override { return num_features_; }
  [[nodiscard]] bool is_fitted() const noexcept override { return !labels_.empty(); }
  [[nodiscard]] std::string type_name() const override { return "knn"; }
  [[nodiscard]] std::unique_ptr<Classifier> clone_config() const override;
  void save_body(std::ostream& os) const override;
  void load_body(std::istream& is) override;

  [[nodiscard]] const KnnConfig& config() const noexcept { return config_; }

 private:
  /// Votes for one standardized query.
  void votes_into(std::span<const double> q, std::span<double> votes) const;

  KnnConfig config_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  StandardScaler scaler_;
  std::vector<double> x_;  // standardized training rows, row-major
  std::vector<int> labels_;
};

}  // namespace rush::ml
