// Tabular dataset for the variability classifiers.
//
// Row-major feature matrix with integer class labels and an optional
// group id per row (the application index, used by leave-one-app-out
// cross-validation). Plays the role of the paper's pickled Pandas
// dataframe; the corpora it is built from are cached as CSV by
// core::Corpus.
#pragma once

#include <span>
#include <vector>

namespace rush::ml {

class Dataset {
 public:
  /// Width unset: the first add_row() fixes it.
  Dataset() = default;
  explicit Dataset(std::size_t num_features);

  void add_row(std::span<const double> features, int label, int group = 0);

  [[nodiscard]] std::size_t rows() const noexcept { return labels_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return num_features_; }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }

  [[nodiscard]] std::span<const double> row(std::size_t i) const;
  [[nodiscard]] int label(std::size_t i) const;
  [[nodiscard]] const std::vector<int>& labels() const noexcept { return labels_; }
  [[nodiscard]] const std::vector<int>& groups() const noexcept { return groups_; }

  /// 1 + max label (0 for an empty dataset).
  [[nodiscard]] int num_classes() const noexcept;
  /// Count of rows with each label, indexed by label.
  [[nodiscard]] std::vector<std::size_t> class_counts() const;

  /// New dataset with only the given rows (indices may repeat — used by
  /// bootstrap resampling).
  [[nodiscard]] Dataset subset(std::span<const std::size_t> row_indices) const;
  /// New dataset keeping only the given feature columns, in given order.
  [[nodiscard]] Dataset select_features(std::span<const std::size_t> feature_indices) const;
  /// Values of one feature column across all rows.
  [[nodiscard]] std::vector<double> column(std::size_t feature) const;

 private:
  std::size_t num_features_ = 0;
  std::vector<double> x_;  // rows x cols, row-major
  std::vector<int> labels_;
  std::vector<int> groups_;
};

}  // namespace rush::ml
