// Classification metrics (paper §VI-B).
//
// Variation is rare, so the dataset is imbalanced and accuracy is
// uninformative; the paper selects models by F1 score. Binary F1 follows
// the paper's formula F1 = tp / (tp + (fp + fn)/2); multi-class uses
// macro averaging over per-class binary scores.
#pragma once

#include <span>
#include <vector>

namespace rush::ml {

class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(int num_classes);
  /// Build from parallel label vectors (same length, labels in range).
  ConfusionMatrix(std::span<const int> y_true, std::span<const int> y_pred, int num_classes);

  void add(int actual, int predicted);

  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] std::size_t count(int actual, int predicted) const;
  [[nodiscard]] std::size_t total() const noexcept { return total_; }

  [[nodiscard]] double accuracy() const noexcept;
  /// Treating `positive` one-vs-rest.
  [[nodiscard]] double precision(int positive) const;
  [[nodiscard]] double recall(int positive) const;
  [[nodiscard]] double f1(int positive) const;
  /// Unweighted mean of per-class F1 scores.
  [[nodiscard]] double macro_f1() const;

 private:
  int num_classes_;
  std::vector<std::size_t> cells_;  // num_classes x num_classes, row = actual
  std::size_t total_ = 0;
};

}  // namespace rush::ml
