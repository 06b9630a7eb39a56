#include "ml/metrics.hpp"

#include "common/error.hpp"

namespace rush::ml {

ConfusionMatrix::ConfusionMatrix(int num_classes) : num_classes_(num_classes) {
  RUSH_EXPECTS(num_classes > 0);
  cells_.assign(static_cast<std::size_t>(num_classes) * static_cast<std::size_t>(num_classes),
                0);
}

ConfusionMatrix::ConfusionMatrix(std::span<const int> y_true, std::span<const int> y_pred,
                                 int num_classes)
    : ConfusionMatrix(num_classes) {
  RUSH_EXPECTS(y_true.size() == y_pred.size());
  for (std::size_t i = 0; i < y_true.size(); ++i) add(y_true[i], y_pred[i]);
}

void ConfusionMatrix::add(int actual, int predicted) {
  RUSH_EXPECTS(actual >= 0 && actual < num_classes_);
  RUSH_EXPECTS(predicted >= 0 && predicted < num_classes_);
  ++cells_[static_cast<std::size_t>(actual) * static_cast<std::size_t>(num_classes_) +
           static_cast<std::size_t>(predicted)];
  ++total_;
}

std::size_t ConfusionMatrix::count(int actual, int predicted) const {
  RUSH_EXPECTS(actual >= 0 && actual < num_classes_);
  RUSH_EXPECTS(predicted >= 0 && predicted < num_classes_);
  return cells_[static_cast<std::size_t>(actual) * static_cast<std::size_t>(num_classes_) +
                static_cast<std::size_t>(predicted)];
}

double ConfusionMatrix::accuracy() const noexcept {
  if (total_ == 0) return 0.0;
  std::size_t correct = 0;
  for (int c = 0; c < num_classes_; ++c)
    correct += cells_[static_cast<std::size_t>(c) * static_cast<std::size_t>(num_classes_) +
                      static_cast<std::size_t>(c)];
  return static_cast<double>(correct) / static_cast<double>(total_);
}

double ConfusionMatrix::precision(int positive) const {
  std::size_t tp = count(positive, positive);
  std::size_t fp = 0;
  for (int a = 0; a < num_classes_; ++a)
    if (a != positive) fp += count(a, positive);
  return (tp + fp) == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fp);
}

double ConfusionMatrix::recall(int positive) const {
  std::size_t tp = count(positive, positive);
  std::size_t fn = 0;
  for (int p = 0; p < num_classes_; ++p)
    if (p != positive) fn += count(positive, p);
  return (tp + fn) == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
}

double ConfusionMatrix::f1(int positive) const {
  const std::size_t tp = count(positive, positive);
  std::size_t fp = 0, fn = 0;
  for (int c = 0; c < num_classes_; ++c) {
    if (c == positive) continue;
    fp += count(c, positive);
    fn += count(positive, c);
  }
  const double denom = static_cast<double>(tp) + 0.5 * static_cast<double>(fp + fn);
  return denom == 0.0 ? 0.0 : static_cast<double>(tp) / denom;
}

double ConfusionMatrix::macro_f1() const {
  double sum = 0.0;
  for (int c = 0; c < num_classes_; ++c) sum += f1(c);
  return sum / static_cast<double>(num_classes_);
}

}  // namespace rush::ml
