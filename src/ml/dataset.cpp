#include "ml/dataset.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rush::ml {

Dataset::Dataset(std::vector<std::string> feature_names)
    : num_features_(feature_names.size()), feature_names_(std::move(feature_names)) {
  RUSH_EXPECTS(num_features_ > 0);
}

void Dataset::add_row(std::span<const double> features, int label, int group) {
  if (num_features_ == 0) {
    // First row of a default-constructed dataset fixes the width.
    num_features_ = features.size();
    feature_names_.resize(num_features_);
    for (std::size_t i = 0; i < num_features_; ++i)
      feature_names_[i] = "f" + std::to_string(i);
  }
  RUSH_EXPECTS(features.size() == num_features_);
  RUSH_EXPECTS(label >= 0);
  x_.insert(x_.end(), features.begin(), features.end());
  labels_.push_back(label);
  groups_.push_back(group);
}

std::span<const double> Dataset::row(std::size_t i) const {
  RUSH_EXPECTS(i < rows());
  return {x_.data() + i * num_features_, num_features_};
}

int Dataset::label(std::size_t i) const {
  RUSH_EXPECTS(i < rows());
  return labels_[i];
}

int Dataset::group(std::size_t i) const {
  RUSH_EXPECTS(i < rows());
  return groups_[i];
}

int Dataset::num_classes() const noexcept {
  int max_label = -1;
  for (int y : labels_) max_label = std::max(max_label, y);
  return max_label + 1;
}

std::vector<std::size_t> Dataset::class_counts() const {
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes()), 0);
  for (int y : labels_) ++counts[static_cast<std::size_t>(y)];
  return counts;
}

std::vector<int> Dataset::distinct_groups() const {
  std::vector<int> out(groups_);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Dataset Dataset::subset(std::span<const std::size_t> row_indices) const {
  Dataset out(feature_names_);
  for (std::size_t i : row_indices) {
    RUSH_EXPECTS(i < rows());
    out.add_row(row(i), labels_[i], groups_[i]);
  }
  return out;
}

Dataset Dataset::select_features(std::span<const std::size_t> feature_indices) const {
  RUSH_EXPECTS(!feature_indices.empty());
  std::vector<std::string> names;
  names.reserve(feature_indices.size());
  for (std::size_t f : feature_indices) {
    RUSH_EXPECTS(f < num_features_);
    names.push_back(feature_names_[f]);
  }
  Dataset out(std::move(names));
  std::vector<double> buf(feature_indices.size());
  for (std::size_t i = 0; i < rows(); ++i) {
    const auto r = row(i);
    for (std::size_t j = 0; j < feature_indices.size(); ++j) buf[j] = r[feature_indices[j]];
    out.add_row(buf, labels_[i], groups_[i]);
  }
  return out;
}

std::vector<double> Dataset::column(std::size_t feature) const {
  RUSH_EXPECTS(feature < num_features_);
  std::vector<double> out;
  out.reserve(rows());
  for (std::size_t i = 0; i < rows(); ++i) out.push_back(x_[i * num_features_ + feature]);
  return out;
}

void Dataset::set_labels(std::vector<int> labels) {
  RUSH_EXPECTS(labels.size() == labels_.size());
  for (int y : labels) RUSH_EXPECTS(y >= 0);
  labels_ = std::move(labels);
}

}  // namespace rush::ml
