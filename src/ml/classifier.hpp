// Abstract classifier interface shared by every model in the pipeline.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace rush::ml {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Train on the dataset. `sample_weights` (if non-empty) must have one
  /// entry per row; models that cannot honor weights ignore them.
  virtual void fit(const Dataset& data, std::span<const double> sample_weights = {}) = 0;

  /// Per-class scores summing to 1 (vote fractions / weighted votes)
  /// written into `out` (size num_classes()): the one prediction every
  /// model implements. The compiled-tree models walk their flat arrays
  /// without allocating.
  virtual void predict_proba_into(std::span<const double> x, std::span<double> out) const = 0;

  /// Predicted class label: the first argmax of predict_proba_into. No
  /// temporary vector up to 16 classes.
  [[nodiscard]] int predict(std::span<const double> x) const;

  [[nodiscard]] virtual int num_classes() const noexcept = 0;
  [[nodiscard]] virtual std::size_t num_features() const noexcept = 0;
  [[nodiscard]] virtual bool is_fitted() const noexcept = 0;

  /// Model type tag used by the serialization registry ("extra_trees"...).
  [[nodiscard]] virtual std::string type_name() const = 0;

  /// Per-feature importance scores summing to 1; empty if the model has
  /// no native notion of importance (e.g., KNN).
  [[nodiscard]] virtual std::vector<double> feature_importances() const { return {}; }

  /// Unfitted copy with the same hyperparameters (for cross-validation).
  [[nodiscard]] virtual std::unique_ptr<Classifier> clone_config() const = 0;

  /// Serialize the fitted model (type-specific body; see serialize.hpp for
  /// the framed container format).
  virtual void save_body(std::ostream& os) const = 0;
  virtual void load_body(std::istream& is) = 0;
};

}  // namespace rush::ml
