#include "ml/classifier.hpp"

#include "ml/compiled.hpp"

namespace rush::ml {

int Classifier::predict(std::span<const double> x) const {
  const auto k = static_cast<std::size_t>(num_classes());
  // A stack buffer covers every class count the pipeline produces; the
  // heap vector stays empty, so allocates nothing, unless k exceeds it.
  constexpr std::size_t kStack = 16;
  double stack[kStack] = {};
  std::vector<double> heap(k > kStack ? k : 0);
  const std::span<double> out = heap.empty() ? std::span<double>(stack, k) : heap;
  predict_proba_into(x, out);
  return argmax_first(out);
}

}  // namespace rush::ml
