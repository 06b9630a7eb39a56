// apps/ feeds simulated state, so it is inside the unordered-iter scope:
// even a local accumulation over a hashed member is flagged.
#include <unordered_set>
namespace rush::apps {
struct Pods {
  std::unordered_set<int> ids_;
  [[nodiscard]] int count() const {
    int n = 0;
    for (int id : ids_) n += id > 0 ? 1 : 0;
    return n;
  }
};
}  // namespace rush::apps
