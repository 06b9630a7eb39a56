// ml/ is outside the unordered-iter scope: iteration order feeding a
// local accumulation is tolerated there.
#include <unordered_set>
namespace rush::ml {
struct Labels {
  std::unordered_set<int> ids_;
  [[nodiscard]] int count() const {
    int n = 0;
    for (int id : ids_) n += id > 0 ? 1 : 0;
    return n;
  }
};
}  // namespace rush::ml
