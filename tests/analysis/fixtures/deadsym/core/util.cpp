#include "core/util.hpp"

namespace rush::core {

int used_everywhere(int x) {
  Tally tally;
  return x + header_helper(x) + tally.bump();
}

int orphan(int x) { return used_everywhere(x) - 1; }

int bench_only(int x) { return x * 3; }

// rush-analyze: allow(dead-symbol) kept for the tutorial in docs/
int tolerated(int x) { return x - 7; }

void check_failed(const char* what) { throw what; }

int Base::hook(int x) { return x; }

bool Base::operator==(const Base& other) const { return this == &other; }

}  // namespace rush::core
