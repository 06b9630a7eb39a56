// A tree that is neither analyzed nor a --ref-root (a test suite): its
// calls keep nothing in the analyzed tree alive.
#include "core/util.hpp"

int peek_after_bump() {
  rush::core::Tally tally;
  tally.bump();
  return tally.peek();
}
