// VIOLATION: the same header included twice.
#pragma once
#include "common/base.hpp"
#include <string>
#include "common/base.hpp"
#include <string>  // rush-analyze: allow(redundant-include) fixture: marker stays quiet
namespace rush::obs { inline int twice() { return rush::base(); } }
