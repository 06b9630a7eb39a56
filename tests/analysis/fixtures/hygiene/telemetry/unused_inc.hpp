// VIOLATION: includes sim/ but never names sim:: — dead coupling. The
// cluster/ include is used and must stay quiet, and so must the
// allow-markered obs/ include.
#pragma once
#include "cluster/used.hpp"
#include "sim/thing.hpp"
// rush-analyze: allow(unused-module-include) fixture: marker stays quiet
#include "obs/no_guard.hpp"
namespace rush::telemetry { inline int probe() { return cluster::used(); } }
