// Standard Workload Format (SWF) export.
//
// The Parallel Workloads Archive's SWF is the lingua franca of scheduler
// research: one line per job with 18 whitespace-separated fields. Trials
// exported here can be fed to existing SWF analysis and simulation tools,
// and the paper's own related work (Carastan-Santos et al., Naghshnejad
// et al.) evaluates on SWF traces.
//
// Field mapping (1-based, per the SWF standard; -1 where not applicable):
//    1 job number        — submission index within the trial
//    2 submit time       — seconds from trial start
//    3 wait time         — seconds
//    4 run time          — seconds
//    5 allocated procs   — nodes * cores_per_node
//    8 requested procs   — same as allocated (RUSH jobs are rigid)
//    9 requested time    — the user walltime estimate is not kept in
//                          JobOutcome, so the runtime upper bound is used
//   11 status            — 1 (completed)
//   14 queue number      — 1 (single queue)
//   15 partition         — 1 + skip count (RUSH delays, an extension)
#pragma once

#include <iosfwd>

#include "core/session.hpp"

namespace rush::core {

struct SwfOptions {
  int cores_per_node = 32;
  /// Free-text header comments (each written as "; <line>").
  std::vector<std::string> comments;
};

/// Write one trial as an SWF trace. Jobs appear in submission order.
void write_swf(const TrialResult& trial, std::ostream& os, const SwfOptions& options = {});

}  // namespace rush::core
