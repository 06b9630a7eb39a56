#include "obs/trace.hpp"

#include <bit>
#include <fstream>
#include <memory>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace rush::obs {

namespace {
constexpr std::size_t kFlushThreshold = 1 << 16;
}

EventTrace::EventTrace(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!file->is_open()) throw ParseError("EventTrace: cannot open " + path);
  sink_ = file.release();
  owns_sink_ = true;
  buffer_.reserve(kFlushThreshold);
}

EventTrace::EventTrace(std::ostream& os) : sink_(&os) { buffer_.reserve(kFlushThreshold); }

EventTrace::EventTrace(Buffered) { buffer_.reserve(kFlushThreshold); }

EventTrace::~EventTrace() {
  flush();
  if (owns_sink_) delete sink_;
}

void EventTrace::flush() {
  if (!sink_ || buffer_.empty()) return;
  sink_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  sink_->flush();
  bytes_flushed_ += buffer_.size();
  buffer_.clear();
}

void EventTrace::absorb(EventTrace& child) {
  const std::scoped_lock lock(absorb_mu_);
  // Child records carry their own 0-based "seq"; splice them in line by
  // line, rewriting each seq to continue this trace's sequence. The
  // format is ours ({"v":..,"seq":<digits>,...), so a bounded scan for
  // the key is exact, not heuristic.
  constexpr std::string_view kSeqKey = "\"seq\":";
  std::size_t pos = 0;
  while (pos < child.buffer_.size()) {
    std::size_t eol = child.buffer_.find('\n', pos);
    if (eol == std::string::npos) eol = child.buffer_.size();
    const std::string_view line(child.buffer_.data() + pos, eol - pos);
    const std::size_t key = line.find(kSeqKey);
    RUSH_ASSERT(key != std::string_view::npos);
    std::size_t digits_end = key + kSeqKey.size();
    while (digits_end < line.size() && line[digits_end] >= '0' && line[digits_end] <= '9')
      ++digits_end;
    buffer_.append(line.substr(0, key + kSeqKey.size()));
    buffer_ += std::to_string(seq_);
    buffer_.append(line.substr(digits_end));
    buffer_.push_back('\n');
    ++seq_;
    if (buffer_.size() >= kFlushThreshold) flush();
    pos = eol + 1;
  }
  child.buffer_.clear();
  child.seq_ = 0;
}

template <class Fields>
void EventTrace::record(double t_s, std::string_view event, const Fields& fields) {
  JsonWriter w(buffer_);
  w.begin_object();
  w.field("v", kSchemaVersion);
  w.field("seq", seq_);
  w.field("t", t_s);
  w.field("ev", event);
  fields(w);
  w.end_object();
  buffer_.push_back('\n');
  ++seq_;
  if (buffer_.size() >= kFlushThreshold) flush();
}

void EventTrace::emit_trial_start(double t_s, std::string_view policy, std::uint64_t seed) {
  record(t_s, "trial_start", [&](JsonWriter& w) {
    w.field("policy", policy);
    w.field("seed", seed);
  });
}

void EventTrace::emit_trial_end(double t_s, std::string_view policy, std::uint64_t seed,
                                double makespan_s, std::uint64_t total_skips) {
  record(t_s, "trial_end", [&](JsonWriter& w) {
    w.field("policy", policy);
    w.field("seed", seed);
    w.field("makespan_s", makespan_s);
    w.field("total_skips", total_skips);
  });
}

void EventTrace::emit_job_submit(double t_s, std::uint64_t job_id, std::string_view app,
                                 int num_nodes, double walltime_estimate_s) {
  record(t_s, "job_submit", [&](JsonWriter& w) {
    w.field("job", job_id);
    w.field("app", app);
    w.field("nodes", num_nodes);
    w.field("walltime_est_s", walltime_estimate_s);
  });
}

void EventTrace::emit_job_start(double t_s, std::uint64_t job_id, double wait_s, bool backfilled,
                                const std::vector<int>& nodes) {
  record(t_s, "job_start", [&](JsonWriter& w) {
    w.field("job", job_id);
    w.field("wait_s", wait_s);
    w.field("backfilled", backfilled);
    w.begin_array("node_ids");
    for (const int node : nodes) w.element(node);
    w.end_array();
  });
}

void EventTrace::emit_job_end(double t_s, std::uint64_t job_id, double runtime_s, double slowdown,
                              int skips) {
  record(t_s, "job_end", [&](JsonWriter& w) {
    w.field("job", job_id);
    w.field("runtime_s", runtime_s);
    w.field("slowdown", slowdown);
    w.field("skips", skips);
  });
}

void EventTrace::emit_alloc_decision(double t_s, std::uint64_t head_job_id, double reservation_s,
                                     const std::vector<CandidateScore>& scores) {
  record(t_s, "alloc_decision", [&](JsonWriter& w) {
    w.field("head_job", head_job_id);
    w.field("reservation_s", reservation_s);
    w.begin_array("candidates");
    for (const CandidateScore& c : scores) {
      w.begin_object();
      w.field("job", c.job_id);
      w.field("score", c.score);
      w.end_object();
    }
    w.end_array();
  });
}

void EventTrace::emit_alg2_skip(double t_s, std::uint64_t job_id, std::string_view prediction,
                                int skip_count, int skip_threshold) {
  record(t_s, "alg2_skip", [&](JsonWriter& w) {
    w.field("job", job_id);
    w.field("prediction", prediction);
    w.field("skip_count", skip_count);
    w.field("skip_threshold", skip_threshold);
  });
}

void EventTrace::emit_predict(double t_s, std::uint64_t job_id, std::string_view label,
                              std::uint64_t feature_hash) {
  // Hex, quoted: 64-bit values are not exactly representable as JSON
  // numbers in every consumer.
  constexpr char digits[] = "0123456789abcdef";
  char hex[16];
  for (int i = 0; i < 16; ++i) hex[i] = digits[(feature_hash >> (60 - 4 * i)) & 0xF];
  record(t_s, "predict", [&](JsonWriter& w) {
    w.field("job", job_id);
    w.field("label", label);
    w.field("feature_hash", std::string_view(hex, sizeof hex));
  });
}

void EventTrace::emit_congestion_episode(double t_s, double start_s, int link_id,
                                         double peak_utilization) {
  record(t_s, "congestion", [&](JsonWriter& w) {
    w.field("start_s", start_s);
    w.field("link", link_id);
    w.field("peak_util", peak_utilization);
  });
}

void EventTrace::emit_fault_node_down(double t_s, int node, bool drain, double duration_s) {
  record(t_s, "fault_node_down", [&](JsonWriter& w) {
    w.field("node", node);
    w.field("drain", drain);
    w.field("duration_s", duration_s);
  });
}

void EventTrace::emit_fault_node_restore(double t_s, int node) {
  record(t_s, "fault_node_restore", [&](JsonWriter& w) { w.field("node", node); });
}

void EventTrace::emit_fault_link_degrade(double t_s, int link, double factor, double duration_s) {
  record(t_s, "fault_link_degrade", [&](JsonWriter& w) {
    w.field("link", link);
    w.field("factor", factor);
    w.field("duration_s", duration_s);
  });
}

void EventTrace::emit_fault_link_restore(double t_s, int link) {
  record(t_s, "fault_link_restore", [&](JsonWriter& w) { w.field("link", link); });
}

void EventTrace::emit_fault_window(double t_s, std::string_view kind, int node, double until_s) {
  std::string event = "fault_";
  event += kind;
  record(t_s, event, [&](JsonWriter& w) {
    w.field("node", node);
    w.field("until_s", until_s);
  });
}

void EventTrace::emit_fault_job_requeue(double t_s, std::uint64_t job_id, int node, int requeues) {
  record(t_s, "fault_job_requeue", [&](JsonWriter& w) {
    w.field("job", job_id);
    w.field("node", node);
    w.field("requeues", requeues);
  });
}

void EventTrace::emit_fault_oracle_fallback(double t_s, std::uint64_t job_id,
                                            std::string_view reason, std::string_view label) {
  record(t_s, "fault_oracle_fallback", [&](JsonWriter& w) {
    w.field("job", job_id);
    w.field("reason", reason);
    w.field("label", label);
  });
}

std::uint64_t feature_hash(const std::vector<double>& values) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (double v : values) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v);  // fold -0.0 into 0.0
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  }
  return h;
}

}  // namespace rush::obs
