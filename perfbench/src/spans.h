// In-memory span recorder for the benchmark's traced run. Spans are
// recorded only around the harness's own calls into a layer (a module's
// public entry point); nothing inside libstbpu is instrumented. A disabled
// recorder records nothing, so the untraced runs pay one branch per call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span {
  std::string layer;  ///< module whose entry point the span wraps
  std::string name;   ///< the call, e.g. "models::replay_engine"
  double start = 0.0; ///< seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;    ///< index of the enclosing span, -1 for a root
  std::uint64_t op = 0;  ///< operation id shared by the spans of one operation
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* layer, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int index_ = -1;
  };

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Next operation id (ids start at 1).
  std::uint64_t next_op() noexcept { return ++last_op_; }

  /// Spans as one JSON array (written out when the benchmark ends).
  [[nodiscard]] std::string json() const;

 private:
  [[nodiscard]] double now() const { return seconds_between(epoch_, Clock::now()); }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indexes
  std::uint64_t last_op_ = 0;
};

/// Self time per layer: each span's duration minus the part its direct
/// children cover (children nest inside their parent on the harness's single
/// thread). Root spans (parent -1) delimit the traced wall time; their own
/// self time is what no layer call accounts for (`unattributed_s`).
struct SelfTimes {
  std::map<std::string, double> layer_s;
  double unattributed_s = 0.0;
  double wall_s = 0.0;  ///< summed duration of the root spans
};

[[nodiscard]] SelfTimes self_times(const std::vector<Span>& spans);

}  // namespace perfbench
