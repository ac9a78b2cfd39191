// Shared pieces of the repository benchmark: host clocks, the metric sheet
// the harness prints, output digests and the reference check behind
// `failed`/`attempted`.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile q in [0, 1] of a sample, interpolating between order
/// statistics (0 for an empty sample).
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Ordered name → (value, unit) sheet; rendered as the result's `metrics`.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const;
  /// One `name = value unit` line per metric (the human-readable table).
  [[nodiscard]] std::string table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// FNV-1a over the exact bits of an operation's outputs.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  Digest& add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return add(bits);
  }
  Digest& add(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ULL;
    }
    return add(std::uint64_t{s.size()});
  }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// The output check behind `failed`/`attempted`. Every operation reports
/// its digest under a stable name. With a recorded reference for this
/// (workload, seed) a digest must equal the reference; without one, every
/// repetition of an operation must equal its first repetition in the run.
/// An operation that throws is failed by the caller through fail().
class OutputCheck {
 public:
  OutputCheck(std::map<std::string, std::string> reference, bool have_reference)
      : reference_(std::move(reference)), have_reference_(have_reference) {}

  bool check(const std::string& op, const std::string& digest);
  void fail(const std::string& op, const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool have_reference() const noexcept { return have_reference_; }
  /// Digests of the first repetition of every operation (recording mode).
  [[nodiscard]] const std::map<std::string, std::string>& first_seen() const noexcept {
    return first_seen_;
  }

 private:
  std::map<std::string, std::string> reference_;
  bool have_reference_;
  std::map<std::string, std::string> first_seen_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Load the reference digests of one (workload, seed) from the references
/// file. Returns false (with `err`) when the file is unreadable or
/// malformed; `found` tells whether the seed has a recorded reference.
bool load_reference(const std::string& path, const std::string& workload,
                    std::uint64_t seed, std::map<std::string, std::string>& out,
                    bool& found, std::string& err);

/// Benchmark-owned reference kernel: dependent pseudo-random read-modify-
/// writes over a 4 MiB table, the access pattern of the simulator's
/// predictor and memo tables. It never changes with the program, so its
/// times in a run tell how fast the host ran while the run measured (see
/// run_untraced in main.cc).
class ReferenceKernel {
 public:
  /// Host seconds of one kernel call.
  double run();

 private:
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(std::size_t{1} << 19);
  std::uint64_t sink_ = 0;
};

/// ReferenceKernel::run's 10th-percentile time on a quiet 4-core Xeon VM;
/// normalised pass times are in its seconds.
inline constexpr double kReferenceKernelS = 0.011;

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
