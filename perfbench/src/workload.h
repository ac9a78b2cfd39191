// The benchmark's workloads and the layer ladder of its traced run.
//
// A workload owns its inputs (made from the seed in setup()), runs one pass
// of its timed operations per pass() call and reports every operation's
// output digest to the OutputCheck. The traced run additionally calls
// layers(), which measures every layer on the workload's own input.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "exp/scenario.h"
#include "models/models.h"
#include "sim/bpu_sim.h"
#include "spans.h"
#include "trace/profile.h"

namespace perfbench {

/// One engine of the replay ladder.
struct EngineArm {
  const char* label;
  stbpu::models::ModelKind model;
  stbpu::models::DirectionKind direction;
};

/// The six engines every replay pass runs, in ladder order.
inline constexpr EngineArm kReplayArms[] = {
    {"unprotected-SKLCond", stbpu::models::ModelKind::kUnprotected,
     stbpu::models::DirectionKind::kSklCond},
    {"STBPU-SKLCond", stbpu::models::ModelKind::kStbpu,
     stbpu::models::DirectionKind::kSklCond},
    {"STBPU-PerceptronBP", stbpu::models::ModelKind::kStbpu,
     stbpu::models::DirectionKind::kPerceptron},
    {"STBPU-TAGE_SC_L_8KB", stbpu::models::ModelKind::kStbpu,
     stbpu::models::DirectionKind::kTage8},
    {"CIBPU-SKLCond", stbpu::models::ModelKind::kCibpu,
     stbpu::models::DirectionKind::kSklCond},
    {"XOR_isolation-SKLCond", stbpu::models::ModelKind::kXorIsolation,
     stbpu::models::DirectionKind::kSklCond},
};
inline constexpr std::size_t kUnprotectedArm = 0;
inline constexpr std::size_t kStbpuSklArm = 1;
inline constexpr std::size_t kStbpuTage8Arm = 3;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first timed operation (setup_s).
  virtual void setup() = 0;
  /// One pass of the timed operations; returns the host seconds of each
  /// timed segment, in the same order on every pass (replay: each
  /// 4096-branch run of the six replay_engine calls; sweep: one
  /// run_experiment call per profile).
  virtual std::vector<double> pass(SpanRecorder& spans, OutputCheck& check) = 0;
  /// The end-to-end figures under the names users know them by, given the
  /// pass time, plus STBPU's simulated result over unprotected's from the
  /// last pass (printed above the result line).
  virtual void describe(Metrics& out, double pass_s) const = 0;
  /// Per-layer rungs of the traced run, after at least one traced pass.
  virtual void layers(SpanRecorder& spans, Metrics& out) = 0;
};

/// Forwards to another scenario and records each point's run_point time.
/// Each point writes only its own slot, so pool workers never share one;
/// read the times after run_experiment has returned.
class TimedScenario final : public stbpu::exp::Scenario {
 public:
  TimedScenario(const stbpu::exp::Scenario& inner, std::size_t grid_points)
      : inner_(inner), point_s_(grid_points, 0.0) {}
  std::string_view name() const override { return inner_.name(); }
  std::string_view title() const override { return inner_.title(); }
  std::vector<std::string> point_labels(const stbpu::exp::ExperimentSpec& spec) const override {
    return inner_.point_labels(spec);
  }
  stbpu::exp::PointResult run_point(const stbpu::exp::ExperimentSpec& spec,
                                    std::size_t index) const override {
    const Clock::time_point t0 = Clock::now();
    stbpu::exp::PointResult p = inner_.run_point(spec, index);
    point_s_.at(index) = seconds_between(t0, Clock::now());
    return p;
  }
  bool timing_sensitive(const stbpu::exp::ExperimentSpec& spec,
                        std::size_t index) const override {
    return inner_.timing_sensitive(spec, index);
  }
  stbpu::exp::ScenarioOutput aggregate(
      const stbpu::exp::ExperimentSpec& spec,
      const std::vector<stbpu::exp::PointResult>& points) const override {
    return inner_.aggregate(spec, points);
  }
  [[nodiscard]] double point_s(std::size_t index) const { return point_s_.at(index); }

 private:
  const stbpu::exp::Scenario& inner_;
  mutable std::vector<double> point_s_;
};

[[nodiscard]] std::unique_ptr<Workload> make_replay_workload(const std::string& name,
                                                             std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_sweep_workload(std::uint64_t seed);

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

/// What the layer ladder runs on: the workload's generator profiles, the
/// generator seed, and the engine settings.
struct LayerInput {
  std::vector<stbpu::trace::WorkloadProfile> profiles;
  std::uint64_t trace_seed = 0;        ///< generator seed_override (0 = profile's)
  double rerand_r = 0.05;              ///< monitor difficulty of the STBPU-family arms
  std::uint64_t model_seed = 0;        ///< ModelSpec::seed (0 = default)
  std::uint64_t ooo_instructions = 300'000;
  std::uint64_t ooo_warmup = 30'000;
};

[[nodiscard]] stbpu::models::ModelSpec arm_spec(const EngineArm& arm, double rerand_r,
                                                std::uint64_t model_seed);

/// Branches per replay operation: BpuSimOptions' defaults (2M measured
/// after 100K warm-up).
[[nodiscard]] inline std::uint64_t replay_trace_branches() {
  const stbpu::sim::BpuSimOptions opt;
  return opt.warmup_branches + opt.max_branches;
}

/// First use of the remap LUTs through the scalar and batched mix kernels
/// (part of every workload's set-up).
void touch_remap_luts();

/// Every layer rung shared by the workloads: trace generation and pregen,
/// make_engine, the null and engine replay ladder, the mix kernels, the
/// memo-cache/monitor/BPU counts, the OoO ladder and the cache hierarchy.
/// The exp pool rung is the workload's own.
void measure_layers(const LayerInput& in, SpanRecorder& spans, Metrics& out);

/// Pool metrics from the points' run_point times and the pooled wall clock.
void set_pool_metrics(Metrics& out, std::vector<double> point_s, unsigned workers,
                      double pooled_s);

}  // namespace perfbench
