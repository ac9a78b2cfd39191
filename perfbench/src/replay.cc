// The two trace-replay workloads. Set-up materialises one branch trace from
// the seed; every pass replays it, through reset(), into a freshly built
// engine for each of the six ladder arms on the calling thread. The cursor
// the replay reads from stamps the host clock at every run it lends, so
// each replay's time splits into its 4096-branch runs from outside the
// replay loop.
//   replay_steady       mcf, default monitor difficulty: few context
//                       switches and re-keys, a warm remap memo-cache.
//   replay_rekey_storm  apache2_prefork_c512 at r = 1e-5 (fig6's aggressive
//                       end): constant token regeneration and memo refills.
#include <span>
#include <stdexcept>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "models/engine.h"
#include "trace/generator.h"
#include "trace/stream.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace stbpu;

struct ReplaySettings {
  const char* name;
  const char* profile;
  double rerand_r;
};

constexpr ReplaySettings kReplayWorkloads[] = {
    {"replay_steady", "mcf", 0.05},
    {"replay_rekey_storm", "apache2_prefork_c512", 1e-5},
};

/// Cursor over records owned elsewhere (pool workers replay one materialised
/// trace concurrently without copying it). With `stamps` set, every run it
/// lends appends the host time at which the replay asked for it.
class RecordCursor final : public trace::BranchStream {
 public:
  explicit RecordCursor(std::span<const bpu::BranchRecord> records,
                        std::vector<Clock::time_point>* stamps = nullptr)
      : records_(records), stamps_(stamps) {}
  bool next(bpu::BranchRecord& out) override {
    if (pos_ >= records_.size()) return false;
    out = records_[pos_++];
    return true;
  }
  void reset() override { pos_ = 0; }
  const bpu::BranchRecord* borrow_run(std::size_t limit, std::size_t& n) override {
    if (stamps_ != nullptr) stamps_->push_back(Clock::now());
    n = std::min(limit, records_.size() - pos_);
    if (n == 0) return nullptr;
    const bpu::BranchRecord* run = records_.data() + pos_;
    pos_ += n;
    return run;
  }

 private:
  std::span<const bpu::BranchRecord> records_;
  std::vector<Clock::time_point>* stamps_;
  std::size_t pos_ = 0;
};

/// The replay ladder as an exp::Scenario, one point per arm: the pool rung
/// of the replay workloads' traced run.
class LadderScenario final : public exp::Scenario {
 public:
  LadderScenario(std::span<const bpu::BranchRecord> records, double rerand_r)
      : records_(records), rerand_r_(rerand_r) {}
  std::string_view name() const override { return "perfbench_replay_ladder"; }
  std::string_view title() const override { return "six-engine replay ladder"; }
  std::vector<std::string> point_labels(const exp::ExperimentSpec&) const override {
    std::vector<std::string> labels;
    for (const EngineArm& arm : kReplayArms) labels.emplace_back(arm.label);
    return labels;
  }
  exp::PointResult run_point(const exp::ExperimentSpec&, std::size_t index) const override {
    RecordCursor cursor(records_);
    auto engine = models::make_engine(arm_spec(kReplayArms[index], rerand_r_, 0));
    const sim::BranchStats stats = models::replay_engine(*engine, cursor);
    exp::PointResult p;
    p.set("oae", stats.oae());
    return p;
  }
  exp::ScenarioOutput aggregate(const exp::ExperimentSpec&,
                                const std::vector<exp::PointResult>&) const override {
    return {};
  }

 private:
  std::span<const bpu::BranchRecord> records_;
  double rerand_r_;
};

class ReplayWorkload final : public Workload {
 public:
  ReplayWorkload(const ReplaySettings& settings, std::uint64_t seed)
      : settings_(settings), seed_(seed) {}

  void setup() override {
    profile_ = trace::profile_by_name(settings_.profile);
    trace::SyntheticWorkloadGenerator gen(profile_, seed_);
    records_ = trace::collect(gen, replay_trace_branches());
    for (const EngineArm& arm : kReplayArms) {
      (void)models::make_engine(arm_spec(arm, settings_.rerand_r, 0));
    }
    touch_remap_luts();
  }

  std::vector<double> pass(SpanRecorder& spans, OutputCheck& check) override {
    const sim::BpuSimOptions opt;
    std::vector<double> run_s;
    std::vector<Clock::time_point> stamps;
    RecordCursor cursor(records_, &stamps);
    for (std::size_t a = 0; a < std::size(kReplayArms); ++a) {
      const EngineArm& arm = kReplayArms[a];
      const std::uint64_t op = spans.next_op();
      try {
        std::unique_ptr<bpu::IPredictor> engine;
        {
          SpanRecorder::Scope s(spans, "models", "models::make_engine", op);
          engine = models::make_engine(arm_spec(arm, settings_.rerand_r, 0));
        }
        cursor.reset();
        stamps.clear();
        {
          SpanRecorder::Scope s(spans, "models", "models::replay_engine", op);
          stats_[a] = models::replay_engine(*engine, cursor, opt);
        }
        stamps.push_back(Clock::now());
        for (std::size_t i = 1; i < stamps.size(); ++i) {
          run_s.push_back(seconds_between(stamps[i - 1], stamps[i]));
        }
        if (stats_[a].branches != opt.max_branches) {
          check.fail(arm.label, "replayed " + std::to_string(stats_[a].branches) +
                                    " measured branches, expected " +
                                    std::to_string(opt.max_branches));
          continue;
        }
        check.check(arm.label, digest(*engine, stats_[a]));
      } catch (const std::exception& e) {
        check.fail(arm.label, e.what());
      }
    }
    return run_s;
  }

  void describe(Metrics& out, double pass_s) const override {
    const double branches =
        static_cast<double>(replay_trace_branches() * std::size(kReplayArms));
    out.set("replay_branches_per_s", branches / pass_s, "branches/s");
    out.set("stbpu_norm_oae", stats_[kStbpuSklArm].oae() / stats_[kUnprotectedArm].oae(),
            "ratio");
  }

  void layers(SpanRecorder& spans, Metrics& out) override {
    LayerInput in;
    in.profiles = {profile_};
    in.trace_seed = seed_;
    in.rerand_r = settings_.rerand_r;
    measure_layers(in, spans, out);

    // exp pool: the ladder's six replays as pool points on two workers.
    const LadderScenario ladder(records_, settings_.rerand_r);
    const TimedScenario scenario(ladder, std::size(kReplayArms));
    exp::ExperimentSpec spec;
    spec.scenario = std::string(scenario.name());
    spec.jobs = 2;
    exp::RunOutcome outcome;
    std::string err;
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    {
      SpanRecorder::Scope s(spans, "exp", "exp::run_experiment", spans.next_op());
      ok = exp::run_experiment(scenario, spec, outcome, err);
    }
    const double pooled_s = seconds_between(t0, Clock::now());
    if (!ok) throw std::runtime_error("pooled replay ladder: " + err);
    std::vector<double> point_s;
    for (std::size_t i = 0; i < std::size(kReplayArms); ++i) {
      point_s.push_back(scenario.point_s(i));
    }
    set_pool_metrics(out, std::move(point_s), spec.jobs, pooled_s);
  }

 private:
  /// BranchStats, memo-cache counters and re-key count of one replay.
  static std::string digest(bpu::IPredictor& engine, const sim::BranchStats& s) {
    Digest d;
    d.add(s.branches).add(s.conditionals).add(s.direction_correct).add(s.needs_target);
    d.add(s.target_correct).add(s.oae_correct).add(s.mispredictions).add(s.btb_evictions);
    d.add(s.rsb_underflows).add(s.context_switches).add(s.mode_switches);
    const core::RemapCacheStats cs = models::engine_remap_cache_stats(engine);
    d.add(cs.hits).add(cs.misses).add(cs.invalidations).add(cs.batch_requests);
    d.add(cs.batch_rt_requests).add(cs.batch_drops).add(cs.batch_probe_hits);
    d.add(cs.batch_fills);
    const core::EventMonitor* mon = models::engine_monitor(engine);
    d.add(mon != nullptr ? mon->rerandomizations() : std::uint64_t{0});
    return d.hex();
  }

  ReplaySettings settings_;
  std::uint64_t seed_;
  trace::WorkloadProfile profile_;
  std::vector<bpu::BranchRecord> records_;
  sim::BranchStats stats_[std::size(kReplayArms)];
};

}  // namespace

std::unique_ptr<Workload> make_replay_workload(const std::string& name, std::uint64_t seed) {
  for (const ReplaySettings& s : kReplayWorkloads) {
    if (name == s.name) return std::make_unique<ReplayWorkload>(s, seed);
  }
  return nullptr;
}

}  // namespace perfbench
