// sweep_fig4: fig4_single's 72 figure cells (grid points 6-77) at quick
// scale through exp::run_experiment on two workers, one call per profile
// (its four direction-predictor cells), so each timed operation is short
// enough to repeat within a run. The instruction-trace memo is cleared
// before every pass, because users pay pregeneration on every sweep. The
// six self-timed throughput points (0-5) are left out.
#include <stdexcept>

#include "exp/runner.h"
#include "exp/scenario.h"
#include "models/engine.h"
#include "trace/pregen.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace stbpu;

constexpr std::size_t kFirstCell = 6;
constexpr std::size_t kGridPoints = 78;
constexpr std::size_t kCellsPerProfile = 4;
constexpr unsigned kWorkers = 2;

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    exp::register_builtin_scenarios();
    scenario_ = exp::find_scenario("fig4_single");
    if (scenario_ == nullptr) throw std::runtime_error("fig4_single is not registered");
    profiles_ = trace::figure4_profiles();
    spec_.scenario = "fig4_single";
    spec_.jobs = kWorkers;
    spec_.seed = seed_;
    if (scenario_->point_labels(spec_).size() != kGridPoints ||
        kFirstCell + kCellsPerProfile * profiles_.size() != kGridPoints) {
      throw std::runtime_error("fig4_single no longer has 6 + 4 x 18 grid points");
    }
    timed_ = std::make_unique<TimedScenario>(*scenario_, kGridPoints);
    // First make_engine of every model x direction the sweep builds, and
    // first use of the remap LUTs.
    for (const auto model : {models::ModelKind::kUnprotected, models::ModelKind::kStbpu,
                             models::ModelKind::kCibpu, models::ModelKind::kXorIsolation}) {
      for (const auto dir : models::all_direction_kinds()) {
        (void)models::make_engine(models::ModelSpec{.model = model, .direction = dir});
      }
    }
    touch_remap_luts();
  }

  std::vector<double> pass(SpanRecorder& spans, OutputCheck& check) override {
    // Traced passes go through the timing wrapper, which feeds the pool rung.
    const exp::Scenario& scenario = spans.enabled() ? *timed_ : *scenario_;
    std::vector<double> call_s;
    double ipc_sum = 0.0;
    std::size_t cells = 0;
    trace::clear_instr_trace_cache();
    for (std::size_t p = 0; p < profiles_.size(); ++p) {
      exp::ExperimentSpec spec = spec_;
      for (std::size_t c = 0; c < kCellsPerProfile; ++c) {
        spec.points.push_back(kFirstCell + p * kCellsPerProfile + c);
      }
      exp::RunOutcome out;
      std::string err;
      bool ok = false;
      const Clock::time_point t0 = Clock::now();
      try {
        SpanRecorder::Scope s(spans, "exp", "exp::run_experiment", spans.next_op());
        ok = exp::run_experiment(scenario, spec, out, err);
      } catch (const std::exception& e) {
        err = e.what();
      }
      call_s.push_back(seconds_between(t0, Clock::now()));
      if (!ok || out.ran.size() != kCellsPerProfile) {
        check.fail(profiles_[p].name, ok ? "ran " + std::to_string(out.ran.size()) + " points"
                                         : err);
        continue;
      }
      for (const std::size_t i : out.ran) {
        const exp::PointResult& point = out.points[i];
        check.check(out.labels[i], digest(point));
        ipc_sum += point.num("normalized_ipc");
        ++cells;
      }
    }
    norm_ipc_ = cells == 0 ? 0.0 : ipc_sum / static_cast<double>(cells);
    if (spans.enabled()) last_traced_s_ = call_s;
    return call_s;
  }

  void describe(Metrics& out, double pass_s) const override {
    out.set("sweep_s", pass_s, "s");
    out.set("stbpu_norm_ipc", norm_ipc_, "ratio");
  }

  void layers(SpanRecorder& spans, Metrics& out) override {
    LayerInput in;
    in.profiles = profiles_;
    in.model_seed = seed_;
    in.ooo_instructions = spec_.scale.ooo_instructions;
    in.ooo_warmup = spec_.scale.ooo_warmup;
    measure_layers(in, spans, out);

    // exp pool: the last traced pass's per-cell run_point times against
    // its pooled wall clock.
    std::vector<double> point_s;
    for (std::size_t i = kFirstCell; i < kGridPoints; ++i) point_s.push_back(timed_->point_s(i));
    double pooled_s = 0.0;
    for (const double s : last_traced_s_) pooled_s += s;
    set_pool_metrics(out, std::move(point_s), kWorkers, pooled_s);
  }

 private:
  /// Every field of one cell's RunOutcome point, at its exact bits.
  static std::string digest(const exp::PointResult& point) {
    Digest d;
    for (const exp::Field& f : point.fields) {
      d.add(f.key);
      switch (f.value.type()) {
        case exp::Value::Type::kString: d.add(f.value.str()); break;
        case exp::Value::Type::kDouble: d.add(f.value.num()); break;
        case exp::Value::Type::kU64: d.add(f.value.u64()); break;
        case exp::Value::Type::kInt:
          d.add(static_cast<std::uint64_t>(f.value.int_value()));
          break;
      }
    }
    return d.hex();
  }

  std::uint64_t seed_;
  const exp::Scenario* scenario_ = nullptr;
  std::unique_ptr<TimedScenario> timed_;
  exp::ExperimentSpec spec_;
  std::vector<trace::WorkloadProfile> profiles_;
  std::vector<double> last_traced_s_;
  double norm_ipc_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_workload(std::uint64_t seed) {
  return std::make_unique<SweepWorkload>(seed);
}

}  // namespace perfbench
