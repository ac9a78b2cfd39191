// The layer ladder of the traced run. One input (the workload's own
// generator profiles and seed) goes through stacks that add one layer at a
// time, and every rung is timed from outside around a public entry point:
//   trace    SyntheticWorkloadGenerator + trace::collect, generate_instr_trace
//   models   make_engine, replay_engine (the BPU/TAGE/perceptron/core stack)
//   sim      sim::replay over a do-nothing model, sim::run_ooo, CacheHierarchy
//   core     Remapper::r4 and mix_batch_dispatch over the input's (ip, ghr) keys
// The do-nothing model lives here, so the replay loop's and the OoO core's
// own cost is measured without touching the simulator.
#include <algorithm>
#include <stdexcept>

#include "core/remap.h"
#include "models/engine.h"
#include "sim/cache.h"
#include "sim/ooo.h"
#include "trace/generator.h"
#include "trace/pregen.h"
#include "trace/stream.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace stbpu;

/// Do-nothing predictor: every prediction is correct and nothing is stored.
/// Through sim::replay it leaves only the replay loop's cost; as the OoO
/// core's BPU it leaves a core that never redirects.
struct NullBpu {
  bpu::AccessResult access(const bpu::BranchRecord&) { return {}; }
  void on_switch(const bpu::ExecContext&, const bpu::ExecContext&) {}
};

/// Keeps the timed kernels' results observable so they are not elided.
volatile std::uint64_t g_sink = 0;

constexpr unsigned kMixLanes = 8;

double per(double seconds, double scale, double count) {
  return count > 0 ? seconds * scale / count : 0.0;
}
double per_k(std::uint64_t n, std::uint64_t total) {
  return total > 0 ? 1000.0 * static_cast<double>(n) / static_cast<double>(total) : 0.0;
}
double rate(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

constexpr unsigned kTimingReps = 3;
constexpr std::size_t kMixKeys = std::size_t{1} << 18;

/// The OoO rungs: a null BPU plus three engines, one cheap and two whose
/// keyed mixes differ (SKLCond's R4 vs TAGE's Rt keys).
constexpr std::size_t kOooArms[] = {kUnprotectedArm, kStbpuSklArm, kStbpuTage8Arm};

}  // namespace

void touch_remap_luts() {
  std::uint64_t lo[kMixLanes] = {1, 2, 3, 4, 5, 6, 7, 8}, hi[kMixLanes] = {}, mixed[kMixLanes];
  core::detail::mix_batch_dispatch<kMixLanes>(lo, hi, 1, core::Remapper::kTweakR4, mixed);
  g_sink = g_sink + core::Remapper::r4(1, lo[0], 0) + mixed[0];
}

models::ModelSpec arm_spec(const EngineArm& arm, double rerand_r, std::uint64_t model_seed) {
  models::ModelSpec spec{.model = arm.model, .direction = arm.direction};
  spec.rerand_difficulty_r = rerand_r;
  if (model_seed != 0) spec.seed = model_seed;
  return spec;
}

void set_pool_metrics(Metrics& out, std::vector<double> point_s, unsigned workers,
                      double pooled_s) {
  double sum = 0.0;
  for (const double s : point_s) sum += s;
  std::sort(point_s.begin(), point_s.end());
  const std::size_t n = point_s.size();
  // The highest percentile with at least 10 points beyond it; below 11
  // points no such percentile exists and the slowest point stands in.
  const double tail = n == 0 ? 0.0 : n > 10 ? point_s[n - 11] : point_s.back();
  out.set("exp.pool_efficiency", sum / (workers * pooled_s), "ratio");
  out.set("exp.point_s_p50", median(point_s), "s");
  out.set("exp.point_s_tail", tail, "s");
  out.set("exp.points", static_cast<double>(n), "count");
}

void measure_layers(const LayerInput& in, SpanRecorder& spans, Metrics& out) {
  const std::uint64_t op = spans.next_op();

  // --- trace: generate and materialise the branch input ---------------------
  const std::uint64_t per_profile = replay_trace_branches() / in.profiles.size();
  std::vector<bpu::BranchRecord> records;
  records.reserve(per_profile * in.profiles.size());
  Clock::time_point t0 = Clock::now();
  {
    SpanRecorder::Scope s(spans, "trace", "trace::collect", op);
    for (const auto& profile : in.profiles) {
      trace::SyntheticWorkloadGenerator gen(profile, in.trace_seed);
      const auto part = trace::collect(gen, per_profile);
      records.insert(records.end(), part.begin(), part.end());
    }
  }
  out.set("trace.collect_ns_per_branch",
          per(seconds_between(t0, Clock::now()), 1e9, static_cast<double>(records.size())),
          "ns");

  // --- core: the keyed mix kernels over the input's own (ip, ghr) keys -------
  std::vector<std::uint64_t> lo, hi;
  {
    std::uint64_t ghr[2] = {0, 0};
    for (const auto& rec : records) {
      if (rec.type != bpu::BranchType::kConditional) continue;
      const unsigned h = rec.ctx.hart & 1;
      lo.push_back(rec.ip & bpu::kVirtualAddressMask);
      hi.push_back(ghr[h] & 0xFFFF);
      ghr[h] = (ghr[h] << 1) | static_cast<std::uint64_t>(rec.taken);
      if (lo.size() == kMixKeys) break;
    }
  }
  const std::size_t keys = lo.size() - lo.size() % kMixLanes;
  const auto psi = static_cast<std::uint32_t>(0x9E3779B9u ^ in.trace_seed);
  std::vector<std::uint64_t> mixed(keys);
  std::vector<double> r4_s, batch_s;
  for (unsigned rep = 0; rep < kTimingReps; ++rep) {
    std::uint64_t acc = 0;
    t0 = Clock::now();
    {
      SpanRecorder::Scope s(spans, "core", "core::Remapper::r4", op);
      for (std::size_t i = 0; i < keys; ++i) acc += core::Remapper::r4(psi, lo[i], hi[i]);
    }
    r4_s.push_back(seconds_between(t0, Clock::now()));
    t0 = Clock::now();
    {
      SpanRecorder::Scope s(spans, "core", "core::mix_batch_dispatch", op);
      for (std::size_t i = 0; i < keys; i += kMixLanes) {
        core::detail::mix_batch_dispatch<kMixLanes>(&lo[i], &hi[i], psi,
                                                    core::Remapper::kTweakR4, &mixed[i]);
      }
    }
    batch_s.push_back(seconds_between(t0, Clock::now()));
    g_sink = g_sink + acc + mixed[keys / 2];
  }
  out.set("core.r4_mix_ns", per(median(r4_s), 1e9, static_cast<double>(keys)), "ns");
  out.set("core.mix_batch_ns_per_key", per(median(batch_s), 1e9, static_cast<double>(keys)),
          "ns");

  // --- sim: the replay loop over a do-nothing model --------------------------
  sim::BpuSimOptions opt;
  opt.max_branches = records.size() - opt.warmup_branches;
  const auto replayed = static_cast<double>(records.size());
  trace::VectorStream stream(std::move(records));
  std::vector<double> null_s;
  for (unsigned rep = 0; rep < kTimingReps; ++rep) {
    stream.reset();
    NullBpu null_model;
    t0 = Clock::now();
    {
      SpanRecorder::Scope s(spans, "sim", "sim::replay", op);
      const auto stats = sim::replay(null_model, stream, opt);
      g_sink = g_sink + stats.branches;
    }
    null_s.push_back(seconds_between(t0, Clock::now()));
  }
  out.set("replay.null.ns_per_branch", per(median(null_s), 1e9, replayed), "ns");

  // --- models: make_engine, then the six-engine replay ladder ----------------
  std::vector<double> make_s;
  double arm_ns[std::size(kReplayArms)] = {};
  double arm_oae[std::size(kReplayArms)] = {};
  for (std::size_t a = 0; a < std::size(kReplayArms); ++a) {
    const EngineArm& arm = kReplayArms[a];
    const auto spec = arm_spec(arm, in.rerand_r, in.model_seed);
    std::unique_ptr<bpu::IPredictor> engine;
    for (unsigned rep = 0; rep < kTimingReps; ++rep) {
      t0 = Clock::now();
      {
        SpanRecorder::Scope s(spans, "models", "models::make_engine", op);
        engine = models::make_engine(spec);
      }
      make_s.push_back(seconds_between(t0, Clock::now()));
    }
    stream.reset();
    t0 = Clock::now();
    sim::BranchStats stats;
    {
      SpanRecorder::Scope s(spans, "models", "models::replay_engine", op);
      stats = models::replay_engine(*engine, stream, opt);
    }
    arm_ns[a] = per(seconds_between(t0, Clock::now()), 1e9, replayed);
    arm_oae[a] = stats.oae();
    const std::string name = arm.label;
    out.set("replay." + name + ".ns_per_branch", arm_ns[a], "ns");
    out.set("bpu." + name + ".mispredictions_per_kbranch",
            per_k(stats.mispredictions, stats.branches), "1/kbranch");
    out.set("bpu." + name + ".btb_evictions_per_kbranch",
            per_k(stats.btb_evictions, stats.branches), "1/kbranch");
    if (a == kUnprotectedArm) {
      out.set("trace.context_switches_per_kbranch",
              per_k(stats.context_switches, stats.branches), "1/kbranch");
      out.set("trace.mode_switches_per_kbranch", per_k(stats.mode_switches, stats.branches),
              "1/kbranch");
    }
    // Memo-cache and monitor counters cover the whole replay, warm-up included.
    const auto total = static_cast<std::uint64_t>(replayed);
    if (arm.model == models::ModelKind::kStbpu) {
      const core::RemapCacheStats cs = models::engine_remap_cache_stats(*engine);
      out.set("core." + name + ".memo_hit_rate", cs.hit_rate(), "ratio");
      out.set("core." + name + ".memo_misses_per_kbranch", per_k(cs.misses, total),
              "1/kbranch");
      out.set("core." + name + ".memo_invalidations_per_kbranch",
              per_k(cs.invalidations, total), "1/kbranch");
      // The perceptron engine has no batch precompute; its fills are always 0.
      if (arm.direction != models::DirectionKind::kPerceptron) {
        out.set("core." + name + ".batch_fills_per_kbranch", per_k(cs.batch_fills, total),
                "1/kbranch");
      }
    }
    if (const core::EventMonitor* mon = models::engine_monitor(*engine)) {
      out.set("monitor." + name + ".rekeys_per_kbranch",
              per_k(mon->rerandomizations(), total), "1/kbranch");
    }
  }
  out.set("models.make_engine_us", median(make_s) * 1e6, "us");
  out.set("bpu.stbpu_norm_oae", arm_oae[kStbpuSklArm] / arm_oae[kUnprotectedArm], "ratio");
  // Mapping cost: each keyed SKLCond arm over unprotected-SKLCond. Direction
  // cost: each STBPU direction predictor over STBPU-SKLCond.
  for (std::size_t a = 0; a < std::size(kReplayArms); ++a) {
    const EngineArm& arm = kReplayArms[a];
    const std::string name = arm.label;
    if (a != kUnprotectedArm && arm.direction == models::DirectionKind::kSklCond) {
      out.set("replay." + name + ".mapping_ns_per_branch", arm_ns[a] - arm_ns[kUnprotectedArm],
              "ns");
    } else if (a != kStbpuSklArm && arm.model == models::ModelKind::kStbpu) {
      out.set("replay." + name + ".direction_ns_per_branch", arm_ns[a] - arm_ns[kStbpuSklArm],
              "ns");
    }
  }

  // --- trace pregen, sim OoO core and cache hierarchy -------------------------
  const std::uint64_t instrs = in.ooo_warmup + in.ooo_instructions + 4096;
  const auto stepped = static_cast<double>(in.ooo_warmup + in.ooo_instructions);
  double pregen_s = 0.0, null_ooo_s = 0.0, load_s = 0.0;
  double arm_ooo_s[std::size(kOooArms)] = {};
  double ipc_sum = 0.0, norm_ipc_sum = 0.0, redirect = 0.0, rob = 0.0;
  std::uint64_t measured = 0, loads = 0;
  sim::CacheHierarchyCounters cache{};
  for (const auto& profile : in.profiles) {
    std::shared_ptr<const trace::InstrTrace> tr;
    t0 = Clock::now();
    {
      SpanRecorder::Scope s(spans, "trace", "trace::generate_instr_trace", op);
      tr = trace::generate_instr_trace(profile, instrs, in.trace_seed);
    }
    pregen_s += seconds_between(t0, Clock::now());

    {
      trace::InstrTraceStream is(tr);
      NullBpu null_bpu;
      t0 = Clock::now();
      SpanRecorder::Scope s(spans, "sim", "sim::run_ooo", op);
      const auto r = sim::run_ooo({}, null_bpu, {&is}, in.ooo_instructions, in.ooo_warmup);
      g_sink = g_sink + r.instructions[0];
      null_ooo_s += seconds_between(t0, Clock::now());
    }
    double unprotected_ipc = 0.0;
    for (std::size_t k = 0; k < std::size(kOooArms); ++k) {
      const EngineArm& arm = kReplayArms[kOooArms[k]];
      auto engine = models::make_engine(arm_spec(arm, in.rerand_r, in.model_seed));
      trace::InstrTraceStream is(tr);
      sim::OooResult r;
      t0 = Clock::now();
      bool typed = false;
      {
        SpanRecorder::Scope s(spans, "sim", "sim::run_ooo", op);
        typed = models::visit_engine(*engine, [&](auto& e) {
          r = sim::run_ooo({}, e, {&is}, in.ooo_instructions, in.ooo_warmup);
        });
      }
      arm_ooo_s[k] += seconds_between(t0, Clock::now());
      if (!typed) throw std::runtime_error(std::string("visit_engine rejected ") + arm.label);
      if (kOooArms[k] == kUnprotectedArm) unprotected_ipc = r.ipc[0];
      if (kOooArms[k] == kStbpuSklArm) {
        ipc_sum += r.ipc[0];
        norm_ipc_sum += r.ipc[0] / unprotected_ipc;
        redirect += r.stalls[0].redirect;
        rob += r.stalls[0].rob;
        measured += r.instructions[0];
        cache.l1d_hits += r.cache.l1d_hits;
        cache.l1d_misses += r.cache.l1d_misses;
        cache.l2_hits += r.cache.l2_hits;
        cache.l2_misses += r.cache.l2_misses;
      }
    }

    const trace::InstrBlock& b = tr->block;
    const auto kLoad = static_cast<std::uint8_t>(trace::InstrRecord::Kind::kLoad);
    sim::CacheHierarchy hierarchy;
    std::uint64_t lat = 0;
    t0 = Clock::now();
    {
      SpanRecorder::Scope s(spans, "sim", "sim::CacheHierarchy::load_latency", op);
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (b.kind[i] != kLoad) continue;
        lat += hierarchy.load_latency(b.mem_addr[i], b.streaming[i] != 0);
        ++loads;
      }
    }
    load_s += seconds_between(t0, Clock::now());
    g_sink = g_sink + lat;
  }
  const double n_profiles = static_cast<double>(in.profiles.size());
  out.set("trace.pregen_ns_per_instr",
          per(pregen_s, 1e9, static_cast<double>(instrs) * n_profiles), "ns");
  out.set("ooo.null.ns_per_instr", per(null_ooo_s, 1e9, stepped * n_profiles), "ns");
  for (std::size_t k = 0; k < std::size(kOooArms); ++k) {
    out.set(std::string("ooo.") + kReplayArms[kOooArms[k]].label + ".ns_per_instr",
            per(arm_ooo_s[k], 1e9, stepped * n_profiles), "ns");
  }
  out.set("ooo.ipc", ipc_sum / n_profiles, "instr/cycle");
  out.set("ooo.stbpu_norm_ipc", norm_ipc_sum / n_profiles, "ratio");
  out.set("ooo.redirect_cycles_per_kinstr", per(redirect, 1000.0, static_cast<double>(measured)),
          "cycles/kinstr");
  out.set("ooo.rob_cycles_per_kinstr", per(rob, 1000.0, static_cast<double>(measured)),
          "cycles/kinstr");
  out.set("cache.load_ns", per(load_s, 1e9, static_cast<double>(loads)), "ns");
  out.set("cache.l1d_miss_rate", rate(cache.l1d_misses, cache.l1d_hits + cache.l1d_misses),
          "ratio");
  out.set("cache.l2_miss_rate", rate(cache.l2_misses, cache.l2_hits + cache.l2_misses),
          "ratio");
}

}  // namespace perfbench
