// Workload `serve`: rt::ServingEngine, Chimera f=2 (4 pipes), D=4,
// max_batch 4, 8 slots per round, on a head-heavy model (vocab 4096,
// hidden 96). Forward-only with read-only weights: the LM head GEMM, the
// micro-batcher and the background driver dominate. Two phases, which the
// untraced run alternates in kBlocks blocks:
//  - saturating: rounds of requests drained with serve_pending() — capacity;
//  - open loop: seeded Poisson arrivals at a fixed offered rate on the
//    background driver (start()/stop(), nonzero batch deadline), each
//    request timed from the moment it was due.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "core/inference_schedule.h"
#include "core/plan_json.h"
#include "runtime/serving.h"
#include "support/rng.h"

namespace chimera::benchmark {

namespace {

constexpr int kDepth = 4;
constexpr int kSlots = 8;
constexpr int kPipesF = 2;
constexpr int kMaxBatch = 4;
constexpr int kRoundRequests = kSlots * kMaxBatch;
/// Each saturating drain carries this many full rounds.
constexpr int kRoundsPerDrain = 4;
/// Mean offered rate of the open-loop phase, about 25% of the measured
/// capacity on the reference host (README.md): loaded enough that batching
/// and queueing show, and far enough from saturation that a host which
/// loses half its speed to other tenants still keeps the backlog bounded.
/// Arrivals are Poisson, so a run samples every phase of arrivals against
/// the round cadence rather than the one that evenly spaced arrivals lock
/// into.
constexpr double kOfferedRate = 125.0;  // requests/s
constexpr long kBatchDeadlineUs = 2000;
/// Share of the run spent in the saturating phase.
constexpr double kSaturatingShare = 0.35;
/// The untraced run alternates the two phases this many times, so that a
/// slowdown of the shared host lasting a few seconds falls on a part of
/// each phase's windows rather than on the whole of one phase.
constexpr int kBlocks = 4;
/// Sample counts the reported percentiles need (ten samples beyond each).
constexpr std::size_t kMinGaps = 100;
constexpr int kMinOpenRequests = 1000;
/// Open-loop latency percentiles are taken per window of this many
/// consecutive requests (by due time) and the lower quartile over windows
/// is reported: p95 has ten samples beyond it in each window.
constexpr std::size_t kLatencyWindow = 200;
/// A submission this late shows the generator itself stalled (stderr).
constexpr double kLateMs = 5.0;
/// Every kSampleEvery-th request's logits are checked against a whole-model
/// forward at B=1. Batching and padding change no arithmetic today (the
/// results are bitwise equal); the check allows this much.
constexpr int kSampleEvery = 97;
constexpr double kLogitTol = 1e-4;

nn::SmallModelConfig serve_model() {
  nn::SmallModelConfig m;
  m.hidden = 96;
  m.heads = 8;
  m.layers = 8;
  m.seq = 32;
  m.vocab = 4096;
  return m;
}

}  // namespace

Report run_serve(const Args& args) {
  Report rep;
  const nn::SmallModelConfig model = serve_model();
  const ScheduleConfig sc{kDepth, kSlots, kPipesF, ScaleMethod::kDirect};

  double t0 = now_ms();
  const PipelineSchedule ps = build_inference_schedule(Scheme::kChimera, sc);
  const ExecutionPlan plan(ps);
  const Partition part =
      plan_partition(model.spec(), kDepth, PartitionPolicy::kEven);
  const double plan_build_ms = now_ms() - t0;

  rt::ServeOptions opts;
  opts.max_batch = kMaxBatch;
  opts.batch_deadline_us = kBatchDeadlineUs;
  opts.clock = now_us_long;
  t0 = now_ms();
  rt::ServingEngine engine(model, Scheme::kChimera, sc, opts);
  const double construct_ms = now_ms() - t0;
  double certify_ms = 0.0;
  certify(rep, plan_to_json(engine.plan(), &engine.partition()), &certify_ms);

  Rng rng(args.seed);
  Rng arrivals(args.seed ^ 0x6f70656e6c6f6f70ull);  // open-loop due times
  auto make_tokens = [&] {
    std::vector<int> t(model.seq);
    for (int& x : t) x = static_cast<int>(rng.next_below(model.vocab));
    return t;
  };
  // Warm-up: first-touch allocations (arenas, mailboxes, workspaces) and
  // one background start/stop.
  for (int r = 0; r < 2 * kRoundRequests; ++r) engine.submit(make_tokens());
  (void)engine.serve_pending();
  engine.start();
  for (int r = 0; r < kRoundRequests; ++r) engine.submit(make_tokens());
  engine.stop();
  (void)engine.take_completed();
  const double setup_s = now_ms() / 1000.0;
  const rt::ServingStats warm = engine.stats();

  // Bookkeeping for the output checks: how often each id came back, and
  // the tokens + logits of the sampled requests.
  std::vector<int> returned;  // [id - first_id]
  const std::uint64_t first_id = warm.requests + 1;
  std::map<std::uint64_t, std::vector<int>> sample_tokens;
  std::map<std::uint64_t, Tensor> sample_logits;
  long submitted = 0;
  auto submit = [&] {
    std::vector<int> tokens = make_tokens();
    const bool sampled = submitted % kSampleEvery == 0;
    std::vector<int> keep = sampled ? tokens : std::vector<int>{};
    const std::uint64_t id = engine.submit(std::move(tokens));
    ++submitted;
    if (sampled) sample_tokens[id] = std::move(keep);
    return id;
  };
  auto take = [&](rt::ServeResult& r) {
    const std::size_t i = r.id - first_id;
    if (r.id < first_id) return;
    if (returned.size() <= i) returned.resize(i + 1, 0);
    ++returned[i];
    if (sample_tokens.count(r.id)) sample_logits[r.id] = std::move(r.logits);
  };

  // Saturating phase: full rounds drained with serve_pending(), until
  // `seconds` have passed and gaps_ms holds at least `min_gaps`. Returns
  // requests/s as the median over drains (submit + drain), which is robust
  // to the short stalls a shared host inflicts on a run; appends the gaps
  // between consecutive round completions inside each drain (the driver's
  // submitting and freeing between drains is not round cadence).
  std::vector<double> gaps_ms;
  std::vector<double> drain_ms;
  std::vector<double> drain_rates;  // every drain's, across calls
  auto saturating = [&](double seconds, std::size_t min_gaps) {
    const double start = now_ms();
    std::vector<double> rates;
    while (now_ms() - start < seconds * 1000.0 || gaps_ms.size() < min_gaps) {
      const double s0 = now_ms();
      for (int r = 0; r < kRoundsPerDrain * kRoundRequests; ++r) submit();
      const double d0 = now_ms();
      std::vector<rt::ServeResult> results = engine.serve_pending();
      drain_ms.push_back(now_ms() - d0);
      rates.push_back(results.size() / ((now_ms() - s0) / 1000.0));
      std::vector<long> done;
      for (rt::ServeResult& r : results) {
        done.push_back(r.done_us);
        take(r);
      }
      std::sort(done.begin(), done.end());
      done.erase(std::unique(done.begin(), done.end()), done.end());
      for (std::size_t i = 1; i < done.size(); ++i)
        gaps_ms.push_back((done[i] - done[i - 1]) / 1000.0);
    }
    drain_rates.insert(drain_rates.end(), rates.begin(), rates.end());
    return percentile(rates, 50);
  };

  // Open-loop phase at kOfferedRate, at least `min_requests` long; latency
  // from the due time, appended in the order the requests fell due.
  std::vector<double> open_latency_ms, submit_us;
  double max_lateness_ms = 0.0;
  long late_submits = 0;  // more than kLateMs after the due time
  auto open_loop = [&](double seconds, int min_requests) {
    const int n = std::max(min_requests,
                           static_cast<int>(std::lround(kOfferedRate * seconds)));
    std::map<std::uint64_t, std::pair<double, int>> due_us;  // id -> due, index
    std::vector<double> latency_ms(n, -1.0);
    auto collect = [&](std::vector<rt::ServeResult> results) {
      for (rt::ServeResult& r : results) {
        const auto it = due_us.find(r.id);
        if (it != due_us.end()) {
          latency_ms[it->second.second] = (r.done_us - it->second.first) / 1000.0;
          due_us.erase(it);
        }
        take(r);
      }
    };
    engine.start();
    double due = now_ms() * 1000.0 + 1000.0;
    for (int i = 0; i < n; ++i) {
      // Poisson arrivals: exponential gaps with mean 1 / kOfferedRate.
      due += -std::log1p(-arrivals.next_double()) * 1e6 / kOfferedRate;
      const double wait = due - now_ms() * 1000.0;
      if (wait > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<long>(wait)));
      const double s0 = now_ms();
      max_lateness_ms = std::max(max_lateness_ms, s0 - due / 1000.0);
      late_submits += s0 - due / 1000.0 > kLateMs;
      const std::uint64_t id = submit();
      submit_us.push_back((now_ms() - s0) * 1000.0);
      due_us[id] = {due, i};
      collect(engine.take_completed());
    }
    engine.stop();
    collect(engine.take_completed());
    for (double l : latency_ms)
      if (l >= 0.0) open_latency_ms.push_back(l);
    return due_us.empty();
  };

  if (!args.trace) {
    bool all_back = true;
    for (int b = 0; b < kBlocks; ++b) {
      (void)saturating(args.seconds * kSaturatingShare / kBlocks,
                       kMinGaps * (b + 1) / kBlocks);
      all_back &= open_loop(args.seconds * (1.0 - kSaturatingShare) / kBlocks,
                            kMinOpenRequests / kBlocks);
    }
    const double capacity = percentile(drain_rates, 50);
    rep.check(all_back, "every open-loop request completed");
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("throughput_per_s", capacity, "1/s");
    rep.metric("latency_ms_p50",
               windowed_percentile(open_latency_ms, kLatencyWindow, 50), "ms");
    rep.metric("latency_ms_tail",
               windowed_percentile(open_latency_ms, kLatencyWindow, 95), "ms");
    rep.metric("gap_ms_p50", percentile(gaps_ms, 50), "ms");
    rep.metric("gap_ms_tail", percentile(gaps_ms, 90), "ms");
    std::fprintf(stderr, "serve: open-loop p50/p95 per window of %zu:",
                 kLatencyWindow);
    for (std::size_t i = 0; i + kLatencyWindow <= open_latency_ms.size();
         i += kLatencyWindow) {
      const std::vector<double> w(open_latency_ms.begin() + i,
                                  open_latency_ms.begin() + i + kLatencyWindow);
      std::fprintf(stderr, " %.1f/%.1f", percentile(w, 50), percentile(w, 95));
    }
    std::fprintf(stderr, "\n");
    std::fprintf(stderr,
                 "serve: capacity %.1f req/s; open loop %zu requests at %.0f "
                 "req/s, p50 %.2f ms and p99 %.2f ms over the whole phase, "
                 "generator at most %.3f ms late, %ld submissions over "
                 "%.0f ms late\n",
                 capacity, open_latency_ms.size(), kOfferedRate,
                 percentile(open_latency_ms, 50),
                 percentile(open_latency_ms, 99), max_lateness_ms,
                 late_submits, kLateMs);
  } else {
    const double untraced = saturating(args.seconds * 0.3, kMinGaps);
    gaps_ms.clear();
    drain_ms.clear();
    const rt::ServingStats s0 = engine.stats();
    obs::reset();
    obs::set_enabled(true);
    const double traced = saturating(args.seconds * 0.3, kMinGaps);
    obs::set_enabled(false);
    const std::vector<obs::TraceEvent> sat_events = obs::collect();
    const rt::ServingStats s1 = engine.stats();
    obs::reset();
    obs::set_enabled(true);
    const bool all_back = open_loop(args.seconds * 0.4, kMinOpenRequests);
    obs::set_enabled(false);
    const std::vector<obs::TraceEvent> open_events = obs::collect();
    obs::reset();
    const rt::ServingStats s2 = engine.stats();
    rep.check(all_back, "every open-loop request completed");

    // Saturating rounds are all full: every op of the plan runs.
    const long rounds = s1.rounds - s0.rounds;
    const TraceSummary sat = summarize_trace(sat_events, kDepth);
    bool counts_ok = true;
    for (int w = 0; w < kDepth; ++w)
      counts_ok &= sat.ops_per_rank[w] ==
                   rounds * static_cast<long>(engine.plan().worker_plan(w).size());
    rep.check(counts_ok, "every rank recorded rounds x |plan(w)| op spans in "
                         "the saturating phase (no ring wrap or loss)");
    const TraceSummary open = summarize_trace(open_events, kDepth);
    rep.check(sat.unnested == 0 && open.unnested == 0,
              "every recv/send span lies inside its parent op span");
    const long msgs = plan_p2p_messages(engine.plan());
    rep.check(sat.recv_spans == msgs * rounds,
              "traced recv spans equal the plan's p2p messages x rounds");
    const Rounds sat_rounds = bucket_rounds(
        sat, span_intervals(sat_events, obs::EventKind::kServeRound), kDepth);
    rep.check(sat_rounds.outside == 0 && sat_rounds.size() == rounds,
              "every op span lies inside its serving round span");

    std::vector<double> fwd(kDepth);
    for (const OpSelf& o : sat.ops) fwd[o.ev.stage] += o.self_us();
    const double per_round = 1.0 / (1000.0 * rounds);
    for (int s = 0; s < kDepth; ++s)
      rep.metric("nn.fwd_self_ms.s" + std::to_string(s), fwd[s] * per_round,
                 "ms");
    rep.metric("comm.recv_wait_ms", sat.recv_us * per_round, "ms");
    rep.metric("comm.send_ms", sat.send_us * per_round, "ms");
    rep.metric("comm.p2p_msgs", static_cast<double>(msgs), "count");
    rep.metric("comm.p2p_bytes",
               msgs * 4.0 * kMaxBatch * model.seq * model.hidden, "B");
    report_idle_and_gaps(rep, sat_rounds);
    // Open loop: the rounds a request waits on, and the batcher's fill.
    rep.metric("runtime.round_ms_p50",
               percentile(span_durations_ms(open_events,
                                            obs::EventKind::kServeRound),
                          50),
               "ms");
    const double useful = s2.requests - s1.requests;
    const double dispatched = useful + (s2.padded_rows - s1.padded_rows);
    rep.metric("runtime.batch_fill", useful / dispatched, "ratio");
    rep.metric("runtime.batch_rows_useful", useful, "count");
    rep.metric("runtime.batch_rows_dispatched", dispatched, "count");
    rep.metric("runtime.submit_us_p50", percentile(submit_us, 50), "us");
    rep.metric("runtime.step_ms_p50", percentile(drain_ms, 50), "ms");
    rep.metric("runtime.construct_ms", construct_ms, "ms");
    rep.metric("core.plan_build_ms", plan_build_ms, "ms");
    rep.metric("verify.certify_ms", certify_ms, "ms");
    std::vector<double> fwd_flops;
    for (int s = 0; s < kDepth; ++s)
      fwd_flops.push_back(part.stage_fwd_flops(s, kMaxBatch));
    rep.metric("core.predicted_bubble", predicted_bubble(plan, fwd_flops),
               "ratio");
    rep.metric("obs.events",
               static_cast<double>(sat_events.size()) / rounds, "count");
    rep.metric("obs.traced_rate", traced, "1/s");
    rep.metric("obs.untraced_rate", untraced, "1/s");
    rep.metric("obs.trace_overhead", traced / untraced, "ratio");
    report_gemm_layer(rep, model, kMaxBatch * model.seq, model.seq, model.seq);
  }
  // ---- output checks (after peak RSS was read).
  long once = 0;
  for (int c : returned) once += c == 1;
  rep.count(submitted, submitted - once);
  rep.check(once == submitted && static_cast<long>(returned.size()) == submitted,
            "every request returned exactly once (" + std::to_string(once) +
                " of " + std::to_string(submitted) + ")");
  nn::StageModule direct(model, 0, 1);
  double gap = 0.0;
  bool shapes_ok = sample_logits.size() == sample_tokens.size();
  for (const auto& [id, tokens] : sample_tokens) {
    nn::MicroBatch mb;
    mb.batch = 1;
    mb.seq = model.seq;
    mb.tokens = tokens;
    const Tensor want = direct.infer(mb, Tensor());
    const auto it = sample_logits.find(id);
    if (it == sample_logits.end() || it->second.numel() != want.numel()) {
      shapes_ok = false;
      continue;
    }
    for (std::size_t i = 0; i < want.numel(); ++i)
      gap = std::max(gap, static_cast<double>(std::abs(want[i] - it->second[i])));
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu sampled requests' logits match a whole-model forward at "
                "B=1 (max gap %.3g <= %.0e)",
                sample_tokens.size(), gap, kLogitTol);
  rep.check(shapes_ok && gap <= kLogitTol, buf);
  return rep;
}

}  // namespace chimera::benchmark
