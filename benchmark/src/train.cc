// Workload `train`: Chimera D=4, N=4, B=1, f=1 training of the learnable
// successor task through rt::PipelineTrainer, one fresh seeded batch per
// iteration, iterations back to back. The only workload that runs backward,
// the gradient allreduce and the optimizer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"
#include "core/plan_json.h"
#include "core/sync_placement.h"
#include "runtime/trainer.h"
#include "support/rng.h"

namespace chimera::benchmark {

namespace {

constexpr int kDepth = 4;
constexpr int kMicro = 4;
constexpr int kWarmup = 2;
/// p90 needs ten samples beyond it.
constexpr int kMinIters = 100;
/// Timed SequentialTrainer iterations of the single-device baseline.
constexpr int kSequentialIters = 10;
/// Pipelined vs single-device SGD on the same micro-batches: the fp
/// summation order of the replica gradient sum differs, so agreement is to
/// rounding (the tier-1 equivalence tests use the same bounds).
constexpr double kLossTol = 1e-4;
constexpr double kWeightTol = 5e-5;

nn::SmallModelConfig train_model() {
  nn::SmallModelConfig m;
  m.hidden = 192;
  m.heads = 8;
  m.layers = 8;
  m.seq = 64;
  m.vocab = 768;
  return m;
}

/// Seeded successor-task inputs: uniform tokens, target = token + 1.
nn::MicroBatch successor_batch(const nn::SmallModelConfig& model, int samples,
                               std::uint64_t seed) {
  nn::MicroBatch mb;
  mb.batch = samples;
  mb.seq = model.seq;
  Rng rng(seed);
  for (int i = 0; i < samples * model.seq; ++i) {
    const int t = static_cast<int>(rng.next_below(model.vocab));
    mb.tokens.push_back(t);
    mb.targets.push_back((t + 1) % model.vocab);
  }
  return mb;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return 1e30;
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, static_cast<double>(std::abs(a[i] - b[i])));
  return d;
}

/// One closed-loop phase: per call, the interval the driver measured around
/// train_iteration (obs clock, µs) and the loss. An iteration that throws
/// ends the phase; it and every non-finite loss count as failed.
struct Phase {
  std::vector<double> call_t0_us, call_t1_us, losses;
  long attempted = 0, failed = 0;
  int iters() const { return static_cast<int>(losses.size()); }
};

}  // namespace

Report run_train(const Args& args) {
  Report rep;
  const nn::SmallModelConfig model = train_model();
  const ScheduleConfig sc{kDepth, kMicro, 1, ScaleMethod::kDirect};
  const int samples = kMicro;  // B = 1, one data-parallel group
  const rt::TrainerOptions opts;

  // ---- set-up: planning, construction, certification, warm-up.
  double t0 = now_ms();
  const PipelineSchedule ps = with_gradient_sync(
      build_schedule(Scheme::kChimera, sc), SyncPolicy::kAtEnd);
  const ExecutionPlan plan(ps);
  const Partition part =
      rt::runtime_partition(model, kDepth, PartitionPolicy::kEven, &ps);
  const double plan_build_ms = now_ms() - t0;

  t0 = now_ms();
  rt::PipelineTrainer trainer(model, Scheme::kChimera, sc, opts);
  const double construct_ms = now_ms() - t0;
  double certify_ms = 0.0;
  certify(rep, plan_to_json(trainer.plan(), &trainer.partition()), &certify_ms);

  Rng batch_seeds(args.seed);
  std::vector<nn::MicroBatch> warm_batches;
  std::vector<double> warm_losses;
  for (int i = 0; i < kWarmup; ++i) {
    warm_batches.push_back(
        successor_batch(model, samples, batch_seeds.next_u64()));
    warm_losses.push_back(trainer.train_iteration(warm_batches.back()).loss);
  }
  const double setup_s = now_ms() / 1000.0;
  std::vector<std::vector<float>> warm_weights;
  for (int s = 0; s < kDepth; ++s)
    warm_weights.push_back(trainer.stage_weights(0, 0, s));

  auto run_phase = [&](double seconds, int min_iters) {
    Phase p;
    const double start = now_ms();
    while (p.iters() < min_iters || now_ms() - start < seconds * 1000.0) {
      const nn::MicroBatch batch =
          successor_batch(model, samples, batch_seeds.next_u64());
      const double c0 = obs::now_us();
      double loss = 0.0;
      ++p.attempted;
      try {
        loss = trainer.train_iteration(batch).loss;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "train: iteration %d threw: %s\n", p.iters(),
                     e.what());
        ++p.failed;
        break;
      }
      p.call_t0_us.push_back(c0);
      p.losses.push_back(loss);
      p.call_t1_us.push_back(obs::now_us());
      p.failed += !std::isfinite(loss);
    }
    return p;
  };
  // Sequences per second at the median iteration cadence (completion to
  // completion, so the caller's batch preparation counts): robust to the
  // short stalls a shared host inflicts on a run.
  auto seq_rate = [&](const Phase& p) {
    std::vector<double> cadence_us;
    for (int i = 1; i < p.iters(); ++i)
      cadence_us.push_back(p.call_t1_us[i] - p.call_t1_us[i - 1]);
    return samples * 1e6 / percentile(cadence_us, 50);
  };

  std::vector<double> all_losses = warm_losses;
  double untraced_rate = 0.0;
  if (!args.trace) {
    const Phase p = run_phase(args.seconds, kMinIters);
    rep.count(p.attempted, p.failed);
    all_losses.insert(all_losses.end(), p.losses.begin(), p.losses.end());
    std::vector<double> call_ms, gap_ms;
    for (int i = 0; i < p.iters(); ++i) {
      call_ms.push_back((p.call_t1_us[i] - p.call_t0_us[i]) / 1000.0);
      if (i) gap_ms.push_back((p.call_t1_us[i] - p.call_t1_us[i - 1]) / 1000.0);
    }
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("throughput_per_s", seq_rate(p), "1/s");
    rep.metric("latency_ms_p50", percentile(call_ms, 50), "ms");
    rep.metric("latency_ms_tail", percentile(call_ms, 90), "ms");
    rep.metric("gap_ms_p50", percentile(gap_ms, 50), "ms");
    rep.metric("gap_ms_tail", percentile(gap_ms, 90), "ms");
    std::fprintf(stderr, "train: %d iterations, %.2f seq/s\n", p.iters(),
                 seq_rate(p));
  } else {
    // Untraced then traced halves of the run: the rate ratio is the
    // tracing overhead, the traced half gives the per-layer numbers.
    const Phase plain = run_phase(args.seconds * 0.4, 10);
    obs::reset();
    obs::set_enabled(true);
    const Phase p = run_phase(args.seconds * 0.4, 10);
    obs::set_enabled(false);
    const std::vector<obs::TraceEvent> events = obs::collect();
    obs::reset();
    rep.count(plain.attempted + p.attempted, plain.failed + p.failed);
    all_losses.insert(all_losses.end(), plain.losses.begin(),
                      plain.losses.end());
    all_losses.insert(all_losses.end(), p.losses.begin(), p.losses.end());

    const int K = p.iters();
    const TraceSummary sum = summarize_trace(events, kDepth);
    bool counts_ok = true;
    for (int w = 0; w < kDepth; ++w)
      counts_ok &= sum.ops_per_rank[w] ==
                   K * static_cast<long>(trainer.plan().worker_plan(w).size());
    rep.check(counts_ok, "every rank recorded iterations x |plan(w)| op spans "
                         "(no ring wrap or loss)");
    rep.check(sum.unnested == 0, "every recv/send span lies inside its "
                                 "parent op span (" +
                                     std::to_string(sum.unnested) + " outside)");

    std::vector<std::pair<double, double>> calls;
    for (int i = 0; i < K; ++i) calls.emplace_back(p.call_t0_us[i], p.call_t1_us[i]);
    const Rounds rounds = bucket_rounds(sum, calls, kDepth);
    rep.check(rounds.outside == 0,
              "every iteration's traced op extent lies inside the interval "
              "the driver measured around its train_iteration call (" +
                  std::to_string(rounds.outside) + " spans outside)");
    report_idle_and_gaps(rep, rounds);
    std::vector<double> fwd(kDepth), bwd(kDepth);
    for (const OpSelf& o : sum.ops) {
      if (o.ev.kind == obs::EventKind::kForward) fwd[o.ev.stage] += o.self_us();
      if (o.ev.kind == obs::EventKind::kBackward) bwd[o.ev.stage] += o.self_us();
    }
    const double per_iter = 1.0 / (1000.0 * K);  // µs totals -> ms/iteration
    for (int s = 0; s < kDepth; ++s) {
      rep.metric("nn.fwd_self_ms.s" + std::to_string(s), fwd[s] * per_iter, "ms");
      rep.metric("nn.bwd_self_ms.s" + std::to_string(s), bwd[s] * per_iter, "ms");
    }

    const long msgs = plan_p2p_messages(trainer.plan());
    rep.check(sum.recv_spans == msgs * K,
              "traced recv spans equal the plan's p2p messages x iterations");
    const double act_bytes = 4.0 * model.seq * model.hidden;  // B = 1 rows
    rep.metric("comm.recv_wait_ms", sum.recv_us * per_iter, "ms");
    rep.metric("comm.send_ms", sum.send_us * per_iter, "ms");
    rep.metric("comm.p2p_msgs", static_cast<double>(msgs), "count");
    rep.metric("comm.p2p_bytes", msgs * act_bytes, "B");
    rep.metric("comm.allreduce_begin_ms",
               total_span_us(events, obs::EventKind::kAllReduceBegin) * per_iter,
               "ms");
    rep.metric("comm.allreduce_wait_ms",
               total_span_us(events, obs::EventKind::kAllReduceWait) * per_iter,
               "ms");
    // Ring allreduce: each of the p group members sends 2(p-1)/p of the
    // stage's gradient bucket.
    double ar_bytes = 0.0;
    for (int s = 0; s < kDepth; ++s) {
      const double p_group = trainer.plan().allreduce_group(s).size();
      ar_bytes += 2.0 * (p_group - 1.0) * 4.0 *
                  static_cast<double>(warm_weights[s].size());
    }
    rep.metric("comm.allreduce_bytes", ar_bytes, "B");

    // Optimizer: the slowest rank's flush per iteration.
    std::vector<double> optim(K, 0.0);
    for (const obs::TraceEvent& e : events) {
      if (e.kind != obs::EventKind::kOptimStep) continue;
      const auto it =
          std::upper_bound(p.call_t0_us.begin(), p.call_t0_us.end(), e.t0_us);
      const int i = static_cast<int>(it - p.call_t0_us.begin()) - 1;
      if (i >= 0) optim[i] = std::max(optim[i], (e.t1_us - e.t0_us) / 1000.0);
    }
    rep.metric("optim.step_ms", mean(optim), "ms");

    std::vector<double> call_ms;
    for (int i = 0; i < K; ++i)
      call_ms.push_back((p.call_t1_us[i] - p.call_t0_us[i]) / 1000.0);
    rep.metric("runtime.round_ms_p50", percentile(call_ms, 50), "ms");
    rep.metric("runtime.step_ms_p50", percentile(call_ms, 50), "ms");
    rep.metric("runtime.construct_ms", construct_ms, "ms");
    rep.metric("core.plan_build_ms", plan_build_ms, "ms");
    rep.metric("verify.certify_ms", certify_ms, "ms");
    std::vector<double> fwd_flops;
    for (int s = 0; s < kDepth; ++s) fwd_flops.push_back(part.stage_fwd_flops(s, 1));
    rep.metric("core.predicted_bubble", predicted_bubble(plan, fwd_flops),
               "ratio");
    rep.metric("obs.events", static_cast<double>(events.size()) / K, "count");
    rep.metric("obs.traced_rate", seq_rate(p), "1/s");
    rep.metric("obs.untraced_rate", seq_rate(plain), "1/s");
    rep.metric("obs.trace_overhead", seq_rate(p) / seq_rate(plain), "ratio");
    report_gemm_layer(rep, model, model.seq, model.seq, model.seq);
    untraced_rate = seq_rate(plain);
  }

  // ---- output checks (after peak RSS was read).
  for (int s = 0; s < kDepth; ++s)
    rep.check(trainer.stage_weights(0, 0, s) == trainer.stage_weights(0, 1, s),
              "down- and up-pipe replicas of stage " + std::to_string(s) +
                  " are bitwise equal");
  auto avg = [](auto first, auto last) {
    double s = 0.0;
    for (auto it = first; it != last; ++it) s += *it;
    return s / static_cast<double>(last - first);
  };
  const double loss_start = avg(all_losses.begin(), all_losses.begin() + 5);
  const double loss_end = avg(all_losses.end() - 5, all_losses.end());
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "loss at the end %.4f is below the loss at the start %.4f",
                loss_end, loss_start);
  rep.check(loss_end < loss_start, buf);

  rt::SequentialTrainer seq(model, opts);
  double loss_gap = 0.0, weight_gap = 0.0;
  for (int i = 0; i < kWarmup; ++i)
    loss_gap = std::max(loss_gap,
                        std::abs(seq.train_iteration(warm_batches[i], kMicro).loss -
                                 warm_losses[i]));
  for (int s = 0; s < kDepth; ++s)
    weight_gap = std::max(weight_gap, max_abs_diff(seq.stage_weights(s, kDepth),
                                                   warm_weights[s]));
  std::snprintf(buf, sizeof buf,
                "pipelined losses/weights match SequentialTrainer after %d "
                "iterations (loss gap %.3g <= %.0e, weight gap %.3g <= %.0e)",
                kWarmup, loss_gap, kLossTol, weight_gap, kWeightTol);
  rep.check(loss_gap <= kLossTol && weight_gap <= kWeightTol, buf);

  if (args.trace) {
    // The single-device baseline on the same task, warm (the parity replay
    // above paid its first-touch allocations): sequences per second at the
    // median cadence of kSequentialIters iterations on fresh batches.
    std::vector<double> cadence_ms;
    double last = now_ms();
    for (int i = 0; i < kSequentialIters; ++i) {
      seq.train_iteration(
          successor_batch(model, samples, batch_seeds.next_u64()), kMicro);
      const double t = now_ms();
      cadence_ms.push_back(t - last);
      last = t;
    }
    const double seq_rate_v = samples * 1000.0 / percentile(cadence_ms, 50);
    rep.metric("runtime.sequential_seqs_per_s", seq_rate_v, "seq/s");
    rep.metric("runtime.pipeline_over_sequential", untraced_rate / seq_rate_v,
               "ratio");
  }
  return rep;
}

}  // namespace chimera::benchmark
