#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/plan_json.h"
#include "support/rng.h"
#include "tensor/kernels.h"
#include "verify/verifier.h"

namespace chimera::benchmark {

namespace {

// Initialized during static initialization, before main(): set-up time is
// measured from here.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

/// GFLOP/s of timed calls to one GEMM variant at C[m,n] with contraction k
/// ("nn" gemm, "tn" gemm_tn, "nt" gemm_nt).
double gemm_gflops(const char* variant, int m, int n, int k) {
  const std::string v = variant;
  // Operand layouts per variant: gemm A[m,k]·B[k,n]; gemm_tn A[k,m]ᵀ·B[k,n];
  // gemm_nt A[m,k]·B[n,k]ᵀ.
  Tensor a = v == "tn" ? Tensor(k, m) : Tensor(m, k);
  Tensor b = v == "nt" ? Tensor(n, k) : Tensor(k, n);
  Tensor c(m, n);
  Rng rng(17);
  for (std::size_t i = 0; i < a.numel(); ++i) a[i] = float(rng.uniform(-1, 1));
  for (std::size_t i = 0; i < b.numel(); ++i) b[i] = float(rng.uniform(-1, 1));
  auto call = [&] {
    if (v == "tn") gemm_tn(a, b, c);
    else if (v == "nt") gemm_nt(a, b, c);
    else gemm(a, b, c);
  };
  call();  // first touch
  // Calls per batch so one batch lasts about 20 ms; the best of five
  // batches is the rate (the host is shared, interference only slows).
  const double flops = 2.0 * m * n * k;
  const double t0 = now_ms();
  int probe = 0;
  while (now_ms() - t0 < 2.0) {
    call();
    ++probe;
  }
  const int reps = std::max(1, static_cast<int>(probe * 10.0));
  double best = 0.0;
  for (int batch = 0; batch < 5; ++batch) {
    const double b0 = now_ms();
    for (int i = 0; i < reps; ++i) call();
    best = std::max(best, flops * reps / ((now_ms() - b0) * 1e6));
  }
  return best;
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
  std::fprintf(stderr, "check %-6s %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) correct_ = false;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}}";
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

long now_us_long() { return static_cast<long>(now_ms() * 1000.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[i];
}

double windowed_percentile(const std::vector<double>& v, std::size_t window,
                           double p) {
  if (v.size() < 2 * window) return percentile(v, p);
  std::vector<double> per_window;
  for (std::size_t i = 0; i + window <= v.size(); i += window)
    per_window.push_back(percentile(
        std::vector<double>(v.begin() + i, v.begin() + i + window), p));
  return percentile(per_window, 25);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

TraceSummary summarize_trace(const std::vector<obs::TraceEvent>& events,
                             int ranks) {
  TraceSummary s;
  s.ops_per_rank.assign(ranks, 0);
  for (const obs::TraceEvent& e : events)
    if (obs::is_plan_op(e.kind) && e.worker >= 0 && e.worker < ranks &&
        e.lane == 0) {
      s.ops.push_back({e});
      ++s.ops_per_rank[e.worker];
    }
  std::sort(s.ops.begin(), s.ops.end(), [](const OpSelf& a, const OpSelf& b) {
    return a.ev.worker != b.ev.worker ? a.ev.worker < b.ev.worker
                                      : a.ev.t0_us < b.ev.t0_us;
  });
  for (const obs::TraceEvent& e : events) {
    const bool recv = e.kind == obs::EventKind::kRecv;
    if (!recv && e.kind != obs::EventKind::kSend) continue;
    const double dur = e.t1_us - e.t0_us;
    (recv ? s.recv_us : s.send_us) += dur;
    if (recv) ++s.recv_spans;
    // The parent is the rank's last op span starting at or before it.
    auto it = std::upper_bound(
        s.ops.begin(), s.ops.end(), std::make_pair(e.worker, e.t0_us),
        [](const std::pair<int, double>& k, const OpSelf& o) {
          return k.first != o.ev.worker ? k.first < o.ev.worker
                                        : k.second < o.ev.t0_us;
        });
    if (it == s.ops.begin() || (it - 1)->ev.worker != e.worker ||
        e.t1_us > (it - 1)->ev.t1_us) {
      ++s.unnested;
      continue;
    }
    ((recv ? (it - 1)->recv_us : (it - 1)->send_us)) += dur;
  }
  return s;
}

double total_span_us(const std::vector<obs::TraceEvent>& events,
                     obs::EventKind kind) {
  double t = 0.0;
  for (const obs::TraceEvent& e : events)
    if (e.kind == kind) t += e.t1_us - e.t0_us;
  return t;
}

std::vector<double> span_durations_ms(const std::vector<obs::TraceEvent>& events,
                                      obs::EventKind kind) {
  std::vector<double> d;
  for (const obs::TraceEvent& e : events)
    if (e.kind == kind) d.push_back((e.t1_us - e.t0_us) / 1000.0);
  return d;
}

Rounds bucket_rounds(const TraceSummary& s,
                     std::vector<std::pair<double, double>> intervals,
                     int ranks) {
  std::sort(intervals.begin(), intervals.end());
  Rounds r;
  for (const auto& [t0, t1] : intervals) {
    r.t0_us.push_back(t0);
    r.t1_us.push_back(t1);
  }
  const int n = r.size();
  r.compute_us.assign(n, std::vector<double>(ranks, 0.0));
  std::vector<std::vector<std::pair<double, double>>> extent(
      n, std::vector<std::pair<double, double>>(ranks, {1e300, -1e300}));
  for (const OpSelf& o : s.ops) {
    const auto it = std::upper_bound(r.t0_us.begin(), r.t0_us.end(), o.ev.t0_us);
    const int i = static_cast<int>(it - r.t0_us.begin()) - 1;
    if (i < 0 || o.ev.t1_us > r.t1_us[i]) {
      ++r.outside;
      continue;
    }
    auto& ex = extent[i][o.ev.worker];
    ex.first = std::min(ex.first, o.ev.t0_us);
    ex.second = std::max(ex.second, o.ev.t1_us);
    if (obs::is_compute_kind(o.ev.kind)) r.compute_us[i][o.ev.worker] += o.self_us();
  }
  for (int i = 0; i < n; ++i) {
    double lo = 1e300, hi = -1e300, slowest = 0.0;
    for (const auto& [first, last] : extent[i]) {
      if (last < first) continue;  // the rank ran nothing this round
      lo = std::min(lo, first);
      hi = std::max(hi, last);
      slowest = std::max(slowest, last - first);
    }
    r.makespan_us.push_back(hi > lo ? hi - lo : 0.0);
    r.slowest_us.push_back(slowest);
  }
  return r;
}

std::vector<std::pair<double, double>> span_intervals(
    const std::vector<obs::TraceEvent>& events, obs::EventKind kind) {
  std::vector<std::pair<double, double>> iv;
  for (const obs::TraceEvent& e : events)
    if (e.kind == kind) iv.emplace_back(e.t0_us, e.t1_us);
  return iv;
}

void report_idle_and_gaps(Report& rep, const Rounds& r) {
  const int ranks = r.compute_us.empty() ? 0 : r.compute_us[0].size();
  std::vector<double> idle_rank(ranks, 0.0), makespan_ms, gaps_ms;
  double idle_total = 0.0;
  int counted = 0;
  for (int i = 0; i < r.size(); ++i) {
    gaps_ms.push_back((r.t1_us[i] - r.t0_us[i] - r.slowest_us[i]) / 1000.0);
    if (r.makespan_us[i] <= 0.0) continue;
    makespan_ms.push_back(r.makespan_us[i] / 1000.0);
    ++counted;
    for (int w = 0; w < ranks; ++w) {
      const double idle = 1.0 - r.compute_us[i][w] / r.makespan_us[i];
      idle_rank[w] += idle;
      idle_total += idle;
    }
  }
  const double n = std::max(1, counted);
  rep.metric("runtime.idle_share_mean", idle_total / (n * std::max(1, ranks)),
             "ratio");
  rep.metric("runtime.idle_share_max",
             ranks ? *std::max_element(idle_rank.begin(), idle_rank.end()) / n
                   : 0.0,
             "ratio");
  rep.metric("runtime.idle_base_makespan_ms", mean(makespan_ms), "ms");
  rep.metric("runtime.dispatch_gap_ms", mean(gaps_ms), "ms");
}

long plan_p2p_messages(const ExecutionPlan& plan) {
  long n = 0;
  for (int w = 0; w < plan.schedule().depth; ++w)
    for (const PlannedOp& pop : plan.worker_plan(w))
      for (const MicroUnit& u : pop.units)
        if (u.recv_from >= 0) ++n;
  return n;
}

void report_gemm_layer(Report& rep, const nn::SmallModelConfig& model,
                       int rows, int attn_q, int attn_k) {
  const int h = model.hidden;
  const int hd = h / model.heads;
  rep.metric("tensor.gemm_gflops.mlp", gemm_gflops("nn", rows, 4 * h, h),
             "GFLOP/s");
  rep.metric("tensor.gemm_gflops.head", gemm_gflops("nn", rows, model.vocab, h),
             "GFLOP/s");
  rep.metric("tensor.gemm_tn_gflops.wgrad", gemm_gflops("tn", h, 4 * h, rows),
             "GFLOP/s");
  rep.metric("tensor.gemm_nt_gflops.attn", gemm_gflops("nt", attn_q, attn_k, hd),
             "GFLOP/s");
}

double predicted_bubble(const ExecutionPlan& plan, std::vector<double> fwd) {
  ReplayCosts costs;
  costs.backward_by_stage = fwd;
  for (double& b : costs.backward_by_stage) b *= 2.0;
  costs.forward_by_stage = std::move(fwd);
  return replay(plan, costs).bubble_ratio();
}

void certify(Report& rep, const std::string& plan_json, double* ms) {
  const double t0 = now_ms();
  const verify::Diagnostics diags = verify::verify_json(plan_json);
  *ms = now_ms() - t0;
  rep.check(diags.empty(), "plan certifies clean under the standalone "
                           "verifier (" + std::to_string(diags.size()) +
                           " diagnostics)");
}

}  // namespace chimera::benchmark
