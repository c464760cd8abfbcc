// Shared pieces of the benchmark driver: the command line, the result the
// driver prints, timing and percentile helpers, and the per-layer analysis
// of a traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/execution_plan.h"
#include "nn/stage.h"
#include "obs/trace.h"

namespace chimera::benchmark {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// What one run prints as its last line: the correctness verdict, the
/// operations attempted/failed, and the metrics of the selected mode.
class Report {
 public:
  /// Records one named check; a failing one makes the run incorrect. Every
  /// check is logged to stderr either way.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// Operations the timed phases attempted, and how many of them failed
  /// (never returned, or returned a malformed result).
  void count(long attempted, long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Milliseconds on the steady clock since the driver process started.
double now_ms();
/// The same clock in microseconds — handed to the engines as their `clock`
/// so request stamps and the generator's due times share one epoch.
long now_us_long();

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
/// The p-th percentile of each run of `window` consecutive samples (a short
/// last run is dropped), and the lower quartile of those. A pause or a
/// slowdown of the shared host delays every sample of the windows it falls
/// in, which moves a whole-sample tail by a lot, and this figure not at all
/// until it covers three windows in four; a slower program moves every
/// window. For timings, where lower is better. Fewer than two windows: the
/// plain percentile.
double windowed_percentile(const std::vector<double>& v, std::size_t window,
                           double p);
double mean(const std::vector<double>& v);
/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

// ---- traced-run analysis --------------------------------------------------

/// One plan-op span with the recv/send time nested inside it removed.
struct OpSelf {
  obs::TraceEvent ev;
  double recv_us = 0.0;
  double send_us = 0.0;
  double self_us() const { return ev.t1_us - ev.t0_us - recv_us - send_us; }
};

/// The rank threads' plan-op spans of one traced phase, each with its
/// nested p2p time, plus the totals the layers report.
struct TraceSummary {
  std::vector<OpSelf> ops;  ///< sorted by (worker, t0)
  std::vector<long> ops_per_rank;
  long recv_spans = 0;
  double recv_us = 0.0, send_us = 0.0;
  long unnested = 0;  ///< recv/send spans not inside an op span
};

/// Builds the summary from collect()'s events for `ranks` rank threads.
TraceSummary summarize_trace(const std::vector<obs::TraceEvent>& events,
                             int ranks);

/// Sum of every event's duration of `kind` (any thread).
double total_span_us(const std::vector<obs::TraceEvent>& events,
                     obs::EventKind kind);
std::vector<double> span_durations_ms(const std::vector<obs::TraceEvent>& events,
                                      obs::EventKind kind);

/// Op spans bucketed by dispatch interval: an engine round span, or the
/// interval the driver measured around one call.
struct Rounds {
  std::vector<double> t0_us, t1_us;
  std::vector<double> makespan_us;  ///< op extent across all ranks
  std::vector<double> slowest_us;   ///< the slowest rank's own op extent
  std::vector<std::vector<double>> compute_us;  ///< [round][rank] self time
  long outside = 0;  ///< op spans inside no interval
  int size() const { return static_cast<int>(t0_us.size()); }
};

/// Buckets `s.ops` into `intervals` (sorted here by start).
Rounds bucket_rounds(const TraceSummary& s,
                     std::vector<std::pair<double, double>> intervals,
                     int ranks);
/// [t0, t1] of every event of `kind`.
std::vector<std::pair<double, double>> span_intervals(
    const std::vector<obs::TraceEvent>& events, obs::EventKind kind);
/// runtime.idle_share_mean/max (compute-only idle share of the ranks per
/// round), runtime.idle_base_makespan_ms, and runtime.dispatch_gap_ms (the
/// round interval minus the slowest rank's op extent inside it).
void report_idle_and_gaps(Report& rep, const Rounds& r);

/// p2p messages of one full dispatch of `plan` (units with an inbound
/// transfer), counted from the plan.
long plan_p2p_messages(const ExecutionPlan& plan);

// ---- layer probes -----------------------------------------------------------

/// Reports the four tensor-layer GEMM rates (GFLOP/s of the driver's own
/// timed gemm / gemm_tn / gemm_nt calls) at a workload's shapes:
/// `rows` activation rows per stage call, `attn_q`×`attn_k` one head's
/// score matrix.
void report_gemm_layer(Report& rep, const nn::SmallModelConfig& model,
                       int rows, int attn_q, int attn_k);

/// Replay bubble ratio of `plan` with per-stage forward costs `fwd` (the
/// partition's FLOPs; backward = 2× forward).
double predicted_bubble(const ExecutionPlan& plan, std::vector<double> fwd);

/// Times the standalone verifier on `plan_json` and records whether the
/// plan certifies clean.
void certify(Report& rep, const std::string& plan_json, double* ms);

Report run_train(const Args& args);
Report run_serve(const Args& args);
Report run_decode(const Args& args);

}  // namespace chimera::benchmark
