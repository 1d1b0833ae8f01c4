// Shared plumbing of the perfbench program: command-line options, the
// percentile helper, the span recorder and its self-time computation, the
// metric tables the workloads fill, and the result line.
//
// Every timing comes from the steady clock in integer nanoseconds, so the
// self-time identity of a traced pass (layer self times + remainder ==
// pass time) holds exactly.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double ToSeconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double ToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string spans_path;  // where a traced run writes its spans
};

// Parses --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH].
privsan::Result<Options> ParseOptions(int argc, char** argv);

// A percentile needs this many samples strictly beyond it; a tail thinner
// than that is refused rather than reported.
constexpr size_t kMinTailSamples = 10;

// Linearly interpolated q-quantile (0 < q < 1) of `samples`. Fails with
// FailedPrecondition when fewer than kMinTailSamples samples lie above
// it, i.e. when n - ceil(q * n) < kMinTailSamples.
privsan::Result<double> Percentile(std::vector<double> samples, double q);

// Plain median for per-layer figures, which are not gated; 0 when empty.
double Median(std::vector<double> samples);

// --- Spans ---------------------------------------------------------------

// One timed interval at a layer boundary. The layer is the name's prefix
// up to the first '.' ("lp.solve" -> "lp"). Spans named "bench.*" are the
// benchmark's own (a pass's roots); their self time is the pass's
// untraced remainder.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // index into the recorder's spans; -1 for a root
  uint64_t request = 0;  // spans of one release, cell or tick share it
};

// In-memory span recorder for one thread. Begin/End nest through an
// open-span stack; Add records an interval whose bounds the caller already
// knows. A disabled recorder records nothing and returns id -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(std::string_view name, uint64_t request);
  void End(int id);
  int Add(std::string_view name, int64_t start_ns, int64_t end_ns,
          int parent, uint64_t request);
  const std::vector<Span>& spans() const { return spans_; }
  // Duration of a closed span; 0 for id -1.
  int64_t DurationNs(int id) const {
    return id < 0 ? 0 : spans_[id].end_ns - spans_[id].start_ns;
  }

  // RAII span: Begin on construction, End on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, uint64_t request)
        : tracer_(tracer), id_(tracer.Begin(name, request)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Runs body() inside a span and returns what it returns.
template <typename Body>
auto InSpan(Tracer& tracer, std::string_view name, uint64_t request,
            Body&& body) {
  Tracer::Scope span(tracer, name, request);
  return body();
}

// Span durations in ms, grouped by span name.
std::map<std::string, std::vector<double>> SpanMsByName(
    const std::vector<Span>& spans);

// Each span's duration minus the part of its interval that its children
// cover (overlapping children count once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Self times summed per layer over `spans`: layer -> ns. The sum over all
// layers equals the summed duration of the root spans.
std::map<std::string, int64_t> LayerSelfNs(const std::vector<Span>& spans);

// Writes spans as JSON lines (name, start, end, parent, request).
privsan::Status WriteSpans(const std::vector<Span>& spans,
                           const std::string& path);

// --- Metrics -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  // The value repeats exactly for a repeated seed (counts, ratios of
  // counts, utility figures); the self-test compares these.
  bool deterministic;
};

// The end-to-end metrics every workload reports on an untraced run, and
// the per-layer metrics every traced run reports (0 where the workload
// does not exercise the layer). BENCHMARK.json lists the same names.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// What one workload run produced.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Whole-run checks (accountant totals, self-time identity, ...) that are
  // not single operations; a failed one makes the run incorrect.
  bool checks_passed = true;
  std::map<std::string, double> metrics;
  std::vector<Span> spans;

  bool correct() const { return failed == 0 && checks_passed; }
  double ok_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

// Counts operations and verification failures into an Outcome; prints the
// first few failures to stderr.
class Ledger {
 public:
  explicit Ledger(Outcome* outcome) : outcome_(outcome) {}
  // One operation that succeeded and verified (ok) or not; returns ok.
  bool Op(bool ok, std::string_view what);
  // A whole-run check; returns ok.
  bool Check(bool ok, std::string_view what);

 private:
  void Report(std::string_view kind, std::string_view what);
  Outcome* outcome_;
  int reported_ = 0;
};

// Fills trace.pass_s (summed root spans of the traced pass), the layer
// self times self.*, trace.remainder_s (the roots' own self time:
// benchmark code between layer calls), trace.untraced_pass_s and trace.overhead_s
// (traced minus untraced), and checks that the self times plus the
// remainder add up to the pass time exactly.
void ReportTracedPass(const std::vector<Span>& pass_spans,
                      int64_t untraced_pass_ns, Outcome* outcome,
                      Ledger* ledger);

// Fills trace.answers, the number of answers the untraced pass released,
// and trace.answer_p50_ms, their median latency. The median is left out
// (it reads 0) when fewer than kMinTailSamples answers lie above it.
void ReportAnswers(const std::vector<double>& answer_ms, Outcome* outcome);

// Operations are not started once a run is this old, so a run whose
// solves keep stalling still ends (and reports them) before run.py's 170 s
// limit: the last one started ends within SessionDefaults()'s iteration
// cap. RunClockStart() marks the start of a workload run.
constexpr double kRunDeadlineSeconds = 120;
void RunClockStart();
// OK, or the ResourceExhausted error a skipped operation fails with.
privsan::Status CheckRunDeadline();

// Peak resident set of this process in MB (getrusage).
double PeakRssMb();

// The result line: {"correct", "attempted", "failed", "metrics"} with
// every end-to-end metric (trace off) or every per-layer metric (trace
// on). Fails when an end-to-end metric is missing.
privsan::Result<std::string> ResultLine(const Outcome& outcome, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
