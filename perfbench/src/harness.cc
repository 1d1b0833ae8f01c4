#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

using privsan::Result;
using privsan::Status;

Result<Options> ParseOptions(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value: " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Status::InvalidArgument("unknown flag: " + flag);
    }
    if (end != nullptr && *end != '\0') {
      return Status::InvalidArgument("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) return Status::InvalidArgument("--workload is required");
  if (!(options.seconds > 0)) {
    return Status::InvalidArgument("--seconds must be positive");
  }
  return options;
}

Result<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  const size_t at_or_below =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || q <= 0.0 || q >= 1.0 || n - at_or_below < kMinTailSamples) {
    return Status::FailedPrecondition(
        "percentile " + std::to_string(q) + " of " + std::to_string(n) +
        " samples has fewer than " + std::to_string(kMinTailSamples) +
        " samples beyond it");
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, n - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

// --- Spans ---------------------------------------------------------------

int Tracer::Begin(std::string_view name, uint64_t request) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const int64_t now = NowNs();
  spans_.push_back({std::string(name), now, now, parent, request});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::Add(std::string_view name, int64_t start_ns, int64_t end_ns,
                int parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({std::string(name), start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, std::vector<double>> SpanMsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& span : spans) {
    by_name[span.name].push_back(ToMs(span.end_ns - span.start_ns));
  }
  return by_name;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (int c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (run_hi < 0 || lo > run_hi) {
        if (run_hi >= 0) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi >= 0) covered += run_hi - run_lo;
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

std::map<std::string, int64_t> LayerSelfNs(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, int64_t> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  return layers;
}

Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  for (const Span& span : spans) {
    out << "{\"name\": \"" << span.name << "\", \"start_ns\": "
        << span.start_ns << ", \"end_ns\": " << span.end_ns
        << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << "}\n";
  }
  out.close();
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

// --- Metrics -------------------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s", false},
      {"pass_s", "s", false},
      {"peak_rss_mb", "MB", false},
      {"utility", "ratio", true},
      {"ok_ratio", "ratio", true},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      // The traced pass and its split into layer self times.
      {"trace.pass_s", "s", false},
      {"trace.untraced_pass_s", "s", false},
      {"trace.overhead_s", "s", false},
      {"trace.remainder_s", "s", false},
      // The untraced pass's answers: how many, and the median latency of
      // one (a release, a grid cell, a stream tick).
      {"trace.answers", "count", true},
      {"trace.answer_p50_ms", "ms", false},
      {"self.log_s", "s", false},
      {"self.core_s", "s", false},
      {"self.lp_s", "s", false},
      {"self.serve_s", "s", false},
      {"self.net_s", "s", false},
      // log
      {"log.preprocess_ms", "ms", false},
      // core
      {"core.rows_ms", "ms", false},
      {"core.model_ms", "ms", false},
      {"core.sample_ms", "ms", false},
      {"core.audit_ms", "ms", false},
      {"core.fump_model_ms", "ms", false},
      {"core.dump_spe_ms", "ms", false},
      {"core.append_ms", "ms", false},
      {"core.remove_ms", "ms", false},
      {"core.rows_copied_ratio", "ratio", true},
      {"core.rows_patched", "count", true},
      {"core.oump_sweep_s", "s", false},
      {"core.fump_sweep_s", "s", false},
      {"core.dump_sweep_s", "s", false},
      // lp
      {"lp.cold_solve_ms", "ms", false},
      {"lp.cold_iterations", "count", true},
      {"lp.us_per_iteration", "us", false},
      {"lp.refactorizations", "count", true},
      {"lp.factor_nnz", "count", true},
      {"lp.oump_cold_cell_ms", "ms", false},
      {"lp.oump_warm_cell_ms", "ms", false},
      {"lp.oump_warm_iterations", "count", true},
      {"lp.fump_warm_iterations", "count", true},
      {"lp.fump_cold_iterations", "count", true},
      {"lp.fump_warm_to_cold", "ratio", true},
      {"lp.fump_repair_aborted", "count", true},
      {"lp.dump_greedy_ms", "ms", false},
      {"lp.dump_lpround_ms", "ms", false},
      {"lp.dump_lpround_iterations", "count", true},
      {"lp.repair_ms", "ms", false},
      {"lp.repair_iterations", "count", true},
      {"lp.repair_solves", "count", true},
      {"lp.warm_started_ratio", "ratio", true},
      {"lp.repair_aborted", "count", true},
      // serve
      {"serve.queue_ms", "ms", false},
      {"serve.flush_ms", "ms", false},
      {"serve.solve_ms", "ms", false},
      {"serve.cache_ms", "ms", false},
      {"serve.overhead_ms", "ms", false},
      {"serve.flushes", "count", true},
      {"serve.coalesced_per_flush", "ratio", true},
      {"serve.cache_lookups", "count", true},
      {"serve.cache_hit_ratio", "ratio", true},
      // stream
      {"stream.allocations", "count", true},
      {"stream.spent_epsilon", "epsilon", true},
      {"stream.refusals", "count", true},
      // net
      {"net.read_ms", "ms", false},
      {"net.overhead_ms.tick", "ms", false},
      {"net.overhead_ms.miss", "ms", false},
      {"net.overhead_ms.hit", "ms", false},
      {"net.overhead_ms.budget", "ms", false},
      {"net.overhead_ms.stats", "ms", false},
      {"net.reply_bytes.append", "bytes", true},
      {"net.reply_bytes.remove", "bytes", true},
      {"net.reply_bytes.solve", "bytes", true},
      {"net.reply_bytes.budget", "bytes", true},
      {"net.reply_bytes.stats", "bytes", true},
      {"net.encode_us", "us", false},
      {"net.decode_us", "us", false},
      // metrics
      {"metrics.lambda_ratio", "ratio", true},
      {"metrics.fump_recall", "ratio", true},
      {"metrics.dump_diversity", "ratio", true},
  };
  return kMetrics;
}

bool Ledger::Op(bool ok, std::string_view what) {
  ++outcome_->attempted;
  if (!ok) {
    ++outcome_->failed;
    Report("operation failed", what);
  }
  return ok;
}

bool Ledger::Check(bool ok, std::string_view what) {
  if (!ok) {
    outcome_->checks_passed = false;
    Report("check failed", what);
  }
  return ok;
}

void Ledger::Report(std::string_view kind, std::string_view what) {
  if (reported_++ < 20) std::cerr << "# " << kind << ": " << what << "\n";
}

void ReportTracedPass(const std::vector<Span>& pass_spans,
                      int64_t untraced_pass_ns, Outcome* outcome,
                      Ledger* ledger) {
  int64_t pass_ns = 0;
  for (const Span& span : pass_spans) {
    if (span.parent < 0) pass_ns += span.end_ns - span.start_ns;
  }
  std::map<std::string, int64_t> layers = LayerSelfNs(pass_spans);
  int64_t accounted = 0;
  for (const char* layer : {"log", "core", "lp", "serve", "net"}) {
    outcome->metrics[std::string("self.") + layer + "_s"] =
        ToSeconds(layers[layer]);
    accounted += layers[layer];
  }
  accounted += layers["bench"];
  outcome->metrics["trace.pass_s"] = ToSeconds(pass_ns);
  outcome->metrics["trace.remainder_s"] = ToSeconds(layers["bench"]);
  outcome->metrics["trace.untraced_pass_s"] = ToSeconds(untraced_pass_ns);
  outcome->metrics["trace.overhead_s"] =
      ToSeconds(pass_ns - untraced_pass_ns);
  ledger->Check(accounted == pass_ns,
                "layer self times do not add up to the traced pass");
}

void ReportAnswers(const std::vector<double>& answer_ms, Outcome* outcome) {
  outcome->metrics["trace.answers"] = static_cast<double>(answer_ms.size());
  if (const Result<double> p50 = Percentile(answer_ms, 0.5); p50.ok()) {
    outcome->metrics["trace.answer_p50_ms"] = *p50;
  }
}

namespace {
int64_t run_start_ns = NowNs();
}  // namespace

void RunClockStart() { run_start_ns = NowNs(); }

Status CheckRunDeadline() {
  if (ToSeconds(NowNs() - run_start_ns) < kRunDeadlineSeconds) {
    return Status::OK();
  }
  return Status::ResourceExhausted("run deadline passed; not attempted");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Result<std::string> ResultLine(const Outcome& outcome, bool trace) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (outcome.correct() ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  const std::vector<MetricDef>& defs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = outcome.metrics.find(defs[i].name);
    double value = 0.0;
    if (it != outcome.metrics.end()) {
      value = it->second;
    } else if (!trace) {
      return Status::Internal(std::string("end-to-end metric missing: ") +
                              defs[i].name);
    }
    if (!std::isfinite(value)) {
      return Status::Internal(std::string("metric is not finite: ") +
                              defs[i].name);
    }
    out << (i > 0 ? ", " : "") << "\"" << defs[i].name
        << "\": {\"value\": " << value << ", \"unit\": \"" << defs[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
