// Shared pieces of the benchmark tool: clock, spans, metric output,
// flag parsing, and the serve-workload load generator's interface.

#ifndef PERFBENCH_TOOL_BENCH_H_
#define PERFBENCH_TOOL_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "domain/domain.h"
#include "io/point_sink.h"
#include "obs/metrics_registry.h"
#include "service/artifact_registry.h"

namespace perfbench {

int64_t NowNs();
double Seconds(int64_t ns);
// User + system CPU seconds of this process, all threads.
double CpuSeconds();
// User + system CPU seconds of process \p pid so far, exited threads
// included (/proc/<pid>/stat, clock-tick resolution).
double ProcessCpuSeconds(int pid);
// Peak resident set of process \p pid so far, MiB (VmHWM).
double ProcessPeakRssMib(int pid);

// Exact percentile (nearest rank) of \p v; sorts it. +inf entries mark
// failed operations, so a failure always lands above any limit.
double Percentile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

// --- Spans ----------------------------------------------------------
// Spans are recorded only from the benchmark's own code, around calls
// into the program's public functions. They are kept in memory and
// written once at the end, with self time per layer (the layer is the
// span name up to its first '.').
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span. Spans are opened, closed
  // and added from the sequence's own thread only (load threads hand
  // theirs over after they are joined). Returns the span's id or -1.
  int Begin(const char* name);
  // Closes span \p id; returns its duration in seconds. Timing runs
  // whether or not spans are kept, so spans-off runs time the same calls.
  double End(int id, int64_t start_ns);
  int current() const { return stack_.empty() ? -1 : stack_.back(); }

  // Appends spans a load thread recorded with their parents set.
  void AddBulk(const std::vector<Span>& spans);

  size_t size() const { return spans_.size(); }
  // Writes all spans and the per-layer self times to \p path.
  bool Write(const std::string& path, const std::string& workload) const;
  // Self seconds per layer: span duration minus the union of its
  // children's intervals.
  std::map<std::string, double> SelfTimeByLayer() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII helper: times one call and records a span when tracing is on.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)), start_(NowNs()) {}
  ~Scope() { Stop(); }
  double Stop() {
    if (!done_) {
      seconds_ = tracer_->End(id_, start_);
      done_ = true;
    }
    return seconds_;
  }

 private:
  Tracer* tracer_;
  int id_;
  int64_t start_;
  bool done_ = false;
  double seconds_ = 0.0;
};

// --- Results --------------------------------------------------------
// The tool's answer to run.py: metric name -> value, plus operation
// accounting and the output checks. Printed as the last stdout line.
struct Report {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void Print() const;
};

// --- Flags ----------------------------------------------------------
// `--key value` pairs. Str and Num exit with an error when the flag is
// missing: run.py passes every flag a subcommand reads, so no value has
// a second default here.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Str(const std::string& key) const;
  double Num(const std::string& key) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

// --- Hashing sink ---------------------------------------------------
// Order-dependent hash of a point stream, independent of how the stream
// is split into batches; compares a served SAMPLE with a local one.
class HashingSink : public privhp::PointSink {
 public:
  privhp::Status Add(const privhp::Point& x) override;
  privhp::Status AddAll(const privhp::PointBatch& batch) override;
  using privhp::PointSink::AddAll;
  uint64_t num_processed() const override { return count_; }
  uint64_t hash() const { return hash_; }

 private:
  void Mix(double v);
  uint64_t hash_ = 1469598103934665603ull;
  uint64_t count_ = 0;
};

uint64_t HashBytes(const std::string& bytes);
bool ReadFile(const std::string& path, std::string* out);

// --- Serve load -----------------------------------------------------
// Settings that are the same on every workload.
constexpr double kLimitUs = 20000;     // read p99 limit of the ladder
constexpr uint64_t kSampleM = 100000;  // points per SAMPLE request
constexpr uint32_t kIngestThreads = 2;  // INGEST's sharded build
constexpr int kSetupReps = 9;  // `privhp serve` launches timed per pass

struct LoadConfig {
  std::string socket;            // unix socket of the server under load
  std::string artifact = "art";  // name the readers query
  uint64_t seed = 0;             // query draws and SAMPLE seeds
  double fixed_rate = 0;          // offered reads/s of the fixed-rate phases
  double reads_seconds = 0;       // reads alone
  double beside_seconds = 0;      // reads beside the closed-loop worker
  // Rate ladder of reads alone after that phase (service.read.max_rps),
  // starting at this rate; 0 = no ladder.
  double ladder_from = 0;
  // The closed-loop worker runs beside the reads: SAMPLE streams, or
  // (worker_ingest) INGEST + EXPORT republishing `artifact`. After the
  // reads it runs each kind alone for alone_seconds (at least
  // kMinAlone times): SAMPLE streams, then INGESTs into "side".
  bool worker_ingest = false;
  double alone_seconds = 0;
  // Ingest spec (plan seed: the client's default, as `privhp build`'s);
  // the published tree must hash to expected_blob_hash.
  const std::vector<privhp::Point>* ingest_points = nullptr;
  uint32_t ingest_dim = 0;
  uint64_t ingest_k = 0;
  uint64_t expected_blob_hash = 0;
  // The server's process, for its CPU time per phase; 0 = not measured.
  int server_pid = 0;
};

struct LoadResult {
  std::vector<double> fixed_latency_us;  // from due time; +inf = failed
  // Per-window percentiles of the fixed-rate phase (0.25 s windows).
  std::vector<double> window_p50_us, window_p90_us, window_p99_us;
  std::vector<double> client_span_us;    // send -> reply, fixed phase
  std::vector<double> late_us;           // generator lateness
  double max_rps = 0.0;  // measured rate at the best passing rung
  double best_offered_rps = 0.0;
  int ladder_steps = 0;
  double ladder_cpu_s = 0.0;       // process CPU time during the ladder
  uint64_t ladder_attempted = 0;  // reads the ladder scheduled
  // The server's peak RSS from its launch to the end of the reads alone
  // (0 without a server pid).
  double reads_peak_rss_mib = 0.0;
  std::vector<double> beside_window_p50_us;  // reads beside the worker
  // Per operation, Mpts/s: SAMPLE streams and INGESTs (points / upload
  // time), each alone and beside the reads.
  std::vector<double> sample_mpts_s, ingest_mpts_s;
  std::vector<double> beside_sample_mpts_s, beside_ingest_mpts_s;
  // Points of each kind alone per second of server CPU time.
  double sample_mpts_per_cpu_s = 0.0;
  double ingest_mpts_per_cpu_s = 0.0;
  double ingest_seconds = 0.0;
  uint64_t ingests = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t blob_mismatches = 0;
  std::vector<std::pair<uint64_t, uint64_t>> sample_hashes;  // seed, hash
  privhp::obs::MetricsSnapshot stats_before, stats_after;
  int64_t workers_busy_max = 0;
  int64_t output_queue_bytes_max = 0;
  std::vector<std::string> errors;  // first few, for the log
};

// The load settings shared by `serve` and `trace`; the caller sets
// ingest_points and expected_blob_hash.
LoadConfig LoadConfigFromFlags(const Flags& flags);

// Runs the serve stage's client side against cfg.socket with four
// connections, one thread each: three open-loop readers and one
// closed-loop SAMPLE or INGEST client, which also polls STATS. Reader
// answers are compared with \p expected. Spans go to \p tracer when it
// is enabled.
LoadResult RunLoad(const LoadConfig& cfg,
                   const privhp::ServedArtifact& expected, Tracer* tracer);

// Verifies up to \p max_checks recorded SAMPLE replies against a local
// GenerateTo with the same seed. Returns the number that differ.
int VerifySamples(const LoadResult& load,
                  const privhp::ServedArtifact& expected,
                  size_t max_checks);

// Fills report metrics shared by the end-to-end and traced serve runs.
void AddServiceLayerMetrics(const LoadResult& load, Report* report);

int RunTrace(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_BENCH_H_
