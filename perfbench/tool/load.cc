// Client side of the serve workloads: open-loop readers and one
// closed-loop SAMPLE or INGEST client, all through PrivHPClient.
//
// Open loop: each reader sends on a fixed schedule whatever the replies
// do, pipelining up to kWindow requests on its connection, and times
// each request from when it was due. A reader waits for the oldest reply
// only while nothing is due, so a slow reply makes the next sends late;
// that lateness is reported as loadgen.late, and the latency of the late
// requests still counts from their due time.

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <random>
#include <thread>

#include "bench.h"
#include "service/client.h"

namespace perfbench {
namespace {

using privhp::CellId;
using privhp::PrivHPClient;
using privhp::ServedArtifact;

constexpr size_t kQueryPool = 4096;
constexpr double kZipfExponent = 1.1;
constexpr size_t kWindow = 8;  // requests in flight per reader connection
constexpr double kInf = std::numeric_limits<double>::infinity();
// Open-loop reader connections, one thread each. A connection's replies
// come back in order, so one connection alone queues at the higher fixed
// rates when the host steals CPU time.
constexpr int kReaders = 3;
constexpr int kMinAlone = 3;
constexpr int kIdlePerBusy = 3;  // closed-loop worker's pause per busy time
// Latency is summarised per window of a phase's schedule, and a
// reported percentile is the median over windows, so a stall of the
// shared machine (tens of ms, every few seconds on the baseline VM) moves
// one window, not the phase's figure.
constexpr double kFixedWindowSeconds = 0.25;
constexpr double kRungWindowSeconds = 0.1;
// Ladder: doublings (or halvings) from LoadConfig::ladder_from until a
// rung's outcome flips (at most kMaxDoublings), then kBisections
// geometric bisections, which leave the passing and the missing rung
// 2^(1/16), about 4.4%, apart.
constexpr int kMaxDoublings = 16;
constexpr int kBisections = 4;
constexpr double kRungSeconds = 0.5;
constexpr double kAbortLateUs = 5 * kLimitUs;

struct Query {
  bool range = true;
  CellId cell;
  double q = 0.0;
  double expected = 0.0;
};

// A fixed pool of queries with their in-process answers; requests draw
// pool entries Zipf-skewed, so a few cells are hot and most are cold.
struct QueryPool {
  std::vector<Query> queries;
  std::vector<double> cdf;

  size_t Draw(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
    return std::min<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        cdf.size() - 1);
  }
};

QueryPool MakeQueries(const LoadConfig& cfg, const ServedArtifact& expected) {
  QueryPool pool;
  std::mt19937_64 rng(cfg.seed * 7919 + 17);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const privhp::Domain& domain = expected.domain();
  const int dim = domain.dimension();
  const int max_level = std::min(18, domain.max_level());
  double total = 0.0;
  for (size_t i = 0; i < kQueryPool; ++i) {
    Query query;
    query.range = dim > 1 || (rng() & 1);  // QUANTILE needs d = 1
    if (query.range) {
      privhp::Point x(dim);
      for (double& v : x) v = unit(rng);
      query.cell.level = 2 + static_cast<int>(rng() % (max_level - 1));
      query.cell.index = domain.Locate(x, query.cell.level);
      auto mass = expected.RangeMass(query.cell);
      query.expected = mass.ok() ? *mass : kInf;
    } else {
      query.q = 0.001 + 0.998 * unit(rng);
      auto values = expected.Quantiles({query.q});
      query.expected = values.ok() ? (*values)[0] : kInf;
    }
    pool.queries.push_back(query);
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    pool.cdf.push_back(total);
  }
  for (double& c : pool.cdf) c /= total;
  return pool;
}

// Sleeps until NowNs() reaches \p t (steady_clock is CLOCK_MONOTONIC).
void SleepUntilNs(int64_t t) {
  struct timespec ts;
  ts.tv_sec = t / 1000000000;
  ts.tv_nsec = t % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

privhp::Status SendQuery(PrivHPClient* client, const std::string& artifact,
                         const Query& query) {
  return query.range ? client->SendRangeMass(artifact, query.cell)
                     : client->SendQuantiles(artifact, {query.q});
}

privhp::Result<double> CollectQuery(PrivHPClient* client, const Query& query) {
  if (query.range) return client->CollectRangeMass();
  PRIVHP_ASSIGN_OR_RETURN(std::vector<double> values,
                          client->CollectQuantiles(1));
  return values[0];
}

std::string WrongAnswer(double got, double expected) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "wrong answer: got %.17g, expected %.17g",
                got, expected);
  return buf;
}

struct PhaseResult {
  std::vector<double> latency_us;  // due -> reply, in due order
  std::vector<double> span_us;     // send -> reply
  std::vector<double> late_us;     // send time - due time
  std::vector<Span> spans;
  uint64_t scheduled = 0;
  uint64_t ok = 0;
  uint64_t wrong = 0;
  int64_t last_reply_ns = 0;
  std::string error;
};

// One reader's share of a fixed-rate phase on its own connection. With
// \p abort set, a reader that falls more than kAbortLateUs behind its
// schedule stops the phase for all readers: the rung has missed, and its
// backlog need not drain. Requests never sent are not counted.
void ReaderPhase(PrivHPClient* client, const LoadConfig& cfg,
                 const QueryPool& pool, uint64_t seed, double rate,
                 int64_t start_ns, int64_t end_ns, bool keep_spans,
                 int parent_span, std::atomic<bool>* abort,
                 PhaseResult* out) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::mt19937_64 rng(seed);
  const double interval_ns = 1e9 / rate;
  out->scheduled = static_cast<uint64_t>(
      std::floor(static_cast<double>(end_ns - start_ns) / interval_ns));
  out->latency_us.assign(out->scheduled, kInf);
  struct Pending {
    size_t seq;
    size_t query;
    int64_t due;
    int64_t sent;
  };
  std::deque<Pending> pending;
  size_t next = 0;
  bool broken = false;
  auto due_of = [&](size_t seq) {
    return start_ns + static_cast<int64_t>(seq * interval_ns);
  };
  while (!broken && (next < out->scheduled || !pending.empty())) {
    const int64_t now = NowNs();
    if (abort != nullptr && next < out->scheduled &&
        (abort->load() || now - due_of(next) > kAbortLateUs * 1000)) {
      abort->store(true);
      out->scheduled = next;
      out->latency_us.resize(next);
      continue;
    }
    const bool can_send = next < out->scheduled && pending.size() < kWindow;
    if (can_send && (pending.empty() || now >= due_of(next))) {
      const int64_t due = due_of(next);
      if (now < due) SleepUntilNs(due);
      const int64_t sent = NowNs();
      out->late_us.push_back(Seconds(sent - due) * 1e6);
      const size_t qi = pool.Draw(&rng);
      const privhp::Status st =
          SendQuery(client, cfg.artifact, pool.queries[qi]);
      if (!st.ok()) {
        out->error = st.ToString();
        broken = true;
        break;
      }
      pending.push_back({next, qi, due, sent});
      ++next;
      continue;
    }
    const Pending p = pending.front();
    pending.pop_front();
    const Query& query = pool.queries[p.query];
    auto got = CollectQuery(client, query);
    const int64_t done = NowNs();
    if (!got.ok()) {
      // A transport error leaves the connection unusable; the rest of
      // the phase's requests stay counted as failed (latency +inf).
      out->error = got.status().ToString();
      broken = true;
      break;
    }
    if (*got != query.expected) {
      ++out->wrong;
      if (out->error.empty()) out->error = WrongAnswer(*got, query.expected);
      continue;
    }
    ++out->ok;
    out->last_reply_ns = done;
    out->latency_us[p.seq] = Seconds(done - p.due) * 1e6;
    out->span_us.push_back(Seconds(done - p.sent) * 1e6);
    if (keep_spans) {
      out->spans.push_back({"service.read", p.sent, done, parent_span});
    }
  }
}

struct PhaseSummary {
  std::vector<double> latency_us, span_us, late_us;
  std::vector<double> window_p50_us, window_p90_us, window_p99_us;
  uint64_t scheduled = 0, ok = 0, wrong = 0;
  bool aborted = false;
  double measured_rps = 0.0;
  double tail_median_us = 0.0;
  std::string error;
};

// Runs one fixed-rate phase across the reader connections.
PhaseSummary RunPhase(std::vector<PrivHPClient>* readers,
                      const LoadConfig& cfg, const QueryPool& pool,
                      uint64_t phase_seed, double rate, double seconds,
                      double window_seconds, bool can_abort, Tracer* tracer,
                      int parent_span) {
  const size_t n = readers->size();
  std::atomic<bool> abort{false};
  const int64_t start = NowNs() + 2000000;  // 2 ms to spawn the threads
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<PhaseResult> parts(n);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back(ReaderPhase, &(*readers)[i], std::cref(cfg),
                         std::cref(pool), phase_seed * 31 + i, rate / n,
                         start, end, tracer->enabled(), parent_span,
                         can_abort ? &abort : nullptr, &parts[i]);
  }
  for (auto& t : threads) t.join();
  PhaseSummary s;
  s.aborted = abort.load();
  std::vector<double> tail;
  // Latencies by the window of the schedule their request was due in.
  const double reads_per_window = window_seconds * rate / n;
  std::vector<std::vector<double>> windows(
      static_cast<size_t>(std::ceil(seconds / window_seconds)));
  int64_t last_reply = start;
  for (PhaseResult& p : parts) {
    last_reply = std::max(last_reply, p.last_reply_ns);
    s.scheduled += p.scheduled;
    s.ok += p.ok;
    s.wrong += p.wrong;
    if (s.error.empty()) s.error = p.error;
    // The last tenth of each reader's schedule shows a growing backlog.
    const size_t from = p.latency_us.size() - p.latency_us.size() / 10;
    tail.insert(tail.end(), p.latency_us.begin() + from, p.latency_us.end());
    for (size_t seq = 0; seq < p.latency_us.size(); ++seq) {
      const size_t w = std::min(windows.size() - 1,
                                static_cast<size_t>(seq / reads_per_window));
      windows[w].push_back(p.latency_us[seq]);
    }
    s.latency_us.insert(s.latency_us.end(), p.latency_us.begin(),
                        p.latency_us.end());
    s.span_us.insert(s.span_us.end(), p.span_us.begin(), p.span_us.end());
    s.late_us.insert(s.late_us.end(), p.late_us.begin(), p.late_us.end());
    tracer->AddBulk(p.spans);
  }
  for (std::vector<double>& w : windows) {
    if (w.empty()) continue;
    s.window_p50_us.push_back(Percentile(&w, 0.5));
    s.window_p90_us.push_back(Percentile(&w, 0.9));
    s.window_p99_us.push_back(Percentile(&w, 0.99));
  }
  // Completed reads over the time from the first due request to the
  // last reply, so a step that falls behind reads below its offer.
  s.measured_rps = static_cast<double>(s.ok) / Seconds(last_reply - start);
  s.tail_median_us = Median(tail);
  std::fprintf(stderr,
               "phase rate=%.0f/s scheduled=%llu ok=%llu wrong=%llu "
               "p50=%.0fus p99=%.0fus tail_median=%.0fus (window medians)%s\n",
               rate, static_cast<unsigned long long>(s.scheduled),
               static_cast<unsigned long long>(s.ok),
               static_cast<unsigned long long>(s.wrong),
               Median(s.window_p50_us), Median(s.window_p99_us),
               s.tail_median_us, s.aborted ? " aborted" : "");
  return s;
}

// A rung passes when every read was answered right, its p99 (median
// over windows) meets the limit, and the median latency of its last
// tenth does too, so no backlog is growing.
bool Passes(const PhaseSummary& s, double limit_us) {
  return !s.aborted && s.ok == s.scheduled && s.wrong == 0 &&
         Median(s.window_p99_us) <= limit_us && s.tail_median_us <= limit_us;
}

// The closed-loop client's operations; each returns false on a failure
// (recorded in `error`) that ends the loop.
struct Worker {
  Worker(const LoadConfig& c, PrivHPClient* cl, LoadResult* r, Tracer* t,
         int root_span)
      : cfg(c), client(cl), result(r), tracer(t), root(root_span) {}

  const LoadConfig& cfg;
  PrivHPClient* client;
  LoadResult* result;
  Tracer* tracer;
  int root;
  std::vector<Span> spans;
  // Per-operation throughput of the current phase, Mpts/s.
  std::vector<double>* sample_out = nullptr;
  std::vector<double>* ingest_out = nullptr;
  uint64_t points = 0;  // sampled + ingested, for CPU per point
  uint64_t attempted = 0, failed = 0, next_seed = 0;
  int64_t last_poll_ns = 0;
  std::string error;

  bool Sample() {
    ++attempted;
    const uint64_t seed = cfg.seed * 1000003 + ++next_seed;
    HashingSink sink;
    const int64_t t0 = NowNs();
    const privhp::Status st =
        client->Sample(cfg.artifact, kSampleM, seed, &sink);
    const int64_t t1 = NowNs();
    if (!st.ok()) return Fail(st);
    sample_out->push_back(kSampleM / Seconds(t1 - t0) / 1e6);
    points += kSampleM;
    result->sample_hashes.emplace_back(seed, sink.hash());
    if (tracer->enabled()) spans.push_back({"service.sample", t0, t1, root});
    return true;
  }

  // INGEST the dataset under \p name, then EXPORT it: every published
  // artifact must be the same bytes as the file the workload built, so
  // each read has exactly one right answer.
  bool Ingest(const std::string& name) {
    ++attempted;
    PrivHPClient::IngestSpec spec;
    spec.dim = cfg.ingest_dim;
    spec.k = cfg.ingest_k;
    spec.n = cfg.ingest_points->size();
    spec.threads = kIngestThreads;
    privhp::VectorPointSource source(cfg.ingest_points);
    const int64_t t0 = NowNs();
    auto report = client->Ingest(name, spec, &source);
    const int64_t t1 = NowNs();
    if (!report.ok()) return Fail(report.status());
    ingest_out->push_back(report->points_sent / Seconds(t1 - t0) / 1e6);
    points += report->points_sent;
    result->ingest_seconds += Seconds(t1 - t0);
    ++result->ingests;
    if (tracer->enabled()) spans.push_back({"service.ingest", t0, t1, root});
    ++attempted;
    auto blob = client->Export(name);
    if (!blob.ok()) return Fail(blob.status());
    if (HashBytes(*blob) != cfg.expected_blob_hash) ++result->blob_mismatches;
    return true;
  }

  // Samples the instantaneous STATS gauges between operations, at most
  // every 250 ms; the readers never wait behind a STATS call.
  void Poll() {
    const int64_t now = NowNs();
    if (now - last_poll_ns < 250000000) return;
    last_poll_ns = now;
    auto snap = client->Stats();
    if (!snap.ok()) return;
    result->workers_busy_max = std::max(
        result->workers_busy_max, snap->GaugeOr("server.workers_busy"));
    result->output_queue_bytes_max =
        std::max(result->output_queue_bytes_max,
                 snap->GaugeOr("server.output_queue_bytes"));
  }

  bool Fail(const privhp::Status& st) {
    ++failed;
    error = st.ToString();
    return false;
  }
};

}  // namespace

LoadConfig LoadConfigFromFlags(const Flags& flags) {
  LoadConfig cfg;
  cfg.socket = flags.Str("socket");
  cfg.seed = static_cast<uint64_t>(flags.Num("seed"));
  cfg.fixed_rate = flags.Num("rate");
  cfg.reads_seconds = flags.Num("reads-seconds");
  cfg.beside_seconds = flags.Num("beside-seconds");
  cfg.alone_seconds = flags.Num("alone-seconds");
  cfg.worker_ingest = flags.Str("worker") == "ingest";
  cfg.ingest_dim = static_cast<uint32_t>(flags.Num("dim"));
  cfg.ingest_k = static_cast<uint64_t>(flags.Num("k"));
  return cfg;
}

LoadResult RunLoad(const LoadConfig& cfg, const ServedArtifact& expected,
                   Tracer* tracer) {
  LoadResult result;
  const QueryPool pool = MakeQueries(cfg, expected);
  std::vector<PrivHPClient> readers;
  std::vector<PrivHPClient> workers;
  for (int i = 0; i <= kReaders; ++i) {
    auto c = PrivHPClient::ConnectUnix(cfg.socket);
    if (!c.ok()) {
      result.errors.push_back("connect: " + c.status().ToString());
      result.failed = result.attempted = 1;
      return result;
    }
    (i < kReaders ? readers : workers).push_back(std::move(*c));
  }
  // Readers are idle between phases, so the first one takes the STATS
  // snapshots that bracket the run.
  {
    auto snap = readers[0].Stats();
    if (snap.ok()) result.stats_before = std::move(*snap);
  }
  const int root = tracer->current();
  Worker w(cfg, &workers[0], &result, tracer, root);
  auto server_cpu = [&] {
    return cfg.server_pid > 0 ? ProcessCpuSeconds(cfg.server_pid) : 0.0;
  };
  auto keep = [&](const PhaseSummary& phase) {
    result.attempted += phase.scheduled;
    result.failed += phase.scheduled - phase.ok;
    result.wrong += phase.wrong;
    if (!phase.error.empty()) result.errors.push_back(phase.error);
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&result.fixed_latency_us, phase.latency_us);
    append(&result.client_span_us, phase.span_us);
    append(&result.late_us, phase.late_us);
  };

  // 1. Reads alone at the fixed rate.
  PhaseSummary alone =
      RunPhase(&readers, cfg, pool, 0, cfg.fixed_rate, cfg.reads_seconds,
               kFixedWindowSeconds, false, tracer, root);
  result.window_p50_us = alone.window_p50_us;
  result.window_p90_us = alone.window_p90_us;
  result.window_p99_us = alone.window_p99_us;
  keep(alone);
  if (cfg.server_pid > 0) {
    result.reads_peak_rss_mib = ProcessPeakRssMib(cfg.server_pid);
  }

  // 2. The same reads beside the closed-loop worker.
  // The worker is paced: after each operation it pauses kIdlePerBusy
  // times as long as it took, so it is busy about a quarter of the phase.
  // Saturating the machine's few cores would make the readers' latency
  // measure the scheduler, not the program.
  w.sample_out = &result.beside_sample_mpts_s;
  w.ingest_out = &result.beside_ingest_mpts_s;
  std::atomic<bool> stop_worker{false};
  std::thread worker([&] {
    while (!stop_worker.load()) {
      const int64_t t0 = NowNs();
      if (!(cfg.worker_ingest ? w.Ingest(cfg.artifact) : w.Sample())) break;
      const int64_t resume = NowNs() + kIdlePerBusy * (NowNs() - t0);
      w.Poll();
      while (!stop_worker.load() && NowNs() < resume) {
        SleepUntilNs(std::min(resume, NowNs() + 5000000));
      }
    }
  });
  PhaseSummary beside =
      RunPhase(&readers, cfg, pool, 1, cfg.fixed_rate, cfg.beside_seconds,
               kFixedWindowSeconds, false, tracer, root);
  stop_worker.store(true);
  worker.join();
  result.beside_window_p50_us = beside.window_p50_us;
  keep(beside);

  if (cfg.ladder_from > 0) {
    // The rung count is fixed by the climb, not cut by a deadline, so
    // the result's resolution does not depend on how fast the machine
    // is. A rung is retried once when it misses, so one stall of the
    // shared machine does not end the climb.
    const double cpu0 = CpuSeconds();
    const uint64_t attempted0 = result.attempted;
    uint64_t phase = 2;
    auto rung = [&](double rate) {
      bool ok = false;
      for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
        PhaseSummary step =
            RunPhase(&readers, cfg, pool, phase++, rate, kRungSeconds,
                     kRungWindowSeconds, true, tracer, root);
        ++result.ladder_steps;
        result.attempted += step.scheduled;
        // Missing the limit is the ladder's answer, not a failed
        // operation; replies that errored or were wrong are failures.
        result.failed += step.scheduled - step.ok;
        result.wrong += step.wrong;
        ok = Passes(step, kLimitUs);
        if (ok && rate >= result.best_offered_rps) {
          result.max_rps = step.measured_rps;
          result.best_offered_rps = rate;
        }
      }
      return ok;
    };
    // Bracket the limit: double while rungs pass, or halve while they
    // miss; then bisect the bracket.
    double pass = 0.0, fail = 0.0, rate = cfg.ladder_from;
    const bool first = rung(rate);
    for (int i = 0; i < kMaxDoublings; ++i) {
      (first ? pass : fail) = rate;
      rate = first ? rate * 2 : rate / 2;
      if (rung(rate) != first) {
        (first ? fail : pass) = rate;
        break;
      }
    }
    for (int i = 0; i < kBisections && pass > 0 && fail > pass; ++i) {
      const double mid = std::sqrt(pass * fail);
      (rung(mid) ? pass : fail) = mid;
    }
    result.ladder_cpu_s = CpuSeconds() - cpu0;
    result.ladder_attempted = result.attempted - attempted0;
  }

  // 3. Each kind of operation alone for alone_seconds (at least
  // kMinAlone times): SAMPLE streams, then INGESTs under another
  // name, so the artifact the readers query stays as it is.
  auto alone_ops = [&](bool ingest, std::vector<double>* out) {
    (ingest ? w.ingest_out : w.sample_out) = out;
    const uint64_t points0 = w.points;
    const double cpu_start = server_cpu();
    const int64_t end =
        NowNs() + static_cast<int64_t>(cfg.alone_seconds * 1e9);
    for (int i = 0; (i < kMinAlone || NowNs() < end) && w.error.empty();
         ++i) {
      if (!(ingest ? w.Ingest("side") : w.Sample())) break;
    }
    return static_cast<double>(w.points - points0) / 1e6 /
           (server_cpu() - cpu_start);
  };
  result.sample_mpts_per_cpu_s = alone_ops(false, &result.sample_mpts_s);
  result.ingest_mpts_per_cpu_s = alone_ops(true, &result.ingest_mpts_s);

  tracer->AddBulk(w.spans);
  result.attempted += w.attempted;
  result.failed += w.failed;
  if (!w.error.empty()) result.errors.push_back(w.error);
  {
    auto snap = readers[0].Stats();
    if (snap.ok()) result.stats_after = std::move(*snap);
  }
  return result;
}

int VerifySamples(const LoadResult& load, const ServedArtifact& expected,
                  size_t max_checks) {
  int mismatches = 0;
  for (size_t i = 0; i < load.sample_hashes.size() && i < max_checks; ++i) {
    privhp::RandomEngine rng(load.sample_hashes[i].first);
    HashingSink sink;
    const privhp::Status st = expected.GenerateTo(kSampleM, &rng, &sink);
    if (!st.ok() || sink.hash() != load.sample_hashes[i].second) ++mismatches;
  }
  return mismatches;
}

namespace {

privhp::obs::HistogramSnapshot Delta(const privhp::obs::MetricsSnapshot& a,
                                     const privhp::obs::MetricsSnapshot& b,
                                     const std::string& name) {
  const auto* now = b.FindHistogram(name);
  if (now == nullptr) return {};
  const auto* before = a.FindHistogram(name);
  return before == nullptr ? *now : now->Delta(*before);
}

}  // namespace

void AddServiceLayerMetrics(const LoadResult& load, Report* report) {
  const auto& a = load.stats_before;
  const auto& b = load.stats_after;
  auto& m = report->metrics;
  const auto queue = Delta(a, b, "server.queue_wait_ns");
  m["service.queue_wait.p50_us"] = queue.ValueAtQuantile(0.5) / 1e3;
  m["service.queue_wait.p99_us"] = queue.ValueAtQuantile(0.99) / 1e3;
  auto reads = Delta(a, b, "op.range.latency_ns");
  reads.Merge(Delta(a, b, "op.quantile.latency_ns"));
  m["service.read.server_p99_us"] = reads.ValueAtQuantile(0.99) / 1e3;
  m["service.sample.server_p99_us"] =
      Delta(a, b, "op.sample.latency_ns").ValueAtQuantile(0.99) / 1e3;
  m["service.ingest.server_p50_ms"] =
      Delta(a, b, "op.ingest.latency_ns").ValueAtQuantile(0.5) / 1e6;
  std::vector<double> spans = load.client_span_us;
  m["service.read.client_p99_us"] = Percentile(&spans, 0.99);
  // Wall-clock figures of the operations alone: reads at the fixed rate
  // timed from when each was due (median over windows), and per-operation
  // SAMPLE and INGEST throughput (median).
  m["service.read.due_p50_us"] = Median(load.window_p50_us);
  m["service.read.due_p99_us"] = Median(load.window_p99_us);
  m["service.sample.wall_mpts_s"] = Median(load.sample_mpts_s);
  m["service.ingest.wall_mpts_s"] = Median(load.ingest_mpts_s);
  m["service.workers_busy.max"] = static_cast<double>(load.workers_busy_max);
  m["service.output_queue_bytes.max"] =
      static_cast<double>(load.output_queue_bytes_max);
  m["service.ingest.upload_s"] =
      load.ingests == 0 ? 0.0 : load.ingest_seconds / load.ingests;
  auto counter_delta = [&](const std::string& name) {
    return static_cast<double>(b.CounterOr(name) - a.CounterOr(name));
  };
  m["service.errors"] = counter_delta("server.errors");
  m["service.dropped"] = counter_delta("server.connections_dropped.idle") +
                         counter_delta("server.connections_dropped.backpressure") +
                         counter_delta("server.connections_dropped.auth");
  std::vector<double> late = load.late_us;
  m["loadgen.late_p99_us"] = Percentile(&late, 0.99);
  m["loadgen.read_samples"] = static_cast<double>(load.fixed_latency_us.size());
}

}  // namespace perfbench
