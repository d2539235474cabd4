// perfbench_tool — the compiled half of the benchmark (perfbench/run.py
// drives it; run that, not this).
//
//   perfbench_tool gen   --dim D --n N --seed S --out data.csv
//       Seeded skewed dataset; prints its size and the exact W1 between
//       its coordinate-0 marginal and the uniform distribution.
//   perfbench_tool w1    --a input.csv --b synthetic.csv --dim D
//       Exact 1-d W1 of the coordinate-0 marginals and both row counts
//       (eval is used for checks only).
//   perfbench_tool serve --privhp PATH --socket S --file ARTIFACT ...
//       Launches `privhp serve` as a subprocess, times launch -> first
//       PING reply, loads it through PrivHPClient, checks every reply and
//       reports the serve stage's end-to-end metrics.
//   perfbench_tool trace --workload W ...
//       The in-process traced run: times calls into each module's public
//       functions and reports the per-layer metrics.
//
// Every subcommand prints one JSON object as its last stdout line.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "eval/wasserstein.h"
#include "io/point_stream.h"
#include "service/client.h"
#include "storage/paged_artifact.h"

namespace perfbench {
namespace {

// --- gen -------------------------------------------------------------
// 1-d: three quarters of the mass on a cube-skewed ramp near 0, a quarter
// in a narrow hot spot; d > 1: two Gaussian clusters. The shape is fixed;
// the seed only draws the sample.
int Gen(const Flags& flags) {
  const int dim = static_cast<int>(flags.Num("dim"));
  const uint64_t n = static_cast<uint64_t>(flags.Num("n"));
  const std::string out = flags.Str("out");
  std::mt19937_64 rng(static_cast<uint64_t>(flags.Num("seed")));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  // Values are rounded to the 9 decimals written, so the CSV is exact.
  auto clamp = [](double v) {
    v = std::min(std::max(v, 0.0), 0.999999999);
    return std::round(v * 1e9) / 1e9;
  };
  std::vector<double> first;  // coordinate 0, for the W1 reference
  first.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (dim == 1) {
      const double u = unit(rng);
      const double x = clamp(unit(rng) < 0.75 ? u * u * u
                                               : 0.7 + 0.02 * normal(rng));
      first.push_back(x);
      std::fprintf(f, "%.9f\n", x);
      continue;
    }
    const bool a = unit(rng) < 0.6;
    for (int d = 0; d < dim; ++d) {
      const double x = clamp(a ? 0.3 + 0.08 * normal(rng)
                               : 0.65 + 0.05 * d + 0.04 * normal(rng));
      if (d == 0) first.push_back(x);
      std::fprintf(f, d + 1 < dim ? "%.9f," : "%.9f\n", x);
    }
  }
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  // Exact W1 between coordinate 0's empirical distribution and U[0,1]:
  // the sum over i of the integral over [i/n, (i+1)/n] of |x_(i) - u| du.
  std::sort(first.begin(), first.end());
  double w1 = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(i) / n;
    const double b = static_cast<double>(i + 1) / n;
    const double c = first[i];
    w1 += ((c - a) * std::fabs(c - a) - (c - b) * std::fabs(c - b)) / 2;
  }
  Report report;
  report.attempted = 1;
  report.metrics["n"] = static_cast<double>(n);
  report.metrics["w1_uniform"] = w1;
  report.Print();
  return 0;
}

// --- w1 --------------------------------------------------------------
// Exact 1-d W1 between the coordinate-0 marginals of two CSVs.
int W1(const Flags& flags) {
  Report report;
  report.attempted = 1;
  const int dim = static_cast<int>(flags.Num("dim"));
  auto a = privhp::ReadPointsCsv(flags.Str("a"), dim);
  auto b = privhp::ReadPointsCsv(flags.Str("b"), dim);
  if (!a.ok() || !b.ok()) {
    report.failed = 1;
    report.Check(false, (!a.ok() ? a.status() : b.status()).ToString());
    report.Print();
    return 1;
  }
  auto marginal = [](std::vector<privhp::Point>* points) {
    for (privhp::Point& p : *points) p.resize(1);
  };
  marginal(&*a);
  marginal(&*b);
  report.metrics["rows_a"] = static_cast<double>(a->size());
  report.metrics["rows_b"] = static_cast<double>(b->size());
  report.metrics["w1"] = privhp::Wasserstein1DPoints(*a, *b);
  report.Print();
  return 0;
}

// --- serve -----------------------------------------------------------
pid_t Spawn(const std::vector<std::string>& args, const std::string& log) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    // The server must not outlive this tool, whatever ends it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
      close(fd);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

// Kills the server and reaps it; returns its peak RSS in MiB. SIGKILL,
// not SIGINT: nothing here needs a clean shutdown, and `privhp serve` at
// times took more than 20 s to exit after SIGINT.
double StopChild(pid_t pid) {
  kill(pid, SIGKILL);
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  int status = 0;
  wait4(pid, &status, 0, &ru);
  return ru.ru_maxrss / 1024.0;
}

// Polls connect + PING until the server answers; seconds since \p t0,
// or a negative value when it never answers or exits first.
double WaitForPing(pid_t pid, const std::string& socket, int64_t t0) {
  const int64_t deadline = t0 + 60LL * 1000000000;
  while (NowNs() < deadline) {
    auto client = privhp::PrivHPClient::ConnectUnix(socket);
    if (client.ok() && client->Ping().ok()) return Seconds(NowNs() - t0);
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) return -1.0;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return -1.0;
}

int Serve(const Flags& flags) {
  Report report;
  const std::string privhp_bin = flags.Str("privhp");
  const std::string file = flags.Str("file");
  const std::string tree = flags.Str("tree");
  const std::string log = flags.Str("log");
  const int dim = static_cast<int>(flags.Num("dim"));
  LoadConfig cfg = LoadConfigFromFlags(flags);

  // The answers every reply must equal, computed in process from the
  // same file the server loads.
  auto expected = privhp::storage::PagedArtifact::SniffPagedFile(file)
                      ? privhp::ServedArtifact::FromPagedFile(file, {})
                      : privhp::ServedArtifact::FromFile(file);
  auto points = privhp::ReadPointsCsv(flags.Str("input"), dim);
  std::string blob;
  if (!expected.ok() || !points.ok() || !ReadFile(tree, &blob)) {
    std::fprintf(stderr, "cannot load %s, %s or the input dataset\n",
                 file.c_str(), tree.c_str());
    return 1;
  }
  cfg.ingest_points = &*points;
  cfg.expected_blob_hash = HashBytes(blob);

  std::vector<std::string> args = {privhp_bin, "serve", "--unix", cfg.socket,
                                   "--load", cfg.artifact + "=" + file};
  if (flags.Has("budget-mb")) {
    args.push_back("--memory-budget-mb");
    args.push_back(flags.Str("budget-mb"));
  }
  // Set-up: launch to first PING reply, several times; the last launch
  // stays up for the load.
  std::vector<double> setup;
  std::vector<double> setup_rss;
  pid_t pid = -1;
  for (int r = 0; r < kSetupReps; ++r) {
    unlink(cfg.socket.c_str());
    const int64_t t0 = NowNs();
    pid = Spawn(args, log);
    const double s = WaitForPing(pid, cfg.socket, t0);
    ++report.attempted;
    if (s < 0) {
      ++report.failed;
      report.Check(false, "privhp serve did not answer PING");
      StopChild(pid);
      report.Print();
      return 1;
    }
    setup.push_back(s);
    if (r + 1 < kSetupReps) setup_rss.push_back(StopChild(pid));
  }

  Tracer tracer(false);
  cfg.server_pid = pid;
  LoadResult load = RunLoad(cfg, **expected, &tracer);
  const double rss = StopChild(pid);
  unlink(cfg.socket.c_str());

  report.attempted += load.attempted;
  report.failed += load.failed;
  for (const std::string& e : load.errors) report.notes.push_back(e);
  report.Check(load.wrong == 0, "a read reply differs from the in-process answer");
  report.Check(!load.sample_hashes.empty(), "no SAMPLE stream completed");
  report.Check(VerifySamples(load, **expected, 8) == 0,
               "a served SAMPLE differs from a local GenerateTo");
  report.Check(load.ingests > 0, "no INGEST completed");
  report.Check(load.blob_mismatches == 0,
               "a published INGEST differs from the built artifact");
  std::vector<double> lat = load.fixed_latency_us;
  report.metrics["setup_s"] = Median(setup);
  // Costs in server CPU time, which the host's steal time does not
  // inflate: points of SAMPLE and of INGEST (with its EXPORT check), each
  // alone, per second of server CPU time.
  report.metrics["serve_sample_mpts_per_cpu_s"] = load.sample_mpts_per_cpu_s;
  report.metrics["ingest_mpts_per_cpu_s"] = load.ingest_mpts_per_cpu_s;
  // Peak RSS while loading and serving the reads alone; the whole stage's
  // peak, INGEST builders included, is printed beside it.
  report.metrics["serve_peak_rss_mib"] = load.reads_peak_rss_mib;
  report.metrics["info.serve_stage_peak_rss_mib"] = rss;
  // Wall-clock figures, printed but not gated: the host's steal time
  // moves them far more than any bound. Latency percentiles are the
  // median over the phase's windows; throughputs the median over
  // operations.
  report.metrics["info.read_p50_us"] = Median(load.window_p50_us);
  report.metrics["info.read_p90_us"] = Median(load.window_p90_us);
  report.metrics["info.read_p99_us"] = Median(load.window_p99_us);
  report.metrics["info.serve_sample_mpts_s"] = Median(load.sample_mpts_s);
  report.metrics["info.ingest_mpts_s"] = Median(load.ingest_mpts_s);
  report.metrics["info.beside.read_p50_us"] = Median(load.beside_window_p50_us);
  report.metrics["info.beside.serve_sample_mpts_s"] =
      Median(load.beside_sample_mpts_s);
  report.metrics["info.beside.ingest_mpts_s"] =
      Median(load.beside_ingest_mpts_s);
  // Server-side failures the client may not see: errors and dropped
  // connections reported by STATS.
  Report service;
  AddServiceLayerMetrics(load, &service);
  const uint64_t server_failed = static_cast<uint64_t>(
      service.metrics["service.errors"] + service.metrics["service.dropped"]);
  report.failed = std::max<uint64_t>(report.failed, server_failed);
  // Side numbers for the log (not gated): sample counts and peaks.
  report.metrics["info.read_samples"] = static_cast<double>(lat.size());
  report.metrics["info.setup_launches_peak_rss_mib"] =
      setup_rss.empty() ? rss
                        : *std::max_element(setup_rss.begin(), setup_rss.end());
  report.metrics["info.ingests"] = static_cast<double>(load.ingests);
  report.metrics["info.samples"] = static_cast<double>(load.sample_hashes.size());
  report.metrics["info.late_p99_us"] = service.metrics["loadgen.late_p99_us"];
  report.metrics["info.service_errors"] = service.metrics["service.errors"];
  report.metrics["info.service_dropped"] = service.metrics["service.dropped"];
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool gen|w1|serve|trace --flag value ...\n");
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  const std::string cmd = argv[1];
  const Flags flags(argc, argv, 2);
  if (cmd == "gen") return Gen(flags);
  if (cmd == "w1") return W1(flags);
  if (cmd == "serve") return Serve(flags);
  if (cmd == "trace") return RunTrace(flags);
  std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  return 2;
}
