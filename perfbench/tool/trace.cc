// The in-process traced run: the workload's sequence, with each call into
// a module's public functions timed under a span named after the module.
// The sequence runs three times, with spans off, on and off; the process
// CPU time of the passes gives the tracing overhead, and the metrics come
// from the traced pass.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "core/builder.h"
#include "core/generator.h"
#include "core/shard.h"
#include "domain/hypercube_domain.h"
#include "eval/wasserstein.h"
#include "io/point_stream.h"
#include "service/server.h"
#include "sketch/count_min_sketch.h"
#include "sketch/private_sketch.h"
#include "storage/artifact_packer.h"

namespace perfbench {
namespace {

using privhp::Point;
using privhp::PrivHPBuilder;
using privhp::PrivHPGenerator;
using privhp::PrivHPOptions;

// Every per-layer metric the traced run reports. A metric the pass did
// not produce reads 0 and is listed on stdout as unreachable.
const char* const kLayerMetrics[] = {
    "io.csv_read_all.mpts_s", "io.csv_read_stream.mpts_s",
    "io.csv_write.mpts_s", "domain.locate.mpts_s", "sketch.update.mpts_s",
    "core.add.busy_s", "core.finish.busy_s", "core.parallel.busy_s",
    "core.merge.busy_s", "core.builder_bytes",
    "core.builder_bytes_over_bound", "dp.privatize.busy_s",
    "hierarchy.load.busy_s", "hierarchy.sample.mpts_s",
    "storage.save.busy_s", "storage.pack.busy_s", "storage.open.busy_s",
    "storage.pool.hit_ratio", "storage.pool.misses",
    "storage.pool.evictions", "service.queue_wait.p50_us",
    "service.queue_wait.p99_us", "service.read.server_p99_us",
    "service.sample.server_p99_us", "service.ingest.server_p50_ms",
    "service.read.client_p99_us", "service.workers_busy.max",
    "service.output_queue_bytes.max", "service.read.max_rps",
    "service.ingest.upload_s", "service.read.due_p50_us",
    "service.read.due_p99_us", "service.sample.wall_mpts_s", "service.ingest.wall_mpts_s",
    "service.errors", "service.dropped", "loadgen.late_p99_us",
    "loadgen.read_samples", "trace.overhead_pct", "eval.w1"};

class CountingSink : public privhp::PointSink {
 public:
  privhp::Status Add(const Point&) override {
    ++count_;
    return privhp::Status::OK();
  }
  privhp::Status AddAll(const privhp::PointBatch& batch) override {
    count_ += batch.size();
    return privhp::Status::OK();
  }
  using privhp::PointSink::AddAll;
  uint64_t num_processed() const override { return count_; }

 private:
  uint64_t count_ = 0;
};

double Mpts(size_t n, double seconds) {
  return seconds > 0 ? static_cast<double>(n) / seconds / 1e6 : 0.0;
}

// The build layers on \p points, each called through its public entry
// point: locate + sketch on the plan's shape, privatize, the streaming
// builder (add, finish), the sharded build and a shard merge.
privhp::Result<PrivHPGenerator> TraceBuildLayers(
    const privhp::Domain& domain, const PrivHPOptions& options,
    const std::vector<Point>& points, int threads, Tracer* tracer,
    Report* report) {
  auto& m = report->metrics;
  const size_t n = points.size();
  PRIVHP_ASSIGN_OR_RETURN(PrivHPBuilder builder,
                          PrivHPBuilder::Make(&domain, options));
  const privhp::ResolvedPlan plan = builder.plan();

  privhp::PointBatch all(domain.dimension());
  all.AppendPoints(points);
  std::vector<privhp::CountMinSketch> sketches;
  for (int l = plan.l_star + 1; l <= plan.l_max; ++l) {
    sketches.emplace_back(plan.sketch_width, plan.sketch_depth,
                          privhp::SketchHashSeed(plan.seed, l));
  }
  constexpr size_t kChunk = 4096;
  std::vector<uint64_t> keys((plan.l_max + 1) * kChunk);
  double locate_s = 0.0, update_s = 0.0;
  for (size_t i = 0; i < n; i += kChunk) {
    const size_t c = std::min(kChunk, n - i);
    {
      Scope s(tracer, "domain.locate");
      domain.LocatePathBatch(all.row(i), all.dim(), c, plan.l_max,
                             keys.data());
      locate_s += s.Stop();
    }
    Scope s(tracer, "sketch.update");
    for (size_t j = 0; j < sketches.size(); ++j) {
      const int level = plan.l_star + 1 + static_cast<int>(j);
      sketches[j].UpdateBatch(keys.data() + level * c, c, 1.0);
    }
    update_s += s.Stop();
  }
  m["domain.locate.mpts_s"] = Mpts(n, locate_s);
  // A plan whose every level is counted exactly has no sketch to update;
  // the metric is then left out and named unreachable.
  if (!sketches.empty()) m["sketch.update.mpts_s"] = Mpts(n, update_s);
  {
    privhp::RandomEngine rng(plan.seed);
    Scope s(tracer, "dp.privatize");
    for (size_t j = 0; j < sketches.size(); ++j) {
      const size_t level = plan.l_star + 1 + j;
      const double sigma = level < plan.budget.size()
                               ? plan.budget.sigma[level]
                               : plan.epsilon;
      auto released = privhp::PrivateCountMinSketch::Privatize(
          std::move(sketches[j]), sigma, &rng);
      PRIVHP_RETURN_NOT_OK(released.status());
    }
    m["dp.privatize.busy_s"] = s.Stop();
  }
  {
    Scope s(tracer, "core.add");
    PRIVHP_RETURN_NOT_OK(builder.AddAll(points));
    m["core.add.busy_s"] = s.Stop();
  }
  m["core.builder_bytes"] = static_cast<double>(builder.MemoryBytes());
  m["core.builder_bytes_over_bound"] =
      static_cast<double>(builder.MemoryBytes()) /
      (8.0 * static_cast<double>(plan.theory_memory_words));
  privhp::Result<PrivHPGenerator> generator = privhp::Status::OK();
  {
    Scope s(tracer, "core.finish");
    generator = std::move(builder).Finish();
    m["core.finish.busy_s"] = s.Stop();
  }
  PRIVHP_RETURN_NOT_OK(generator.status());
  {
    Scope s(tracer, "core.parallel");
    auto parallel =
        PrivHPBuilder::BuildParallel(&domain, options, points, threads);
    m["core.parallel.busy_s"] = s.Stop();
    PRIVHP_RETURN_NOT_OK(parallel.status());
    report->Check(parallel->tree().num_nodes() == generator->tree().num_nodes() &&
                      parallel->TotalMass() == generator->TotalMass(),
                  "BuildParallel differs from the streaming build");
  }
  {
    PRIVHP_ASSIGN_OR_RETURN(PrivHPBuilder sharded,
                            PrivHPBuilder::Make(&domain, options));
    std::vector<privhp::PrivHPShard> shards;
    for (int t = 0; t < threads; ++t) {
      PRIVHP_ASSIGN_OR_RETURN(privhp::PrivHPShard shard, sharded.NewShard());
      PRIVHP_RETURN_NOT_OK(
          shard.AddRange(points, n * t / threads, n * (t + 1) / threads));
      shards.push_back(std::move(shard));
    }
    Scope s(tracer, "core.merge");
    for (int t = 1; t < threads; ++t) {
      PRIVHP_RETURN_NOT_OK(shards[0].Merge(std::move(shards[t])));
    }
    m["core.merge.busy_s"] = s.Stop();
    report->Check(shards[0].num_processed() == n, "merged shard lost points");
  }
  return generator;
}

// The workload's whole path in process: CSV in, build, save, pack, load,
// sample, CSV out; then the serve stage against an in-process server (so
// its buffer pool is read directly), driven by the end-to-end run's
// client code: its fixed-rate phase, then the rate ladder that gives
// service.read.max_rps.
privhp::Status RunPipeline(const Flags& flags, Tracer* tracer,
                           Report* report) {
  auto& m = report->metrics;
  const std::string input = flags.Str("input");
  const std::string dir = flags.Str("dir");
  const std::string serve_mode = flags.Str("serve");
  const int dim = static_cast<int>(flags.Num("dim"));
  const int threads = static_cast<int>(flags.Num("threads"));
  privhp::HypercubeDomain domain(dim);
  PrivHPOptions options;
  options.epsilon = 1.0;
  options.k = static_cast<uint64_t>(flags.Num("k"));

  std::vector<Point> points;
  {
    Scope s(tracer, "io.csv_read_all");
    PRIVHP_ASSIGN_OR_RETURN(points, privhp::ReadPointsCsv(input, dim));
    m["io.csv_read_all.mpts_s"] = Mpts(points.size(), s.Stop());
  }
  const size_t n = points.size();
  options.expected_n = n;
  {
    Scope s(tracer, "io.csv_read_stream");
    PRIVHP_ASSIGN_OR_RETURN(privhp::CsvPointReader reader,
                            privhp::CsvPointReader::Open(input, dim));
    privhp::PointBatch batch(dim);
    size_t streamed = 0;
    for (;;) {
      batch.Clear();
      PRIVHP_ASSIGN_OR_RETURN(size_t got, reader.NextBatch(65536, &batch));
      if (got == 0) break;
      streamed += got;
    }
    m["io.csv_read_stream.mpts_s"] = Mpts(streamed, s.Stop());
    report->Check(streamed == n, "streamed CSV read count differs");
  }
  PRIVHP_ASSIGN_OR_RETURN(
      PrivHPGenerator generator,
      TraceBuildLayers(domain, options, points, threads, tracer, report));

  const std::string tree = dir + "/trace.tree";
  const std::string paged = dir + "/trace.phx";
  {
    Scope s(tracer, "storage.save");
    PRIVHP_RETURN_NOT_OK(generator.Save(tree));
    m["storage.save.busy_s"] = s.Stop();
  }
  {
    Scope s(tracer, "storage.pack");
    PRIVHP_RETURN_NOT_OK(privhp::storage::PackTreeFile(tree, paged));
    m["storage.pack.busy_s"] = s.Stop();
  }
  privhp::Result<PrivHPGenerator> loaded = privhp::Status::OK();
  {
    Scope s(tracer, "hierarchy.load");
    loaded = PrivHPGenerator::Load(&domain, tree);
    m["hierarchy.load.busy_s"] = s.Stop();
  }
  PRIVHP_RETURN_NOT_OK(loaded.status());
  // The paged file opens the way the workload serves it: mmapped, or
  // through the buffer pool when it exceeds the memory budget.
  std::shared_ptr<const privhp::ServedArtifact> served;
  {
    privhp::storage::PagedReadOptions read;
    read.use_buffer_pool = serve_mode == "pool";
    read.pool_bytes = privhp::RegistryOptions().pool_bytes_per_artifact;
    Scope s(tracer, "storage.open");
    PRIVHP_ASSIGN_OR_RETURN(served,
                            privhp::ServedArtifact::FromPagedFile(paged, read));
    m["storage.open.busy_s"] = s.Stop();
  }
  {
    privhp::RandomEngine rng(1);
    CountingSink sink;
    Scope s(tracer, "hierarchy.sample");
    PRIVHP_RETURN_NOT_OK(loaded->GenerateTo(n, &rng, &sink));
    m["hierarchy.sample.mpts_s"] = Mpts(n, s.Stop());
    report->Check(sink.num_processed() == n, "GenerateTo count differs");
  }
  {
    privhp::RandomEngine rng(1);
    privhp::PointBatch batch;
    PRIVHP_RETURN_NOT_OK(loaded->GenerateBatch(n, &rng, &batch));
    Scope s(tracer, "io.csv_write");
    PRIVHP_ASSIGN_OR_RETURN(privhp::CsvPointWriter writer,
                            privhp::CsvPointWriter::Open(dir + "/trace.csv"));
    PRIVHP_RETURN_NOT_OK(writer.AddAll(batch));
    PRIVHP_RETURN_NOT_OK(writer.Close());
    m["io.csv_write.mpts_s"] = Mpts(n, s.Stop());
    s.Stop();
    // Utility of the release: exact W1 of the coordinate-0 marginals.
    std::vector<Point> input(n), synthetic(n);
    for (size_t i = 0; i < n; ++i) {
      input[i] = {points[i][0]};
      synthetic[i] = {batch.row(i)[0]};
    }
    m["eval.w1"] = privhp::Wasserstein1DPoints(input, synthetic);
  }
  report->attempted += 1;

  // Serve stage.
  if (serve_mode == "heap") {
    PRIVHP_ASSIGN_OR_RETURN(served, privhp::ServedArtifact::FromFile(tree));
  }
  std::string blob;
  if (!ReadFile(tree, &blob)) return privhp::Status::IOError("read " + tree);
  LoadConfig cfg = LoadConfigFromFlags(flags);
  cfg.ladder_from = cfg.fixed_rate;
  cfg.ingest_points = &points;
  cfg.expected_blob_hash = HashBytes(blob);
  // Expected answers come from a separate mmap-mode open of the file.
  PRIVHP_ASSIGN_OR_RETURN(auto expected,
                          privhp::ServedArtifact::FromPagedFile(paged, {}));

  privhp::ArtifactRegistry registry;
  PRIVHP_RETURN_NOT_OK(registry.Publish(cfg.artifact, served));
  privhp::ServerOptions server_options;
  server_options.unix_path = cfg.socket;
  unlink(cfg.socket.c_str());
  PRIVHP_ASSIGN_OR_RETURN(
      auto server, privhp::PrivHPServer::Start(&registry, server_options));
  const privhp::storage::BufferPool* pool = served->buffer_pool();
  using PoolStats = privhp::storage::BufferPool::Stats;
  const PoolStats pool_before = pool ? pool->stats() : PoolStats{};
  LoadResult load;
  {
    Scope s(tracer, "service.load");
    load = RunLoad(cfg, *expected, tracer);
  }
  const PoolStats pool_after = pool ? pool->stats() : PoolStats{};
  server->Stop();
  unlink(cfg.socket.c_str());

  report->attempted += load.attempted;
  report->failed += load.failed;
  for (const std::string& e : load.errors) report->notes.push_back(e);
  report->Check(load.wrong == 0,
                "a read reply differs from the in-process answer");
  report->Check(load.blob_mismatches == 0,
                "a published INGEST differs from the built artifact");
  report->Check(VerifySamples(load, *expected, 4) == 0,
                "a served SAMPLE differs from a local GenerateTo");
  AddServiceLayerMetrics(load, report);
  // Unresolved, not the last rung that happened to pass.
  report->Check(load.max_rps > 0,
                "service.read.max_rps unresolved: no ladder rung met the limit");
  m["service.read.max_rps"] = load.max_rps;
  m["info.ladder_cpu_s"] = load.ladder_cpu_s;
  m["info.ladder_ops"] = static_cast<double>(load.ladder_attempted);
  const double hits = static_cast<double>(pool_after.hits - pool_before.hits);
  const double misses =
      static_cast<double>(pool_after.misses - pool_before.misses);
  m["storage.pool.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m["storage.pool.misses"] = misses;
  m["storage.pool.evictions"] =
      static_cast<double>(pool_after.evictions - pool_before.evictions);
  return privhp::Status::OK();
}

privhp::Status RunPass(const std::string& workload, const Flags& flags,
                       Tracer* tracer, Report* report) {
  const std::string root_name = "bench." + workload;
  Scope root(tracer, root_name.c_str());
  return RunPipeline(flags, tracer, report);
}

}  // namespace

int RunTrace(const Flags& flags) {
  const std::string workload = flags.Str("workload");
  // Spans off, on, off: the untraced passes on both sides of the traced
  // one cancel most of the warm-up a single ordering would credit to it.
  // Overhead is CPU seconds per attempted operation, so a pass that
  // happened to run more load does not read as overhead. The ladder's
  // operations and CPU time are left out: how many rungs it climbs
  // depends on the machine, not on tracing.
  Tracer on(true);
  Report report;
  double off_per_op = 0.0, on_per_op = 0.0;
  privhp::Status st = privhp::Status::OK();
  for (int pass = 0; pass < 3 && st.ok(); ++pass) {
    Tracer off(false);
    Report untraced;
    const bool traced = pass == 1;
    const double cpu0 = CpuSeconds();
    st = RunPass(workload, flags, traced ? &on : &off,
                 traced ? &report : &untraced);
    const Report& r = traced ? report : untraced;
    auto info = [&r](const char* key) {
      auto it = r.metrics.find(key);
      return it == r.metrics.end() ? 0.0 : it->second;
    };
    const double per_op =
        (CpuSeconds() - cpu0 - info("info.ladder_cpu_s")) /
        std::max(static_cast<double>(r.attempted) - info("info.ladder_ops"),
                 1.0);
    if (traced) {
      on_per_op = per_op;
    } else {
      off_per_op += per_op / 2;
      report.Check(untraced.check_failures.empty(),
                   "an untraced pass failed a check");
    }
  }
  if (!st.ok()) {
    report.failed += 1;
    report.attempted = std::max<uint64_t>(report.attempted, 1);
    report.Check(false, st.ToString());
  }
  report.metrics["trace.overhead_pct"] = 100.0 * (on_per_op / off_per_op - 1.0);
  std::string not_run;
  for (const char* name : kLayerMetrics) {
    if (!report.metrics.count(name)) {
      report.metrics[name] = 0.0;
      not_run += std::string(not_run.empty() ? "" : " ") + name;
    }
  }
  // Every metric above is reached through a public function; one that a
  // later change makes unreachable is named here rather than dropped.
  report.notes.push_back("unreachable per-layer metrics: " +
                         (not_run.empty() ? std::string("none") : not_run));
  report.notes.push_back("spans recorded: " + std::to_string(on.size()));
  for (const auto& kv : on.SelfTimeByLayer()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "self time %s %.4f s", kv.first.c_str(),
                  kv.second);
    report.notes.push_back(buf);
  }
  const std::string out = flags.Str("trace-out");
  if (!out.empty() && !on.Write(out, workload)) {
    report.Check(false, "cannot write " + out);
  }
  report.Print();
  return 0;
}

}  // namespace perfbench
