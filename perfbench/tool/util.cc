#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double CpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec * 1e-6;
}

double ProcessCpuSeconds(int pid) {
  std::string stat;
  if (!ReadFile("/proc/" + std::to_string(pid) + "/stat", &stat)) return 0.0;
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  std::istringstream in(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcessPeakRssMib(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0.0;
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  rank = std::min(std::max<size_t>(rank, 1), v->size());
  return (*v)[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

double Tracer::End(int id, int64_t start_ns) {
  const int64_t end = NowNs();
  if (id >= 0) {
    spans_[id].end_ns = end;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  return Seconds(end - start_ns);
}

void Tracer::AddBulk(const std::vector<Span>& spans) {
  if (!enabled_) return;
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::map<std::string, double> Tracer::SelfTimeByLayer() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent: load
    // threads' request spans overlap one another.
    int64_t covered = 0, run_start = 0, run_end = -1;
    for (const auto& k : kids) {
      const int64_t a = std::max(k.first, s.start_ns);
      const int64_t b = std::min(k.second, s.end_ns);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += Seconds(s.end_ns - s.start_ns - covered);
  }
  return self;
}

bool Tracer::Write(const std::string& path,
                   const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"workload\": \"" << workload << "\", \"self_s_by_layer\": {";
  bool first = true;
  char buf[64];
  for (const auto& kv : SelfTimeByLayer()) {
    std::snprintf(buf, sizeof(buf), "%.6f", kv.second);
    out << (first ? "" : ", ") << '"' << kv.first << "\": " << buf;
    first = false;
  }
  out << "},\n\"span_fields\": [\"name\", \"start_us\", \"end_us\", "
         "\"parent\"],\n\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "%.3f, %.3f, %d",
                  (s.start_ns - origin) / 1e3, (s.end_ns - origin) / 1e3,
                  s.parent);
    out << "[\"" << s.name << "\", " << buf << "]"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

void Report::Print() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (check_failures.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& kv : metrics) {
    os << (first ? "" : ", ") << '"' << kv.first << "\": ";
    if (std::isfinite(kv.second)) {
      os << kv.second;
    } else {
      os << "null";
    }
    first = false;
  }
  os << "}, \"check_failures\": [";
  for (size_t i = 0; i < check_failures.size(); ++i) {
    os << (i ? ", " : "") << Quoted(check_failures[i]);
  }
  os << "], \"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i) {
    os << (i ? ", " : "") << Quoted(notes[i]);
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) == 0) values_[argv[i] + 2] = argv[i + 1];
  }
}

namespace {

const std::string& Required(const std::map<std::string, std::string>& values,
                            const std::string& key) {
  auto it = values.find(key);
  if (it == values.end()) {
    std::fprintf(stderr, "perfbench_tool: missing --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

}  // namespace

std::string Flags::Str(const std::string& key) const {
  return Required(values_, key);
}

double Flags::Num(const std::string& key) const {
  return std::atof(Required(values_, key).c_str());
}

void HashingSink::Mix(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (bits >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ull;
  }
}

privhp::Status HashingSink::Add(const privhp::Point& x) {
  for (double v : x) Mix(v);
  ++count_;
  return privhp::Status::OK();
}

privhp::Status HashingSink::AddAll(const privhp::PointBatch& batch) {
  const size_t n = batch.size();
  const int dim = batch.dim();
  for (size_t i = 0; i < n; ++i) {
    const double* row = batch.row(i);
    for (int d = 0; d < dim; ++d) Mix(row[d]);
  }
  count_ += n;
  return privhp::Status::OK();
}

uint64_t HashBytes(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return static_cast<bool>(in) || in.eof();
}

}  // namespace perfbench
