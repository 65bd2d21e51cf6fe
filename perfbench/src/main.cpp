// The repository benchmark driver. One invocation runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--commit <id>]
//
// --trace 0 runs the user-facing service (RunKvService or
// RunLockdWorkload) untraced, in repetitions until --seconds is used, and
// reports the end-to-end metrics as medians over repetitions. --trace 1
// runs the layer ladder plus the workload's traced client loop and
// reports the per-layer metrics. Every run is also a correctness check:
// any violated verdict, audit, kill budget or input property makes the
// run print its failures on stderr and exit 1 without a result line.
//
// The last stdout line is the result object
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// and the line before it is the host/build context of the run.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

// Zipf-hot, uniform-wide and kills run the striped KV service; churn runs
// rme-lockd. BENCHMARK.json lists only kv-zipf-hot and lockd-churn:
// kv-uniform-wide does not repeat on a shared host, and kv-kills exposes
// service defects. Both stay runnable by name. Reasons and the
// layer->metric map: perfbench/README.md.
const Workload kWorkloads[] = {
    {"kv-zipf-hot", false, 64, 0.99, 16, false, 100'000, 200'000},
    {"kv-uniform-wide", false, 4096, 0.0, 1, false, 200'000, 100'000},
    {"kv-kills", false, 64, 0.99, 1, true, 50'000, 25'000},
    {"lockd-churn", true, 0, 0.0, 1, false, 30'000, 75'000},
};

const char* const kEndToEnd[][2] = {
    {"ops_per_s", "1/s"},         {"passage_p50_us", "us"},
    {"passage_p99_us", "us"},     {"setup_s", "s"},
    {"segment_mb", "MB"},         {"peak_rss_mb", "MB"},
    {"cpu_us_per_op", "us"},      {"completed_op_share", "share"},
};

const char* const kPerLayer[][2] = {
    {"rmr.atomic_native_ns", "ns"},
    {"rmr.atomic_instr_ns", "ns"},
    {"rmr.ops_per_op", "count"},
    {"rmr.cc_per_op", "count"},
    {"rmr.dsm_per_op", "count"},
    {"core.enter_ns.p50", "ns"},
    {"core.enter_ns.p99", "ns"},
    {"core.exit_ns.p50", "ns"},
    {"core.exit_ns.p99", "ns"},
    {"core.recover_ns.p50", "ns"},
    {"core.recover_ns.p99", "ns"},
    {"core.enter_cc", "count"},
    {"core.exit_cc", "count"},
    {"core.recover_cc", "count"},
    {"core.ba_depth_mean", "count"},
    {"core.ba_depth_max", "count"},
    {"locks.mcs.passage_ns", "ns"},
    {"locks.mcs.passage_cc", "count"},
    {"locks.wr.passage_ns", "ns"},
    {"locks.wr.passage_cc", "count"},
    {"locks.kport-tree.passage_ns", "ns"},
    {"locks.kport-tree.passage_cc", "count"},
    {"locks.sa.passage_ns", "ns"},
    {"locks.sa.passage_cc", "count"},
    {"locks.ba.passage_ns", "ns"},
    {"locks.ba.passage_cc", "count"},
    {"kv_service.passages_per_op", "count"},
    {"kv_service.batched_passage_share", "share"},
    {"striped_table.create_s", "s"},
    {"striped_table.bytes_per_stripe", "bytes"},
    {"striped_table.lookup_ns", "ns"},
    {"striped_table.hot_stripe_share", "share"},
    {"shm.minor_faults_setup", "count"},
    {"shm.minor_faults_per_op", "count"},
    {"crash.kills", "count"},
    {"crash.storm_kills", "count"},
    {"crash.crash_notes", "count"},
    {"crash.max_attempts_per_passage", "count"},
    {"crash.max_incarnations", "count"},
    {"crash.recover_after_crash_ns.p50", "ns"},
    {"crash.ba_depth_max", "count"},
    {"lockd.lease_ns.p50", "ns"},
    {"lockd.lease_ns.p99", "ns"},
    {"lockd.lookup_ns.p50", "ns"},
    {"lockd.passage_ns.p50", "ns"},
    {"lockd.passage_ns.p99", "ns"},
    {"lockd.lease_grants", "count"},
    {"trace.ops_per_s", "1/s"},
    {"trace.untraced_ops_per_s", "1/s"},
    {"trace.self_time_share", "share"},
    {"self.op_ns_per_op", "ns"},
    {"self.gen.draw_ns_per_op", "ns"},
    {"self.striped_table.lookup_ns_per_op", "ns"},
    {"self.core.recover_ns_per_op", "ns"},
    {"self.core.enter_ns_per_op", "ns"},
    {"self.kv.cs_ns_per_op", "ns"},
    {"self.core.exit_ns_per_op", "ns"},
    {"self.lockd.acquire_lease_ns_per_op", "ns"},
    {"self.lockd.release_lease_ns_per_op", "ns"},
    {"self.lockd.lookup_ns_per_op", "ns"},
    {"self.lockd.passage_ns_per_op", "ns"},
};

[[noreturn]] void PrintUsage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) PrintUsage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') PrintUsage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0) ||
          a.seconds > 600) {
        PrintUsage("bad --seconds");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") PrintUsage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      PrintUsage(("unknown flag " + k).c_str());
    }
  }
  if (FindWorkload(a.workload) == nullptr) PrintUsage("unknown --workload");
  return a;
}

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string ContextJson(const Args& a) {
  char host[256] = {};
  ::gethostname(host, sizeof host - 1);
  std::ostringstream o;
  o << "{\"hostname\": " << JsonString(host) << ", \"nproc\": " << NumCpus()
    << ", \"cpu_model\": " << JsonString(ReadCpuModel())
    << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
    << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
    << ", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
    << ", \"commit\": " << JsonString(a.commit)
    << ", \"workload\": " << JsonString(a.workload) << ", \"seed\": " << a.seed
    << ", \"seconds\": " << a.seconds << ", \"trace\": " << (a.trace ? 1 : 0)
    << "}";
  return o.str();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string EntriesJson(const std::vector<Report::Entry>& es) {
  std::string out = "{";
  for (size_t i = 0; i < es.size(); ++i) {
    out += (i ? ", " : "") + JsonString(es[i].name) + ": {\"value\": " +
           Num(es[i].value) + ", \"unit\": " + JsonString(es[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const Workload& w = *FindWorkload(a.workload);
  const std::vector<std::string> shm_before = DevShmNames();

  Report r;
  if (!a.trace) {
    if (w.lockd) {
      RunLockdUntraced(w, a, r);
    } else {
      RunKvUntraced(w, a, r);
    }
  } else {
    RunLadder(r);
    if (w.lockd) {
      RunLockdTraced(w, a, r);
    } else {
      RunKvTraced(w, a, r);
    }
  }

  const std::vector<std::string> shm_after = DevShmNames();
  for (const std::string& n : shm_after) {
    if (n.rfind("perfbench-", 0) == 0 &&
        std::find(shm_before.begin(), shm_before.end(), n) ==
        shm_before.end()) {
      r.Fail("leftover /dev/shm name: " + n);
    }
  }

  // The metric set is fixed per mode (BENCHMARK.json lists it). A traced
  // metric of a layer this workload never reaches reads 0.
  std::vector<Report::Entry> out;
  std::set<std::string> known;
  auto take = [&](const char* const(*list)[2], size_t n) {
    for (size_t i = 0; i < n; ++i) {
      known.insert(list[i][0]);
      double v = 0;
      bool found = false;
      for (const Report::Entry& e : r.metrics()) {
        if (e.name == list[i][0]) {
          if (e.unit != list[i][1]) r.Fail("unit mismatch for " + e.name);
          v = e.value;
          found = true;
        }
      }
      if (!found && !a.trace) r.Fail(std::string("missing metric ") + list[i][0]);
      out.push_back({list[i][0], v, list[i][1]});
    }
  };
  if (a.trace) {
    take(kPerLayer, sizeof kPerLayer / sizeof kPerLayer[0]);
  } else {
    take(kEndToEnd, sizeof kEndToEnd / sizeof kEndToEnd[0]);
  }
  for (const Report::Entry& e : r.metrics()) {
    if (known.count(e.name) == 0) r.Fail("unlisted metric " + e.name);
  }
  if (r.attempted == 0) r.Fail("no work attempted");

  for (const Report::Entry& e : r.notes()) {
    std::printf("note   %-40s %.9g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  for (const Report::Entry& e : out) {
    std::printf("metric %-40s %.9g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }

  const std::string context = ContextJson(a);
  std::string saved = "{\"context\": " + context + ", \"correct\": " +
                      (r.ok() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(r.attempted) +
                      ", \"failed\": " + std::to_string(r.failed) +
                      ", \"metrics\": " + EntriesJson(out) +
                      ", \"notes\": " + EntriesJson(r.notes()) +
                      ", \"failures\": [";
  for (size_t i = 0; i < r.failures().size(); ++i) {
    saved += (i ? ", " : "") + JsonString(r.failures()[i]);
  }
  saved += "]}\n";
  const std::string path = a.out_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           (a.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(saved.c_str(), f);
    std::fclose(f);
  }

  if (!r.ok()) {
    for (const std::string& why : r.failures()) {
      std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
    }
    return 1;
  }
  std::printf("context %s\n", context.c_str());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              EntriesJson(out).c_str());
  std::fflush(stdout);
  return 0;
}

// ---- Report and probes ----------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Fail("non-finite metric " + name);
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit) {
  notes_.push_back({name, value, unit});
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

int NumCpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double NowSeconds() { return static_cast<double>(NowNs()) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double ticks[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& t : ticks) in >> t;
  if (!in) return 0.0;
  return ticks[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::vector<size_t> CleanReps(const std::vector<double>& steal_share) {
  std::vector<size_t> order(steal_share.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_share[a] < steal_share[b];
  });
  const size_t floor = std::min(
      order.size(), std::max(kMinCleanReps, (order.size() + 3) / 4));
  size_t keep = 0;
  while (keep < order.size() &&
         (keep < floor || steal_share[order[keep]] <= kCleanStealShare)) {
    ++keep;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

double MedianOver(const std::vector<double>& v,
                  const std::vector<size_t>& keep) {
  std::vector<double> kept;
  kept.reserve(keep.size());
  for (size_t i : keep) kept.push_back(v[i]);
  return Median(std::move(kept));
}

Usage GetUsage(int who) {
  struct rusage ru {};
  ::getrusage(who, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

double PeakRssMb() {
  return std::max(GetUsage(RUSAGE_SELF).maxrss_mb,
                  GetUsage(RUSAGE_CHILDREN).maxrss_mb);
}

std::vector<std::string> DevShmNames() {
  std::vector<std::string> names;
  if (DIR* d = ::opendir("/dev/shm")) {
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] != '.') names.emplace_back(e->d_name);
    }
    ::closedir(d);
  }
  return names;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
