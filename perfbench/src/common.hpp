// Shared definitions of the repository benchmark: the workloads, the
// run report, and the host/resource probes every workload uses.
#pragma once

#include <sys/resource.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A named workload. Every field is fixed here; only the seed varies.
struct Workload {
  std::string name;
  bool lockd = false;     ///< rme-lockd instead of the KV service
  uint32_t stripes = 64;
  double theta = 0.99;    ///< Zipf skew; 0 = uniform keys
  int batch_ops = 1;
  bool kills = false;     ///< event log + verdict scan + kill budgets
  uint64_t ops_per_proc = 0;  ///< KV ops (or lockd passages) per client per rep
  uint64_t traced_ops_per_proc = 0;  ///< per client in the traced client loop
};

/// The KV key space and op mix shared by every KV workload.
inline constexpr uint64_t kKeys = 1u << 20;
inline constexpr double kReadFrac = 0.70;
inline constexpr double kPutFrac = 0.20;
inline constexpr int kTxnKeys = 3;

/// kv-kills failure budgets, per rep (untraced) and per traced run.
inline constexpr uint64_t kIndependentKills = 96;
inline constexpr uint64_t kStormKills = 6;  ///< all on pid 0
inline constexpr int64_t kSelfKills = 48;
inline constexpr double kSelfKillPerOp = 2e-4;

/// lockd-churn shape: nproc-1 clients over fewer lease slots.
inline constexpr int kLockdNames = 16;
inline constexpr uint64_t kLeasePassages = 4;
inline constexpr int kLockdCsOps = 2;

const Workload* FindWorkload(const std::string& name);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

/// Metrics, input properties and verdicts of one benchmark run.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Context only: printed and saved, never part of the final metrics.
  void Note(const std::string& name, double value, const std::string& unit);
  /// A failed correctness or input check. Any failure makes the run exit
  /// non-zero without printing metrics.
  void Fail(const std::string& why);
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& metrics() const { return metrics_; }
  const std::vector<Entry>& notes() const { return notes_; }

 private:
  std::vector<Entry> metrics_;
  std::vector<Entry> notes_;
  std::vector<std::string> failures_;
};

int NumCpus();
double NowSeconds();
double Median(std::vector<double> v);

/// CPU time the hypervisor has stolen from this machine since boot, summed
/// over CPUs (the `steal` column of /proc/stat); 0 where it is not reported.
double StealSeconds();

/// The reps the end-to-end medians are taken over, given each rep's steal
/// share (stolen CPU time over the rep's wall time times nproc). Reps the
/// hypervisor stole more than kCleanStealShare from measure the host, not
/// the program: they are left out, except that at least the least-stolen
/// quarter of the reps (and never fewer than kMinCleanReps) is kept.
inline constexpr double kCleanStealShare = 0.01;
inline constexpr size_t kMinCleanReps = 3;
std::vector<size_t> CleanReps(const std::vector<double>& steal_share);
/// Median of `v` over the indices in `keep`.
double MedianOver(const std::vector<double>& v, const std::vector<size_t>& keep);

/// CPU seconds (user+sys) and minor faults of `who` (RUSAGE_SELF or
/// RUSAGE_CHILDREN).
struct Usage {
  double cpu_s = 0;
  double minflt = 0;
  double maxrss_mb = 0;
};
Usage GetUsage(int who);

/// Largest resident set of the parent or any reaped child, in MB.
double PeakRssMb();

/// Names under /dev/shm (the leftover-name audit compares before/after).
std::vector<std::string> DevShmNames();

void RunKvUntraced(const Workload& w, const Args& a, Report& r);
void RunKvTraced(const Workload& w, const Args& a, Report& r);
void RunLockdUntraced(const Workload& w, const Args& a, Report& r);
void RunLockdTraced(const Workload& w, const Args& a, Report& r);
/// The uncontended ladder: bare vs instrumented atomic, one passage per
/// lock family. Same on every workload.
void RunLadder(Report& r);

}  // namespace perfbench
