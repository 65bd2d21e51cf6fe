// lockd-churn: rme-lockd with `ba` locks, nproc-1 clients over fewer
// lease slots, lease renewal every few passages, no kills. The untraced
// run prices RunLockdWorkload end to end; passage latency and the traced
// per-layer run come from a client loop in this file that calls the
// service's public client functions (AcquireLease, GetOrInsertEntry,
// RunPassage, ReleaseLease) against a live daemon.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "rmr/counters.hpp"
#include "runtime/lockd.hpp"
#include "runtime/lockd_driver.hpp"
#include "shm/shm_segment.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace ld = rme::lockd;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 1024;
constexpr uint64_t kTraceFileSpansPerClient = 20'000;
constexpr double kSelfTimeTolerance = 0.05;

int Clients() { return std::max(1, NumCpus() - 1); }
int Slots() { return std::max(1, Clients() - 1); }

std::string ShmName(const Args& a, const char* what, int rep) {
  return "perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(a.seed) + "-" + what + std::to_string(rep);
}

/// Per-client output of the loop, in the service segment.
struct alignas(64) LoopClient {
  uint64_t passages = 0;
  uint64_t leases = 0;
  int64_t loop_ns = 0;
  uint32_t done = 0;
  double* passage_ns = nullptr;  ///< one per passage
  double* lease_ns = nullptr;    ///< AcquireLease + ReleaseLease per lease
};

struct LoopResult {
  std::vector<double> passage_ns, lease_ns;
  uint64_t passages = 0;
  uint64_t lease_grants = 0;
  double longest_s = 0;
  double minflt_setup = 0, minflt_children = 0;
};

[[noreturn]] void ClientMain(ld::Service& svc, LoopClient& out, int d,
                             uint64_t seed, uint64_t quota,
                             SpanRegion* spans) {
  rme::CurrentProcess() = rme::ProcessContext{};
  ld::ServiceControl* ctl = svc.ctl();
  Tracer tr(spans, d);
  rme::Prng rng(seed, 4242 + static_cast<uint64_t>(d));
  int slot = -1;
  std::optional<rme::ProcessBinding> binding;
  char name[ld::kMaxLockName + 1];
  int64_t lease_t = 0;
  const int64_t t0 = NowNs();
  while (out.passages < quota) {
    tr.BeginOp();
    Tracer::Scope op(tr, Layer::kOp);
    for (uint64_t wait = 0; slot < 0; ++wait) {
      const int64_t a0 = NowNs();
      {
        Tracer::Scope s(tr, Layer::kLeaseAcquire);
        slot = ld::AcquireLease(ctl);
      }
      lease_t = NowNs() - a0;
      if (slot < 0) rme::SpinPause(wait);
    }
    if (!binding) binding.emplace(slot, nullptr);
    {
      Tracer::Scope s(tr, Layer::kDraw);
      std::snprintf(name, sizeof name, "lock-%llu",
                    static_cast<unsigned long long>(
                        rng.NextBounded(static_cast<uint64_t>(kLockdNames))));
    }
    int entry = -1;
    {
      Tracer::Scope s(tr, Layer::kDirLookup);
      entry = ld::GetOrInsertEntry(ctl, &svc.segment(), name, slot);
    }
    const int64_t p0 = NowNs();
    {
      Tracer::Scope s(tr, Layer::kLdPassage);
      ld::RunPassage(ctl, slot, entry, kLockdCsOps);
    }
    out.passage_ns[out.passages] = static_cast<double>(NowNs() - p0);
    ++out.passages;
    if (out.passages % kLeasePassages == 0 || out.passages == quota) {
      binding.reset();
      const int64_t r0 = NowNs();
      {
        Tracer::Scope s(tr, Layer::kLeaseRelease);
        ld::ReleaseLease(ctl, slot);
      }
      out.lease_ns[out.leases++] =
          static_cast<double>(lease_t + (NowNs() - r0));
      slot = -1;
    }
  }
  out.loop_ns = NowNs() - t0;
  if (spans != nullptr) spans->loop_ns = out.loop_ns;
  out.done = 1;
  std::_Exit(0);
}

/// One service with a daemon and Clients() closed-loop clients running
/// `quota` passages each. Spans go to `arena` when it is non-null.
LoopResult RunLoop(const std::string& shm_name, uint64_t seed,
                   uint64_t quota, SpanArena* arena, Report& r) {
  LoopResult res;
  const int n = Clients();
  const Usage self0 = GetUsage(RUSAGE_SELF);
  ld::ServiceConfig scfg;
  scfg.shm_name = shm_name;
  scfg.lock_kind = "ba";
  scfg.num_slots = Slots();
  scfg.dir_capacity = 2 * kLockdNames + 16;
  scfg.log_cap = 4 * static_cast<uint64_t>(n) * quota + 4096;
  scfg.segment_bytes = (96u << 20) + static_cast<size_t>(n) * quota * 24;
  std::unique_ptr<ld::Service> svc = ld::Service::Create(scfg);
  ld::ServiceControl* ctl = svc->ctl();
  LoopClient* clients = svc->segment().NewArray<LoopClient>(n);
  for (int d = 0; d < n; ++d) {
    clients[d].passage_ns = svc->segment().NewArray<double>(quota);
    clients[d].lease_ns = svc->segment().NewArray<double>(quota);
  }
  rme::rmr_detail::ParkLot* prev_lot = rme::InstallParkLot(&ctl->park_lot);
  rme::ResetGlobalAbort();
  res.minflt_setup = GetUsage(RUSAGE_SELF).minflt - self0.minflt;

  const Usage kids0 = GetUsage(RUSAGE_CHILDREN);
  const pid_t daemon = ::fork();
  if (daemon == 0) {
    rme::CurrentProcess() = rme::ProcessContext{};
    ld::DaemonConfig dc;
    std::_Exit(ld::RunDaemon(*svc, dc) == 0 ? 0 : 5);
  }
  const double ready_deadline = NowSeconds() + 10;
  while (ctl->ready.load() == 0 && NowSeconds() < ready_deadline) ::usleep(200);
  r.Check(ctl->ready.load() != 0, "lockd daemon did not become ready");

  std::vector<pid_t> kids;
  for (int d = 0; d < n; ++d) {
    const pid_t c = ::fork();
    if (c == 0) {
      ClientMain(*svc, clients[d], d, seed, quota,
                 arena != nullptr ? arena->region(d) : nullptr);
    }
    kids.push_back(c);
  }
  for (pid_t c : kids) {
    int status = 0;
    ::waitpid(c, &status, 0);
    r.Check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
            "lockd client exited abnormally");
  }
  ctl->stop.store(1);
  const double stop_deadline = NowSeconds() + 15;
  for (;;) {
    int status = 0;
    const pid_t got = ::waitpid(daemon, &status, WNOHANG);
    if (got == daemon) {
      r.Check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
              "lockd daemon did not stop cleanly");
      break;
    }
    if (NowSeconds() > stop_deadline) {
      ::kill(daemon, SIGKILL);
      ::waitpid(daemon, &status, 0);
      r.Fail("lockd daemon ignored stop");
      break;
    }
    ::usleep(500);
  }
  res.minflt_children = GetUsage(RUSAGE_CHILDREN).minflt - kids0.minflt;
  rme::InstallParkLot(prev_lot);

  for (int d = 0; d < n; ++d) {
    const LoopClient& c = clients[d];
    r.Check(c.done == 1 && c.passages == quota, "lockd client quota unmet");
    res.passages += c.passages;
    res.longest_s = std::max(res.longest_s, static_cast<double>(c.loop_ns) / 1e9);
    res.passage_ns.insert(res.passage_ns.end(), c.passage_ns,
                          c.passage_ns + c.passages);
    res.lease_ns.insert(res.lease_ns.end(), c.lease_ns, c.lease_ns + c.leases);
  }
  r.Check(ctl->cs_overlap_events.load() == 0, "lockd CS overlap (ME violation)");
  r.Check(ctl->log_overflow.load() == 0, "lockd event log overflow");
  res.lease_grants = ctl->lease_grants.load();
  r.Check(res.lease_grants >= res.passages / kLeasePassages,
          "fewer lease grants than lease renewals");
  return res;
}

}  // namespace

void RunLockdUntraced(const Workload& w, const Args& a, Report& r) {
  const int n = Clients();
  std::vector<double> ops_s, setup, cpu_per_op, steal;
  uint64_t requested = 0, completed = 0;
  double segment_mb = 0;
  const double t_start = NowSeconds();

  std::vector<double> p50, p99;
  uint64_t samples = 0;
  double longest = 0;
  for (int rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && NowSeconds() - t_start + longest > a.seconds) break;
    ld::LockdDriverConfig cfg;
    cfg.shm_name = ShmName(a, "drv", rep);
    cfg.lock_kind = "ba";
    cfg.num_clients = n;
    cfg.num_slots = Slots();
    cfg.num_names = kLockdNames;
    cfg.acquires_per_client = w.ops_per_proc;
    cfg.cs_shared_ops = kLockdCsOps;
    cfg.lease_passages = kLeasePassages;
    cfg.seed = a.seed * 1'000'003ull + static_cast<uint64_t>(rep) + 1;
    // The driver's event log is 4 records per passage.
    cfg.segment_bytes = (64u << 20) + 4 * static_cast<size_t>(n) *
                                          w.ops_per_proc *
                                          sizeof(ld::LockdEvent);
    const double t0 = NowSeconds();
    const Usage u0 = GetUsage(RUSAGE_CHILDREN);
    const double stolen0 = StealSeconds();
    const ld::LockdDriverResult s = ld::RunLockdWorkload(cfg);
    const double t1 = NowSeconds();
    const Usage u1 = GetUsage(RUSAGE_CHILDREN);

    // Passage latency: the service call does not expose per-passage
    // times, so they come from this file's loop with spans off (two clock
    // reads around each RunPassage, like the KV service's reservoirs).
    LoopResult lat = RunLoop(ShmName(a, "lat", rep), cfg.seed ^ 0x1a7ull,
                             w.ops_per_proc / 4, nullptr, r);
    const double rep_s = NowSeconds() - t0;
    longest = std::max(longest, rep_s);
    p50.push_back(Quantile(lat.passage_ns, 0.5) / 1e3);
    p99.push_back(Quantile(lat.passage_ns, 0.99) / 1e3);
    samples += lat.passage_ns.size();

    const uint64_t want = static_cast<uint64_t>(n) * w.ops_per_proc;
    r.Check(s.Clean(), "lockd verdicts not clean (ME/BCSR/phantom/overflow/"
                       "hang/watchdog/child error/unfinished/leaked name)");
    r.Check(s.daemon_stopped_cleanly, "lockd daemon did not stop cleanly");
    r.Check(s.completed == want, "lockd passages not all completed");
    r.Check(s.client_kill_deaths == 0 && s.daemon_kill_deaths == 0,
            "unexpected kills on a clean workload");
    r.Check(s.lease_grants >= want / kLeasePassages,
            "fewer lease grants than lease renewals");
    if (!r.ok()) return;

    ops_s.push_back(static_cast<double>(s.completed) / s.wall_seconds);
    setup.push_back((t1 - t0) - s.wall_seconds);
    cpu_per_op.push_back((u1.cpu_s - u0.cpu_s) * 1e6 /
                         static_cast<double>(s.completed));
    steal.push_back((StealSeconds() - stolen0) / (NumCpus() * rep_s));
    requested += want;
    completed += std::min(s.completed, want);
    segment_mb = static_cast<double>(s.segment_bytes_used) / 1e6;
    r.Note("rep" + std::to_string(rep) + ".ops_per_s", ops_s.back(), "1/s");
    r.Note("rep" + std::to_string(rep) + ".lease_grants",
           static_cast<double>(s.lease_grants), "count");
    r.Note("rep" + std::to_string(rep) + ".steal_share", steal.back(), "share");
  }
  const std::vector<size_t> clean = CleanReps(steal);
  r.attempted = requested;
  r.failed = requested - completed;
  r.Note("reps", static_cast<double>(ops_s.size()), "count");
  r.Note("reps_clean", static_cast<double>(clean.size()), "count");
  r.Metric("ops_per_s", MedianOver(ops_s, clean), "1/s");
  r.Note("latency_samples", static_cast<double>(samples), "count");
  r.Metric("passage_p50_us", MedianOver(p50, clean), "us");
  r.Metric("passage_p99_us", MedianOver(p99, clean), "us");
  r.Metric("setup_s", MedianOver(setup, clean), "s");
  r.Metric("segment_mb", segment_mb, "MB");
  r.Metric("peak_rss_mb", PeakRssMb(), "MB");
  r.Metric("cpu_us_per_op", MedianOver(cpu_per_op, clean), "us");
  r.Metric("completed_op_share",
           static_cast<double>(completed) / static_cast<double>(requested),
           "share");
}

void RunLockdTraced(const Workload& w, const Args& a, Report& r) {
  const uint64_t quota = w.traced_ops_per_proc;
  const LoopResult plain =
      RunLoop(ShmName(a, "plain", 0), a.seed, quota, nullptr, r);
  if (!r.ok()) return;
  SpanArena arena(Clients(), quota * 8 + 1024);
  LoopResult t = RunLoop(ShmName(a, "traced", 0), a.seed, quota, &arena, r);
  if (!r.ok()) return;
  r.attempted = plain.passages + t.passages;

  TraceSummary s = Summarize(arena);
  r.Check(s.dropped == 0, "span buffers overflowed");
  auto at = [&](Layer l) -> LayerStats& { return s.layer[static_cast<int>(l)]; };
  const double passages = static_cast<double>(t.passages);
  r.Metric("lockd.lease_ns.p50", Quantile(t.lease_ns, 0.5), "ns");
  r.Metric("lockd.lease_ns.p99", Quantile(t.lease_ns, 0.99), "ns");
  r.Metric("lockd.lookup_ns.p50", Quantile(at(Layer::kDirLookup).dur_ns, 0.5),
           "ns");
  r.Metric("lockd.passage_ns.p50", Quantile(at(Layer::kLdPassage).dur_ns, 0.5),
           "ns");
  r.Metric("lockd.passage_ns.p99", Quantile(at(Layer::kLdPassage).dur_ns, 0.99),
           "ns");
  r.Metric("lockd.lease_grants", static_cast<double>(t.lease_grants), "count");
  r.Note("lockd.lease_samples", static_cast<double>(t.lease_ns.size()), "count");
  r.Metric("rmr.ops_per_op", at(Layer::kLdPassage).ops / passages, "count");
  r.Metric("rmr.cc_per_op", at(Layer::kLdPassage).cc / passages, "count");
  r.Metric("rmr.dsm_per_op", at(Layer::kLdPassage).dsm / passages, "count");
  r.Metric("shm.minor_faults_setup", t.minflt_setup, "count");
  r.Metric("shm.minor_faults_per_op", t.minflt_children / passages, "count");
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    r.Metric(std::string("self.") + LayerName(static_cast<Layer>(l)) +
                 "_ns_per_op",
             s.layer[l].self_ns / passages, "ns");
  }
  const double share = s.self_sum_ns / s.loop_ns;
  r.Metric("trace.self_time_share", share, "share");
  r.Check(std::fabs(share - 1.0) <= kSelfTimeTolerance,
          "per-layer self times do not sum to the traced op time within 5%");
  r.Metric("trace.ops_per_s", passages / t.longest_s, "1/s");
  r.Metric("trace.untraced_ops_per_s",
           static_cast<double>(plain.passages) / plain.longest_s, "1/s");
  const std::string path = a.out_dir + "/trace-" + w.name + "-seed" +
                           std::to_string(a.seed) + ".json";
  r.Check(WriteChromeTrace(arena, path, kTraceFileSpansPerClient),
          "could not write " + path);
}

}  // namespace perfbench
