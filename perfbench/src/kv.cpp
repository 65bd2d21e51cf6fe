// KV-service workloads: the untraced end-to-end run through RunKvService
// and the traced run that drives the same generator through the layers'
// public functions (shm::Segment, StripedTable, RecoverableLock, rmr
// counters, crash controllers) with spans around each call.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common.hpp"
#include "core/lock_registry.hpp"
#include "crash/crash.hpp"
#include "locks/lock.hpp"
#include "rmr/counters.hpp"
#include "runtime/kv_service.hpp"
#include "runtime/striped_table.hpp"
#include "shm/shm_segment.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using rme::KvOp;

constexpr const char* kLock = "ba";
constexpr int kMinReps = 3;
constexpr int kMaxReps = 1024;
/// Spans per op are ~5 (batch 1) to ~6 (batch 16, one op draw each);
/// traced runs size their ops to fit.
constexpr uint64_t kSpansPerClient = 1'500'000;
constexpr uint64_t kTraceFileSpansPerClient = 20'000;
/// Per-layer self times must add up to the clients' op-phase time.
constexpr double kSelfTimeTolerance = 0.05;

/// nproc-1 clients: the parent (kill scheduler, watchdog) keeps a core,
/// so a lock holder is not preempted by the benchmark's own processes.
int Clients() { return std::max(1, NumCpus() - 1); }

rme::bench::KvOpMix Mix() {
  rme::bench::KvOpMix m;
  m.read_frac = kReadFrac;
  m.put_frac = kPutFrac;
  m.txn_keys = kTxnKeys;
  return m;
}

uint64_t RepSeed(uint64_t seed, int rep) {
  return seed * 1'000'003ull + static_cast<uint64_t>(rep) + 1;
}

rme::KvServiceConfig ServiceConfig(const Workload& w, uint64_t seed,
                                   const rme::bench::ZipfianKeys& keys) {
  rme::KvServiceConfig cfg;
  cfg.lock_name = kLock;
  cfg.num_procs = Clients();
  cfg.stripes = w.stripes;
  cfg.keys = kKeys;
  cfg.ops_per_proc = w.ops_per_proc;
  cfg.batch_ops = w.batch_ops;
  cfg.seed = seed;
  cfg.draw = rme::bench::MakeKvDraw(keys, Mix());
  cfg.log_events = w.kills;
  if (w.kills) {
    cfg.independent_kills = kIndependentKills;
    cfg.kill_interval_ms = 2.0;
    cfg.storm_victim = 0;
    cfg.storm_kills = kStormKills;
    cfg.self_kill_per_op = kSelfKillPerOp;
    cfg.self_kill_budget = kSelfKills;
  }
  return cfg;
}

/// The hottest stripe's share of key probability mass, from the Zipf
/// definition itself (not from the generator under test).
double ExpectedHotShare(const Workload& w) {
  std::vector<double> mass(w.stripes, 0.0);
  double total = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    const double p =
        w.theta == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(k + 1), w.theta);
    mass[rme::StripedTable::StripeHash(k) & (w.stripes - 1)] += p;
    total += p;
  }
  return *std::max_element(mass.begin(), mass.end()) / total;
}

/// Checks the generated traffic against the workload definition: the
/// read/put/txn split of drawn ops and the hottest stripe's share of
/// drawn keys. Tolerances are far above sampling noise at these sizes and
/// far below what any change of mix or skew would produce.
/// A negative `hot_share` skips the stripe check (the service reports
/// the op split but not per-stripe key counts).
void CheckInput(Report& r, const char* where, double reads, double puts,
                double txns, double hot_share, double expected_hot) {
  const double n = reads + puts + txns;
  r.Check(n > 0, std::string(where) + ": no ops drawn");
  if (n <= 0) return;
  const double fr = reads / n, fp = puts / n, ft = txns / n;
  r.Note(std::string(where) + ".read_share", fr, "share");
  r.Note(std::string(where) + ".put_share", fp, "share");
  r.Note(std::string(where) + ".txn_share", ft, "share");
  const double tol = 0.01;
  r.Check(std::fabs(fr - kReadFrac) <= tol &&
              std::fabs(fp - kPutFrac) <= tol &&
              std::fabs(ft - (1 - kReadFrac - kPutFrac)) <= tol,
          std::string(where) + ": op mix differs from the workload definition");
  if (hot_share < 0) return;
  r.Note(std::string(where) + ".hot_stripe_key_share", hot_share, "share");
  r.Note(std::string(where) + ".hot_stripe_key_share_expected", expected_hot,
         "share");
  r.Check(std::fabs(hot_share - expected_hot) <= 0.15 * expected_hot + 0.001,
          std::string(where) +
              ": hottest stripe key share differs from the Zipf definition");
}

/// Samples the generator with the run's seed (independent streams from
/// the service's) and returns the hottest stripe's share of drawn keys.
void SampleInput(const Workload& w, uint64_t seed,
                 const rme::bench::ZipfianKeys& keys, Report& r,
                 double expected_hot) {
  std::vector<uint64_t> hits(w.stripes, 0);
  double reads = 0, puts = 0, txns = 0, nkeys = 0;
  for (int c = 0; c < Clients(); ++c) {
    rme::Prng rng(seed, 0x5a5a0000ull + static_cast<uint64_t>(c));
    for (int i = 0; i < 50'000; ++i) {
      const KvOp op = rme::bench::DrawKvOp(rng, keys, Mix());
      (op.kind == KvOp::kRead ? reads : op.kind == KvOp::kPut ? puts : txns) +=
          1;
      for (int j = 0; j < op.nkeys; ++j) {
        ++hits[rme::StripedTable::StripeHash(op.keys[j]) & (w.stripes - 1)];
        nkeys += 1;
      }
    }
  }
  const double hot =
      static_cast<double>(*std::max_element(hits.begin(), hits.end())) / nkeys;
  CheckInput(r, "input", reads, puts, txns, hot, expected_hot);
}

/// Every verdict and audit of one service call; false if any failed.
void CheckService(Report& r, const Workload& w, const rme::KvServiceConfig& cfg,
                  const rme::KvServiceResult& s) {
  const uint64_t requested =
      static_cast<uint64_t>(cfg.num_procs) * cfg.ops_per_proc;
  r.Check(s.ready_stripes == cfg.stripes, "stripe table not fully built");
  r.Check(s.me_violations == 0, "ME violation");
  r.Check(s.bcsr_violations == 0, "BCSR violation");
  r.Check(s.phantom_crash_notes == 0, "phantom crash note");
  r.Check(s.cs_overlap_events == 0, "live CS-overlap tripwire fired");
  r.Check(s.starved_pids == 0, "starved pid");
  r.Check(s.hung_abandoned == 0, "abandoned pid");
  r.Check(s.conservation_delta == 0, "conservation violated");
  r.Check(s.put_integrity_mismatches == 0, "put integrity violated");
  r.Check(s.audits_binding, "audits not binding");
  r.Check(!s.log_overflow, "event log overflow");
  r.Check(!s.watchdog_fired, "watchdog fired");
  r.Check(s.child_errors == 0, "child error");
  r.Check(s.ops_done >= requested, "requested ops not completed");
  const uint64_t kills =
      w.kills ? kIndependentKills + kStormKills + kSelfKills : 0;
  // Deaths, not signals: a parent SIGKILL that lands on a child already
  // dying from a self-kill is one death for two budget units, so a few
  // percent may merge. Anything more is an undelivered budget.
  const uint64_t deaths = s.kills - std::min(s.kills, s.hangs);
  r.Check(deaths <= kills && deaths + kills / 20 >= kills,
          "kill budget not delivered: " + std::to_string(deaths) + " deaths of " +
              std::to_string(kills) + " kills");
  r.Check(s.storm_kills == (w.kills ? kStormKills : 0),
          "storm kill budget not delivered");
}

// ---- Traced client loop -----------------------------------------------------

struct KvCell {
  std::atomic<uint64_t> value{0};
  std::atomic<uint64_t> version{0};
  std::atomic<uint64_t> balance{0};
};
constexpr uint64_t kInitialBalance = 100;

/// Per-client results of the traced loop, in the segment.
struct alignas(64) ClientStats {
  uint64_t ops[2] = {};
  int64_t loop_ns[2] = {};
  uint64_t crashes[2] = {};
  uint64_t passages = 0;
  uint64_t depth_sum = 0;
  uint64_t depth_max = 0;
  uint64_t max_attempts = 0;
  uint64_t reads = 0, puts = 0, txns = 0;
  uint64_t overlaps = 0;
  uint64_t done = 0;
};

struct LoopShared {
  std::atomic<int> arrived[2] = {};
  ClientStats stats[rme::kMaxProcs];
  rme::SharedOpCounters mirrors[rme::kMaxProcs];
};

/// Sorted distinct stripes of `keys`.
int StripesOf(const rme::StripedTable& t, const uint64_t* keys, int nk,
              uint32_t* out) {
  int m = 0;
  for (int i = 0; i < nk; ++i) {
    const uint32_t s = t.StripeOf(keys[i]);
    if (std::find(out, out + m, s) == out + m) out[m++] = s;
  }
  std::sort(out, out + m);
  return m;
}

/// One forked client. Phase 0 runs untraced, phase 1 traced, both over
/// the same generated ops; an in-process crash (ProcessCrash from the
/// phase's controller) aborts the passage, which is retried from Recover
/// exactly as a respawned process would.
class KvClient {
 public:
  /// `hits_out` is the shared per-stripe histogram of drawn keys.
  KvClient(const Workload& w, rme::StripedTable* table, KvCell* cells,
           LoopShared* sh, uint64_t* hits_out, int pid, int clients)
      : w_(w), table_(table), cells_(cells), sh_(sh), hits_out_(hits_out),
        pid_(pid), clients_(clients), st_(sh->stats[pid]),
        key_hits_(w.stripes, 0) {}

  void RunPhase(int phase, rme::CrashController* crash, SpanRegion* spans,
                const rme::bench::ZipfianKeys& keys, uint64_t seed,
                uint64_t quota) {
    rme::CurrentProcess().SetCrashController(crash);
    crash_ = crash;
    phase_ = phase;
    Tracer tr(spans, pid_);
    tr_ = &tr;
    sh_->arrived[phase].fetch_add(1);
    while (sh_->arrived[phase].load() < clients_) ::sched_yield();

    rme::Prng rng(seed, (uint64_t{1} << 16) + static_cast<uint64_t>(pid_));
    const int batch = w_.batch_ops;
    uint64_t done = 0;
    const int64_t t0 = NowNs();
    while (done < quota) {
      tr.BeginOp();
      Tracer::Scope op(tr, Layer::kOp);
      KvOp ops[16];
      {
        Tracer::Scope s(tr, Layer::kDraw);
        for (int i = 0; i < batch; ++i) {
          ops[i] = rme::bench::DrawKvOp(rng, keys, Mix());
        }
      }
      if (phase == 1) CountInput(ops, batch);
      done += RunBatch(ops, batch);
    }
    st_.loop_ns[phase] = NowNs() - t0;
    st_.ops[phase] = done;
    if (spans != nullptr) spans->loop_ns = st_.loop_ns[phase];
    rme::CurrentProcess().SetCrashController(nullptr);
  }

  void Finish() {
    for (uint32_t s = 0; s < table_->stripe_count(); ++s) {
      table_->LockAt(s)->OnProcessDone(pid_);
    }
    for (uint32_t s = 0; s < w_.stripes; ++s) {
      std::atomic_ref<uint64_t>(hits_out_[s]).fetch_add(key_hits_[s]);
    }
    st_.done = 1;
  }

 private:
  void CountInput(const KvOp* ops, int n) {
    for (int i = 0; i < n; ++i) {
      if (ops[i].kind == KvOp::kRead) ++st_.reads;
      if (ops[i].kind == KvOp::kPut) ++st_.puts;
      if (ops[i].kind == KvOp::kTxn) ++st_.txns;
      for (int j = 0; j < ops[i].nkeys; ++j) {
        ++key_hits_[rme::StripedTable::StripeHash(ops[i].keys[j]) &
                    (w_.stripes - 1)];
      }
    }
  }

  /// The service's grouping: single-key ops by stripe (one EnterMany
  /// passage per same-stripe run), transactions alone. Unlike the service
  /// it does not split a group at 4 puts, as it keeps no redo record.
  /// Returns ops done (a transaction counts its keys, as in
  /// KvServiceResult::ops_done).
  uint64_t RunBatch(KvOp* ops, int n) {
    int idx[16];
    uint32_t stripe_of[16];
    int n_single = 0;
    {
      Tracer::Scope s(*tr_, Layer::kLookup);
      for (int i = 0; i < n; ++i) {
        stripe_of[i] = table_->StripeOf(ops[i].keys[0]);
        if (ops[i].kind != KvOp::kTxn) idx[n_single++] = i;
      }
    }
    std::sort(idx, idx + n_single,
              [&](int a, int b) { return stripe_of[a] < stripe_of[b]; });
    uint64_t done = 0;
    for (int g = 0; g < n_single;) {
      int end = g;
      while (end < n_single && stripe_of[idx[end]] == stripe_of[idx[g]]) ++end;
      const uint32_t s = stripe_of[idx[g]];
      Passage(&s, 1, end - g, [&] {
        for (int i = g; i < end; ++i) {
          const KvOp& op = ops[idx[i]];
          KvCell& c = cells_[op.keys[0]];
          if (op.kind == KvOp::kRead) {
            sink_ ^= c.value.load(std::memory_order_relaxed) ^
                     c.version.load(std::memory_order_relaxed);
          } else {
            const uint64_t tag = (++txn_ << 8) | static_cast<uint64_t>(pid_);
            c.value.store(rme::KvValueForTag(tag), std::memory_order_relaxed);
            c.version.store(tag, std::memory_order_release);
          }
        }
      });
      done += static_cast<uint64_t>(end - g);
      g = end;
    }
    for (int i = 0; i < n; ++i) {
      if (ops[i].kind != KvOp::kTxn) continue;
      const KvOp& op = ops[i];
      uint32_t stripes[rme::kKvMaxTxnKeys];
      int m = 0;
      {
        Tracer::Scope s(*tr_, Layer::kLookup);
        m = StripesOf(*table_, op.keys, op.nkeys, stripes);
      }
      Passage(stripes, m, 1, [&] {
        // bank_ledger transfer: key 0 pays, the others share the amount.
        const uint64_t amount = 1 + (++txn_ % 50);
        uint64_t moved = std::min(
            cells_[op.keys[0]].balance.load(std::memory_order_relaxed), amount);
        cells_[op.keys[0]].balance.fetch_sub(moved, std::memory_order_relaxed);
        for (int j = 1; j < op.nkeys; ++j) {
          const uint64_t add = j == op.nkeys - 1
                                   ? moved
                                   : moved / static_cast<uint64_t>(op.nkeys - 1);
          cells_[op.keys[j]].balance.fetch_add(add, std::memory_order_relaxed);
          moved -= add;
        }
      });
      done += static_cast<uint64_t>(op.nkeys);
    }
    return done;
  }

  void Probe(const char* site) {
    if (crash_ != nullptr && crash_->ShouldCrash(pid_, site, true)) {
      throw rme::ProcessCrash{pid_, site, true, 0};
    }
  }

  /// One passage over `m` sorted stripes. The body runs at most once: a
  /// crash after it (in Exit) is healed by the retried passage, whose
  /// body is then skipped, so conservation stays exact.
  template <typename Body>
  void Passage(const uint32_t* stripes, int m, int k, Body&& body) {
    rme::RecoverableLock* locks[rme::kKvMaxTxnKeys];
    {
      Tracer::Scope s(*tr_, Layer::kLookup);
      for (int j = 0; j < m; ++j) locks[j] = table_->LockAt(stripes[j]);
    }
    const bool batched = m == 1 && k > 1 && locks[0]->SupportsEnterMany();
    bool applied = false;
    uint64_t attempts = 0;
    for (;;) {
      ++attempts;
      try {
        for (int j = 0; j < m; ++j) {
          Probe("h.recover.brk");
          {
            Tracer::Scope s(*tr_, Layer::kRecover);
            locks[j]->Recover(pid_);
          }
          Probe("h.recover.done");
          {
            Tracer::Scope s(*tr_, Layer::kEnter);
            if (batched) {
              locks[j]->EnterMany(pid_, k);
            } else {
              locks[j]->Enter(pid_);
            }
          }
          rme::StripeEntry& e = table_->EntryAt(stripes[j]);
          const uint32_t prev = e.owner.exchange(
              static_cast<uint32_t>(pid_) + 1, std::memory_order_acq_rel);
          if (prev != 0 && prev != static_cast<uint32_t>(pid_) + 1) {
            ++st_.overlaps;
          }
          if (phase_ == 1) {
            e.acquisitions.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (!applied) {
          Tracer::Scope s(*tr_, Layer::kCs);
          body();
          applied = true;
        }
        for (int j = m - 1; j >= 0; --j) {
          table_->EntryAt(stripes[j]).owner.store(0, std::memory_order_release);
          Tracer::Scope s(*tr_, Layer::kExit);
          if (batched) {
            locks[j]->ExitMany(pid_);
          } else {
            locks[j]->Exit(pid_);
          }
        }
        break;
      } catch (const rme::ProcessCrash&) {
        ++st_.crashes[phase_];
      }
    }
    st_.max_attempts = std::max(st_.max_attempts, attempts);
    if (phase_ == 1) {
      uint64_t depth = 0;
      for (int j = 0; j < m; ++j) {
        depth = std::max<uint64_t>(
            depth, static_cast<uint64_t>(locks[j]->LastPathDepth(pid_)));
      }
      ++st_.passages;
      st_.depth_sum += depth;
      st_.depth_max = std::max(st_.depth_max, depth);
    }
  }

  const Workload& w_;
  rme::StripedTable* table_;
  KvCell* cells_;
  LoopShared* sh_;
  uint64_t* hits_out_;
  int pid_;
  int clients_;
  ClientStats& st_;
  std::vector<uint64_t> key_hits_;
  Tracer* tr_ = nullptr;
  rme::CrashController* crash_ = nullptr;
  int phase_ = 0;
  uint64_t txn_ = 0;
  uint64_t sink_ = 0;
};

/// The crash chain of one traced-loop phase: the kv-kills budgets, thrown
/// in-process (a SIGKILLed child would lose its spans). The random part
/// stands in for the independent and self kills together.
rme::CrashController* MakeCrashChain(rme::shm::Segment& seg, uint64_t seed,
                                     rme::RecoveryStormCrash** storm) {
  *storm = seg.New<rme::RecoveryStormCrash>(uint64_t{1}, kStormKills, 1);
  rme::CrashController* random = seg.New<rme::RandomCrash>(
      seed ^ 0x7261ull, kSelfKillPerOp * 10,
      static_cast<int64_t>(kIndependentKills) + kSelfKills);
  return seg.New<rme::CompositeCrash>(
      std::vector<rme::CrashController*>{*storm, random});
}

size_t ProbeLockBytes(int n) {
  rme::shm::Segment probe(64u << 20);
  const size_t before = probe.bytes_used();
  {
    rme::shm::PlacementScope scope(&probe);
    rme::MakeLock(kLock, n).release();
  }
  return probe.bytes_used() - before;
}

}  // namespace

void RunKvUntraced(const Workload& w, const Args& a, Report& r) {
  const double expected_hot = ExpectedHotShare(w);
  std::vector<double> ops_s, p50, p99, setup, cpu_per_op, steal;
  uint64_t samples = 0, observed = 0, requested = 0, completed = 0;
  double segment_mb = 0;
  const double t_start = NowSeconds();
  double longest = 0;
  for (int rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && NowSeconds() - t_start + longest > a.seconds) break;
    const uint64_t seed = RepSeed(a.seed, rep);
    const double t0 = NowSeconds();
    const Usage u0 = GetUsage(RUSAGE_CHILDREN);
    const double stolen0 = StealSeconds();
    const rme::bench::ZipfianKeys keys(kKeys, w.theta);
    const rme::KvServiceConfig cfg = ServiceConfig(w, seed, keys);
    const rme::KvServiceResult s = rme::RunKvService(cfg);
    const double t1 = NowSeconds();
    const Usage u1 = GetUsage(RUSAGE_CHILDREN);
    const double stolen1 = StealSeconds();
    longest = std::max(longest, t1 - t0);

    r.Note("rep" + std::to_string(rep) + ".wall_s", s.wall_seconds, "s");
    r.Note("rep" + std::to_string(rep) + ".kills", static_cast<double>(s.kills),
           "count");
    r.Note("rep" + std::to_string(rep) + ".storm_kills",
           static_cast<double>(s.storm_kills), "count");
    r.Note("rep" + std::to_string(rep) + ".hangs", static_cast<double>(s.hangs),
           "count");
    CheckService(r, w, cfg, s);
    // Under kills the completed split is not the input: a killed read is
    // redrawn while a killed write is resumed from its redo record.
    if (!w.kills) {
      CheckInput(r, ("service.rep" + std::to_string(rep)).c_str(),
                 static_cast<double>(s.reads), static_cast<double>(s.puts),
                 static_cast<double>(s.txns), -1, expected_hot);
    }
    if (rep == 0) SampleInput(w, seed, keys, r, expected_hot);
    if (!r.ok()) return;

    ops_s.push_back(static_cast<double>(s.ops_done) / s.wall_seconds);
    p50.push_back(s.p50_us);
    p99.push_back(s.p99_us);
    setup.push_back((t1 - t0) - s.wall_seconds);
    cpu_per_op.push_back((u1.cpu_s - u0.cpu_s) * 1e6 /
                         static_cast<double>(s.ops_done));
    steal.push_back((stolen1 - stolen0) / (NumCpus() * (t1 - t0)));
    samples += s.latency_samples;
    observed += s.latency_observed;
    requested += static_cast<uint64_t>(cfg.num_procs) * cfg.ops_per_proc;
    completed += std::min<uint64_t>(
        s.ops_done, static_cast<uint64_t>(cfg.num_procs) * cfg.ops_per_proc);
    segment_mb = static_cast<double>(s.segment_bytes_used) / 1e6;
    r.Note("rep" + std::to_string(rep) + ".ops_per_s", ops_s.back(), "1/s");
    r.Note("rep" + std::to_string(rep) + ".p999_us", s.p999_us, "us");
    r.Note("rep" + std::to_string(rep) + ".steal_share", steal.back(), "share");
  }
  const std::vector<size_t> clean = CleanReps(steal);
  r.attempted = requested;
  r.failed = requested - completed;
  r.Note("reps", static_cast<double>(ops_s.size()), "count");
  r.Note("reps_clean", static_cast<double>(clean.size()), "count");
  r.Note("latency_samples", static_cast<double>(samples), "count");
  r.Note("latency_observed", static_cast<double>(observed), "count");
  r.Metric("ops_per_s", MedianOver(ops_s, clean), "1/s");
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

void RunKvTraced(const Workload& w, const Args& a, Report& r) {
  const int n = Clients();
  const double expected_hot = ExpectedHotShare(w);
  const uint64_t seed = RepSeed(a.seed, 0);
  const rme::bench::ZipfianKeys keys(kKeys, w.theta);

  // 1. One service call: the service-level counters and fault counts.
  {
    const rme::KvServiceConfig cfg = ServiceConfig(w, seed, keys);
    const Usage self0 = GetUsage(RUSAGE_SELF);
    const Usage kids0 = GetUsage(RUSAGE_CHILDREN);
    const rme::KvServiceResult s = rme::RunKvService(cfg);
    const Usage self1 = GetUsage(RUSAGE_SELF);
    const Usage kids1 = GetUsage(RUSAGE_CHILDREN);
    CheckService(r, w, cfg, s);
    if (!r.ok()) return;
    const double ops = static_cast<double>(s.ops_done);
    r.Metric("kv_service.passages_per_op",
             static_cast<double>(s.passages) / ops, "count");
    r.Metric("kv_service.batched_passage_share",
             static_cast<double>(s.batched_passages) /
                 static_cast<double>(s.passages),
             "share");
    r.Metric("shm.minor_faults_setup", self1.minflt - self0.minflt, "count");
    r.Metric("shm.minor_faults_per_op", (kids1.minflt - kids0.minflt) / ops,
             "count");
    r.Metric("crash.crash_notes", static_cast<double>(s.crash_notes), "count");
    r.Metric("crash.max_attempts_per_passage",
             static_cast<double>(s.max_attempts_per_passage), "count");
    r.Metric("crash.max_incarnations", static_cast<double>(s.max_incarnations),
             "count");
    r.attempted += static_cast<uint64_t>(cfg.num_procs) * cfg.ops_per_proc;
  }

  // 2. The traced loop's own segment and stripe table.
  const size_t lock_bytes = ProbeLockBytes(n);
  const size_t bytes = sizeof(LoopShared) + kKeys * sizeof(KvCell) +
                       w.stripes * (sizeof(uint64_t) + sizeof(rme::StripeEntry) +
                                    lock_bytes + lock_bytes / 4) +
                       (16u << 20);
  rme::shm::Segment seg(bytes);
  LoopShared* sh = seg.New<LoopShared>();
  KvCell* cells = seg.NewArray<KvCell>(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) cells[k].balance.store(kInitialBalance);
  uint64_t* hits = seg.NewArray<uint64_t>(w.stripes);
  const size_t before = seg.bytes_used();
  const double c0 = NowSeconds();
  rme::StripedTable* table = rme::StripedTable::Create(seg, kLock, w.stripes, n);
  r.Metric("striped_table.create_s", NowSeconds() - c0, "s");
  r.Metric("striped_table.bytes_per_stripe",
           static_cast<double>(seg.bytes_used() - before) / w.stripes, "bytes");

  {
    // StripeOf + LockAt over generated keys, in a tight loop: a span's
    // two clock reads would cost more than the lookup itself.
    rme::Prng rng(seed, 0x100c0000ull);
    std::vector<uint64_t> ks(1u << 16);
    for (uint64_t& k : ks) k = keys.Next(rng);
    std::vector<double> per;
    uintptr_t sink = 0;
    for (int rep = 0; rep < 15; ++rep) {
      const int64_t t0 = NowNs();
      for (int it = 0; it < 8; ++it) {
        for (uint64_t k : ks) {
          sink += reinterpret_cast<uintptr_t>(table->LockAt(table->StripeOf(k)));
        }
      }
      per.push_back(static_cast<double>(NowNs() - t0) / (8.0 * ks.size()));
    }
    r.Check(sink != 0, "lookup loop returned no locks");
    r.Metric("striped_table.lookup_ns", Median(per), "ns");
  }

  rme::RecoveryStormCrash* storm[2] = {nullptr, nullptr};
  rme::CrashController* chain[2] = {nullptr, nullptr};
  if (w.kills) {
    for (int ph = 0; ph < 2; ++ph) chain[ph] = MakeCrashChain(seg, seed, &storm[ph]);
  }
  rme::rmr_detail::ParkLot* lot = seg.New<rme::rmr_detail::ParkLot>();
  rme::rmr_detail::ParkLot* prev_lot = rme::InstallParkLot(lot);

  // Same op count in both phases; sized so the traced phase fits its
  // span buffers.
  const uint64_t quota = w.traced_ops_per_proc;
  SpanArena arena(n, kSpansPerClient);
  std::vector<pid_t> kids;
  for (int pid = 0; pid < n; ++pid) {
    const pid_t c = ::fork();
    if (c < 0) {
      r.Fail("fork failed");
      break;
    }
    if (c == 0) {
      int code = 0;
      try {
        rme::CurrentProcess() = rme::ProcessContext{};
        rme::ProcessBinding bind(pid, nullptr, &sh->mirrors[pid]);
        KvClient client(w, table, cells, sh, hits, pid, n);
        client.RunPhase(0, chain[0], nullptr, keys, seed, quota);
        client.RunPhase(1, chain[1], arena.region(pid), keys, seed, quota);
        client.Finish();
      } catch (...) {
        code = 3;
      }
      std::_Exit(code);
    }
    kids.push_back(c);
  }
  for (pid_t c : kids) {
    int status = 0;
    ::waitpid(c, &status, 0);
    r.Check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
            "traced client exited abnormally");
  }
  rme::InstallParkLot(prev_lot);
  if (!r.ok()) return;

  // Verdicts of the traced loop.
  uint64_t ops[2] = {}, crashes[2] = {}, passages = 0, depth_sum = 0,
           depth_max = 0, overlaps = 0, reads = 0, puts = 0, txns = 0,
           max_attempts = 0;
  int64_t longest[2] = {};
  for (int pid = 0; pid < n; ++pid) {
    const ClientStats& st = sh->stats[pid];
    r.Check(st.done == 1, "traced client did not finish");
    for (int ph = 0; ph < 2; ++ph) {
      ops[ph] += st.ops[ph];
      crashes[ph] += st.crashes[ph];
      longest[ph] = std::max(longest[ph], st.loop_ns[ph]);
    }
    passages += st.passages;
    depth_sum += st.depth_sum;
    depth_max = std::max(depth_max, st.depth_max);
    overlaps += st.overlaps;
    reads += st.reads;
    puts += st.puts;
    txns += st.txns;
    max_attempts = std::max(max_attempts, st.max_attempts);
  }
  r.attempted += ops[0] + ops[1];
  r.Check(overlaps == 0, "traced loop: CS overlap (ME violation)");
  uint64_t balance = 0;
  for (uint64_t k = 0; k < kKeys; ++k) balance += cells[k].balance.load();
  r.Check(balance == kInitialBalance * kKeys, "traced loop: conservation violated");
  const uint64_t budget =
      w.kills ? kIndependentKills + kSelfKills + kStormKills : 0;
  for (int ph = 0; ph < 2; ++ph) {
    r.Check(crashes[ph] == budget,
            "traced loop: in-process crash budget not delivered exactly (" +
                std::to_string(crashes[ph]) + " of " + std::to_string(budget) +
                ")");
  }
  // Thm 5.17: reaching BA level x takes at least x(x-1)/2 failures.
  r.Check(depth_max * (depth_max - 1) / 2 <= budget,
          "BA depth above the Thm 5.17 bound for the failures delivered");
  r.Note("trace.crashes", static_cast<double>(crashes[1]), "count");
  r.Check(storm[1] == nullptr || storm[1]->storm_kills(0) == kStormKills,
          "traced loop: storm budget not delivered exactly");
  r.Note("trace.max_attempts_per_passage", static_cast<double>(max_attempts),
         "count");

  uint64_t total_hits = 0, hot_hits = 0, acq = 0, hot_acq = 0;
  for (uint32_t s = 0; s < w.stripes; ++s) {
    total_hits += hits[s];
    hot_hits = std::max(hot_hits, hits[s]);
    const uint64_t a_s = table->EntryAt(s).acquisitions.load();
    acq += a_s;
    hot_acq = std::max(hot_acq, a_s);
  }
  CheckInput(r, "traced_input", static_cast<double>(reads),
             static_cast<double>(puts), static_cast<double>(txns),
             static_cast<double>(hot_hits) / static_cast<double>(total_hits),
             expected_hot);
  r.Metric("striped_table.hot_stripe_share",
           static_cast<double>(hot_acq) / static_cast<double>(acq), "share");

  // Span-derived metrics of the traced phase.
  TraceSummary t = Summarize(arena);
  r.Check(t.dropped == 0, "span buffers overflowed");
  const double kv_ops = static_cast<double>(ops[1]);
  auto& L = t.layer;
  auto at = [&](Layer l) -> LayerStats& { return L[static_cast<int>(l)]; };
  const double lock_ops =
      at(Layer::kRecover).ops + at(Layer::kEnter).ops + at(Layer::kExit).ops;
  const double lock_cc =
      at(Layer::kRecover).cc + at(Layer::kEnter).cc + at(Layer::kExit).cc;
  const double lock_dsm =
      at(Layer::kRecover).dsm + at(Layer::kEnter).dsm + at(Layer::kExit).dsm;
  r.Metric("rmr.ops_per_op", lock_ops / kv_ops, "count");
  r.Metric("rmr.cc_per_op", lock_cc / kv_ops, "count");
  r.Metric("rmr.dsm_per_op", lock_dsm / kv_ops, "count");
  const std::pair<Layer, const char*> core[] = {
      {Layer::kEnter, "enter"}, {Layer::kExit, "exit"}, {Layer::kRecover, "recover"}};
  for (const auto& [l, name] : core) {
    LayerStats& ls = at(l);
    r.Metric(std::string("core.") + name + "_ns.p50", Quantile(ls.dur_ns, 0.5), "ns");
    r.Metric(std::string("core.") + name + "_ns.p99", Quantile(ls.dur_ns, 0.99), "ns");
    r.Metric(std::string("core.") + name + "_cc",
             ls.spans ? ls.cc / static_cast<double>(ls.spans) : 0, "count");
    r.Note(std::string("core.") + name + "_spans", static_cast<double>(ls.spans),
           "count");
  }
  r.Metric("core.ba_depth_mean",
           static_cast<double>(depth_sum) / static_cast<double>(passages), "count");
  r.Metric("core.ba_depth_max", static_cast<double>(depth_max), "count");
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    r.Metric(std::string("self.") + LayerName(static_cast<Layer>(l)) +
                 "_ns_per_op",
             L[l].self_ns / kv_ops, "ns");
  }
  const double share = t.self_sum_ns / t.loop_ns;
  r.Metric("trace.self_time_share", share, "share");
  r.Check(std::fabs(share - 1.0) <= kSelfTimeTolerance,
          "per-layer self times do not sum to the traced op time within 5%");
  r.Metric("trace.ops_per_s", kv_ops / (static_cast<double>(longest[1]) / 1e9),
           "1/s");
  r.Metric("trace.untraced_ops_per_s",
           static_cast<double>(ops[0]) / (static_cast<double>(longest[0]) / 1e9),
           "1/s");
  const std::string path = a.out_dir + "/trace-" + w.name + "-seed" +
                           std::to_string(a.seed) + ".json";
  r.Check(WriteChromeTrace(arena, path, kTraceFileSpansPerClient),
          "could not write " + path);
}

}  // namespace perfbench
