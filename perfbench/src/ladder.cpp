// The first three rungs of the cost ladder, priced in the traced
// run of every workload: a bare std::atomic op, one rmr::Atomic op bound
// with a segment counter mirror, and one passage per lock family in one
// process of an n = nproc lock. A last rung prices the crash layer: `ba`
// passages under in-process crash controllers with fixed budgets.
#include <atomic>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/lock_registry.hpp"
#include "crash/crash.hpp"
#include "locks/lock.hpp"
#include "rmr/counters.hpp"
#include "shm/shm_segment.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr int kBatches = 9;

/// Median ns per call of `body` over kBatches batches of `iters` calls.
template <typename Body>
double NsPerCall(uint64_t iters, Body&& body) {
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < iters; ++i) body();
    per.push_back(static_cast<double>(NowNs() - t0) /
                  static_cast<double>(iters));
  }
  return Median(per);
}

/// Passages of pid 0 on one `ba` lock while the kv-kills budgets are
/// delivered in-process: a recovery storm on pid 0 plus random crashes at
/// any instrumented op. Each crash is healed the way a respawn would heal
/// it: the passage restarts from Recover.
void CrashRung(Report& r, rme::SharedOpCounters* mirror) {
  rme::RecoveryStormCrash storm(uint64_t{1}, kStormKills, 1);
  rme::RandomCrash random(0x6372617368ull, kSelfKillPerOp * 10,
                          static_cast<int64_t>(kIndependentKills) + kSelfKills);
  rme::CompositeCrash chain({&storm, &random});
  auto lock = rme::MakeLock("ba", NumCpus());
  rme::CurrentProcess() = rme::ProcessContext{};
  rme::ProcessBinding bind(0, &chain, mirror);
  auto probe = [&](const char* site) {
    if (chain.ShouldCrash(0, site, true)) throw rme::ProcessCrash{0, site, true, 0};
  };
  uint64_t crashes = 0, depth_max = 0;
  bool after_crash = false;
  std::vector<double> recover_ns;
  for (int i = 0; i < 20'000; ++i) {
    for (;;) {
      try {
        probe("h.recover.brk");
        const int64_t t0 = NowNs();
        lock->Recover(0);
        if (after_crash) recover_ns.push_back(static_cast<double>(NowNs() - t0));
        after_crash = false;
        probe("h.recover.done");
        lock->Enter(0);
        lock->Exit(0);
        depth_max = std::max<uint64_t>(depth_max, lock->LastPathDepth(0));
        break;
      } catch (const rme::ProcessCrash&) {
        ++crashes;
        after_crash = true;
      }
    }
  }
  rme::CurrentProcess().SetCrashController(nullptr);
  lock->OnProcessDone(0);
  const uint64_t budget = kIndependentKills + kSelfKills + kStormKills;
  r.Check(crashes == budget, "crash rung: budget not delivered exactly (" +
                                 std::to_string(crashes) + " of " +
                                 std::to_string(budget) + ")");
  r.Check(storm.storm_kills(0) == kStormKills,
          "crash rung: storm budget not delivered exactly");
  // Thm 5.17: reaching BA level x takes at least x(x-1)/2 failures.
  r.Check(depth_max * (depth_max - 1) / 2 <= crashes,
          "crash rung: BA depth above the Thm 5.17 bound");
  r.Metric("crash.kills", static_cast<double>(crashes), "count");
  r.Metric("crash.storm_kills", static_cast<double>(storm.storm_kills(0)),
           "count");
  r.Metric("crash.recover_after_crash_ns.p50", Quantile(recover_ns, 0.5), "ns");
  r.Metric("crash.ba_depth_max", static_cast<double>(depth_max), "count");
}

}  // namespace

void RunLadder(Report& r) {
  rme::shm::Segment seg(1u << 20);
  auto* mirror = seg.New<rme::SharedOpCounters>();
  auto* instr = seg.New<rme::rmr::Atomic<uint64_t>>(0);
  std::atomic<uint64_t> native{0};

  r.Metric("rmr.atomic_native_ns", NsPerCall(1u << 20, [&] {
             native.fetch_add(1, std::memory_order_seq_cst);
           }),
           "ns");
  {
    rme::CurrentProcess() = rme::ProcessContext{};
    rme::ProcessBinding bind(0, nullptr, mirror);
    r.Metric("rmr.atomic_instr_ns", NsPerCall(1u << 20, [&] {
               instr->FetchAdd(1, "perfbench.ladder");
             }),
             "ns");
  }
  r.Check(native.load() == instr->RawLoad(), "ladder atomics disagree");

  const int n = NumCpus();
  for (const char* family : {"mcs", "wr", "kport-tree", "sa", "ba"}) {
    auto lock = rme::MakeLock(family, n);
    const bool recoverable = lock->SupportsSharedPlacement();
    rme::CurrentProcess() = rme::ProcessContext{};
    rme::ProcessBinding bind(0, nullptr, mirror);
    constexpr uint64_t kPassages = 100'000;
    const rme::OpCounters c0 = rme::CurrentProcess().counters;
    const double ns = NsPerCall(kPassages, [&] {
      if (recoverable) lock->Recover(0);
      lock->Enter(0);
      lock->Exit(0);
    });
    const rme::OpCounters d = rme::CurrentProcess().counters - c0;
    const std::string key = std::string("locks.") + family;
    r.Metric(key + ".passage_ns", ns, "ns");
    r.Metric(key + ".passage_cc",
             static_cast<double>(d.cc_rmrs) / (kBatches * kPassages), "count");
    lock->OnProcessDone(0);
  }
  CrashRung(r, mirror);
}

}  // namespace perfbench
