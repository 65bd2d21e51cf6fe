#include "trace.hpp"

#include <sys/mman.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <exception>

#include "rmr/memory_model.hpp"
#include "util/assert.hpp"

namespace perfbench {

const char* LayerName(Layer l) {
  static const char* kNames[] = {
      "op",              "gen.draw",          "striped_table.lookup",
      "core.recover",    "core.enter",        "kv.cs",
      "core.exit",       "lockd.acquire_lease", "lockd.release_lease",
      "lockd.lookup",    "lockd.passage"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Layer::kCount));
  return kNames[static_cast<int>(l)];
}

int64_t NowNs() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

SpanArena::SpanArena(int clients, uint64_t spans_per_client)
    : clients_(clients), per_client_(spans_per_client) {
  stride_ = sizeof(SpanRegion) + per_client_ * sizeof(Span);
  stride_ = (stride_ + 63) & ~size_t{63};
  bytes_ = stride_ * static_cast<size_t>(clients_);
  base_ = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  RME_CHECK_MSG(base_ != MAP_FAILED, "perfbench: span arena mmap failed");
  for (int c = 0; c < clients_; ++c) {
    *region(c) = SpanRegion{};
    region(c)->capacity = per_client_;
  }
}

SpanArena::~SpanArena() { ::munmap(base_, bytes_); }

SpanRegion* SpanArena::region(int client) const {
  return reinterpret_cast<SpanRegion*>(static_cast<char*>(base_) +
                                       stride_ * static_cast<size_t>(client));
}

Span* SpanArena::spans(int client) const {
  return reinterpret_cast<Span*>(region(client) + 1);
}

Tracer::Scope::Scope(Tracer& t, Layer layer) : t_(t) {
  SpanRegion* r = t_.region_;
  if (r == nullptr) return;
  if (r->count >= r->capacity || t_.depth_ >= 16) {
    ++r->dropped;
    return;
  }
  idx_ = static_cast<int64_t>(r->count++);
  Span& s = reinterpret_cast<Span*>(r + 1)[idx_];
  s.op = t_.op_;
  s.layer = static_cast<uint16_t>(layer);
  s.parent = t_.depth_ > 0 ? t_.stack_[t_.depth_ - 1] : -1;
  t_.stack_[t_.depth_++] = static_cast<int32_t>(idx_);
  const rme::OpCounters& c = rme::CurrentProcess().counters;
  s.cc = static_cast<uint32_t>(c.cc_rmrs);
  s.dsm = static_cast<uint32_t>(c.dsm_rmrs);
  s.ops = static_cast<uint32_t>(c.ops);
  s.t0 = NowNs();
}

Tracer::Scope::~Scope() {
  if (idx_ < 0) return;
  const int64_t t1 = NowNs();
  Span& s = reinterpret_cast<Span*>(t_.region_ + 1)[idx_];
  s.t1 = t1;
  const rme::OpCounters& c = rme::CurrentProcess().counters;
  s.cc = static_cast<uint32_t>(c.cc_rmrs) - s.cc;
  s.dsm = static_cast<uint32_t>(c.dsm_rmrs) - s.dsm;
  s.ops = static_cast<uint32_t>(c.ops) - s.ops;
  s.crashed = std::uncaught_exceptions() > 0 ? 1 : 0;
  --t_.depth_;
}

TraceSummary Summarize(const SpanArena& arena) {
  TraceSummary out;
  for (int c = 0; c < arena.clients(); ++c) {
    const SpanRegion* r = arena.region(c);
    const Span* sp = arena.spans(c);
    const uint64_t n = r->count;
    out.dropped += r->dropped;
    out.loop_ns += static_cast<double>(r->loop_ns);
    std::vector<double> child_ns(n, 0.0);
    for (uint64_t i = 0; i < n; ++i) {
      if (sp[i].parent >= 0) {
        child_ns[static_cast<size_t>(sp[i].parent)] +=
            static_cast<double>(sp[i].t1 - sp[i].t0);
      }
    }
    for (uint64_t i = 0; i < n; ++i) {
      const Span& s = sp[i];
      const double dur = static_cast<double>(s.t1 - s.t0);
      LayerStats& ls = out.layer[s.layer];
      ++ls.spans;
      ls.self_ns += dur - child_ns[i];
      ls.cc += s.cc;
      ls.dsm += s.dsm;
      ls.ops += s.ops;
      ls.dur_ns.push_back(dur);
      out.self_sum_ns += dur - child_ns[i];
    }
  }
  return out;
}

bool WriteChromeTrace(const SpanArena& arena, const std::string& path,
                      uint64_t max_per_client) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  int64_t t_base = INT64_MAX;
  for (int c = 0; c < arena.clients(); ++c) {
    if (arena.region(c)->count > 0) {
      t_base = std::min(t_base, arena.spans(c)[0].t0);
    }
  }
  bool first = true;
  for (int c = 0; c < arena.clients(); ++c) {
    const Span* sp = arena.spans(c);
    const uint64_t n = std::min(arena.region(c)->count, max_per_client);
    for (uint64_t i = 0; i < n; ++i) {
      const Span& s = sp[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"op\": %llu, \"span\": %llu, \"parent\": %d, "
                   "\"cc\": %u, \"dsm\": %u, \"crashed\": %u}}",
                   first ? "" : ",\n", LayerName(static_cast<Layer>(s.layer)),
                   c, static_cast<double>(s.t0 - t_base) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3,
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(i), s.parent, s.cc, s.dsm,
                   s.crashed);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  return v[static_cast<size_t>(pos + 0.5)];
}

}  // namespace perfbench
