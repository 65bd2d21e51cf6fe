// Span recording for the traced benchmark runs.
//
// Each forked client writes spans into its own region of one shared
// anonymous mapping made by the parent before the fork, so the parent can
// read every client's spans after reaping it. A span is recorded around a
// call into one layer's public function; spans nest (a stack per client)
// and all spans of one op share the op's id. Counter deltas of the
// calling process's rmr::OpCounters are captured at the same boundaries,
// so CC/DSM RMR ratios are measured exactly where the time is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers a span can be charged to. Names print as "<layer>.<call>".
enum class Layer : uint16_t {
  kOp = 0,        ///< one closed-loop client step (root of every op)
  kDraw,          ///< workload generator draws (benchmark-side NCS)
  kLookup,        ///< runtime/striped_table: StripeOf + LockAt
  kRecover,       ///< core: RecoverableLock::Recover
  kEnter,         ///< core: Enter / EnterMany
  kCs,            ///< the critical-section body on the KV cells
  kExit,          ///< core: Exit / ExitMany
  kLeaseAcquire,  ///< runtime/lockd: AcquireLease
  kLeaseRelease,  ///< runtime/lockd: ReleaseLease
  kDirLookup,     ///< runtime/lockd: GetOrInsertEntry
  kLdPassage,     ///< runtime/lockd: RunPassage
  kCount
};

const char* LayerName(Layer l);

/// 48 bytes; `parent` indexes the same client's span array (-1 = root).
struct Span {
  uint64_t op = 0;
  int64_t t0 = 0, t1 = 0;  ///< CLOCK_MONOTONIC ns
  int32_t parent = -1;
  uint16_t layer = 0;
  uint16_t crashed = 0;     ///< closed by a ProcessCrash unwinding through it
  uint32_t cc = 0, dsm = 0, ops = 0;
  uint32_t pad = 0;
};

/// Per-client span storage header, followed by `capacity` Spans.
struct SpanRegion {
  uint64_t capacity = 0;
  uint64_t count = 0;        ///< spans written (<= capacity)
  uint64_t dropped = 0;      ///< spans that did not fit
  int64_t loop_ns = 0;       ///< the client's whole op-phase wall time
};

int64_t NowNs();

/// One shared mapping holding a SpanRegion per client. Made before fork.
class SpanArena {
 public:
  SpanArena(int clients, uint64_t spans_per_client);
  ~SpanArena();
  SpanArena(const SpanArena&) = delete;
  SpanArena& operator=(const SpanArena&) = delete;

  SpanRegion* region(int client) const;
  Span* spans(int client) const;
  int clients() const { return clients_; }

 private:
  int clients_;
  uint64_t per_client_;
  size_t stride_;
  size_t bytes_;
  void* base_;
};

/// The per-client recorder. With a null region every call is a no-op, so
/// the same client loop runs traced and untraced.
class Tracer {
 public:
  /// Op ids are unique across clients: the client index sits in the top
  /// bits.
  Tracer(SpanRegion* region, int client)
      : region_(region), op_(static_cast<uint64_t>(client) << 40) {}

  void BeginOp() { ++op_; }

  /// RAII span. Closed on scope exit, including unwinding by ProcessCrash.
  class Scope {
   public:
    Scope(Tracer& t, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int64_t idx_ = -1;
  };

 private:
  friend class Scope;
  SpanRegion* region_;
  uint64_t op_;
  int32_t stack_[16] = {};
  int depth_ = 0;
};

/// Aggregates over every client's spans.
struct LayerStats {
  uint64_t spans = 0;
  double self_ns = 0;            ///< duration minus time covered by children
  double cc = 0, dsm = 0, ops = 0;
  std::vector<double> dur_ns;    ///< every span's duration
};

struct TraceSummary {
  LayerStats layer[static_cast<int>(Layer::kCount)];
  uint64_t dropped = 0;
  double self_sum_ns = 0;        ///< sum of every span's self time
  double loop_ns = 0;            ///< sum of the clients' op-phase wall time
};

TraceSummary Summarize(const SpanArena& arena);

/// Writes the spans as Chrome trace-event JSON ("X" complete events, one
/// tid per client, ts/dur in microseconds with ns digits). At most
/// `max_per_client` spans per client are written; the summary covers all.
bool WriteChromeTrace(const SpanArena& arena, const std::string& path,
                      uint64_t max_per_client);

/// Quantile of a sample (sorts in place); 0 when empty.
double Quantile(std::vector<double>& v, double q);

}  // namespace perfbench
