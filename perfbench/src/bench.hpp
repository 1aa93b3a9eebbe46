#pragma once
// Shared machinery of perfbench, the anole benchmark: the seeded input
// generator, output digests, the span tracer, the closed-loop runner and
// the per-workload interface. Every workload calls libanole only through
// its public headers, so perfbench measures the library from outside.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "portgraph/port_graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64, owned by the benchmark so its inputs do not move when the
/// library's own generator changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi]; the modulo bias is irrelevant at these ranges.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Point i of a seeded golden-ratio sequence in [0, 1): any run of
/// consecutive points covers the interval evenly, so a few hundred ops see
/// the same spread of sizes under every seed.
[[nodiscard]] inline double spread_point(std::uint64_t seed, std::size_t i) {
  const double x = static_cast<double>(seed % 1000003) * 0.7548776662466927 +
                   static_cast<double>(i) * 0.6180339887498949;
  return x - static_cast<double>(static_cast<std::uint64_t>(x));
}

/// lo + floor(u * (hi - lo + 1)), u in [0, 1): an integer in [lo, hi].
[[nodiscard]] inline std::size_t scale(double u, std::size_t lo,
                                       std::size_t hi) {
  return lo + static_cast<std::size_t>(u * static_cast<double>(hi - lo + 1));
}

/// Independent stream `k` of workload seed `seed`.
[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t seed,
                                               std::uint64_t k) {
  return Rng(seed * 0x100000001b3ULL ^ (k + 1) * 0x9e3779b97f4a7c15ULL).next();
}

/// Order-sensitive 64-bit digest (FNV-1a over words).
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Digest of a graph's full port structure: identifies an input exactly.
[[nodiscard]] std::uint64_t graph_digest(const anole::portgraph::PortGraph& g);

// ------------------------------------------------------------- tracing

struct Span {
  const char* name;
  double start_ms;
  double end_ms;
  std::int32_t parent;  ///< index into the same tracer's spans, or -1
  std::int64_t op;      ///< op id; set-up spans use -1 - setup index
};

/// Records the spans of one thread in memory.
class Tracer {
 public:
  void begin_op(std::int64_t op) { op_ = op; }
  std::int32_t open(const char* name);
  void close(std::int32_t idx);
  void rename(std::int32_t idx, const char* name) { spans_[idx].name = name; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int64_t op_ = 0;
};

/// RAII span; a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t) {
    if (t_ != nullptr) idx_ = t_->open(name);
  }
  ~Scope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void rename(const char* name) {
    if (t_ != nullptr) t_->rename(idx_, name);
  }

 private:
  Tracer* t_;
  std::int32_t idx_ = -1;
};

/// Measures an op's latency with work set aside: `aside(name, fn)` runs
/// fn inside a span `name` and takes its duration out of the latency.
/// Probes (extra calls that split an op into layers, traced run only)
/// and output checks go aside.
class OpTimer {
 public:
  explicit OpTimer(Tracer* t) : t_(t), start_(Clock::now()) {}
  template <typename Fn>
  void aside(const char* name, Fn&& fn) {
    const Clock::time_point p0 = Clock::now();
    {
      Scope s(t_, name);
      fn();
    }
    aside_ms_ += ms_between(p0, Clock::now());
  }
  [[nodiscard]] double ms() const {
    return ms_between(start_, Clock::now()) - aside_ms_;
  }

 private:
  Tracer* t_;
  Clock::time_point start_;
  double aside_ms_ = 0.0;
};

/// Per-layer aggregation of traced spans. A span's self time is its
/// duration minus its children's; a layer's time in one op is the summed
/// self time of its spans in that op, and every figure is a median.
class SpanStats {
 public:
  SpanStats(const std::vector<Tracer>& phase,
            const std::vector<Tracer>& setups);
  /// Median over ops that have a span `name` of the op's total; 0 when
  /// no op has one.
  [[nodiscard]] double per_op(const std::string& name) const;
  /// Median over set-ups of the set-up's total; 0 when none has one.
  [[nodiscard]] double per_setup(const std::string& name) const;
  /// Median over ops that have span `a` of (total of a - total of b).
  [[nodiscard]] double per_op_diff(const std::string& a,
                                   const std::string& b) const;
  /// Writes each layer's share of the phase's op time, one line each.
  /// Probe and check spans, and every span under them, are left out of
  /// op time as they are left out of op latency; spans under a probe are
  /// listed apart, with the differences the probes exist for.
  void print_shares(std::ostream& os) const;

 private:
  /// name -> op id -> summed self time (ms); set-ups have negative ids.
  std::map<std::string, std::map<std::int64_t, double>> totals_;
  /// name -> self time summed over the phase's ops (ms), split by whether
  /// the span counts in op time or sits under a probe.
  std::map<std::string, double> in_ops_;
  std::map<std::string, double> in_probes_;
  double op_ms_ = 0.0;  ///< the phase's op time: the sum of in_ops_
};

/// Writes every span, one tab-separated line each, with a header line.
void write_spans(const std::filesystem::path& path,
                 const std::vector<Tracer>& phase,
                 const std::vector<Tracer>& setups);

/// The q-quantile (0..1) of `v` by linear interpolation; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// The machine's speed, from a fixed job that calls no library code: it
/// sorts and hashes arrays it owns and allocates nothing while it runs.
/// The shared machine this was tuned on switches for minutes at a time
/// between speeds 1.6-1.9x apart, and library ops and such a job slow
/// down together (in a probe, an elect op's time over an earlier form of
/// the job stayed within 1.32-1.37 while both moved 1.9x), so the
/// end-to-end timings are scaled by the job's time.
class SpeedRef {
 public:
  /// The job's time on the nominal machine: the fast speed of the 4-vCPU
  /// virtual machine the benchmark was tuned on.
  static constexpr double kNominalMs = 5.0;

  SpeedRef();
  /// Runs the job back to back for `seconds`, keeping every time.
  void sample(double seconds);
  /// Runs the job once and keeps its time.
  void sample_once() { ms_.push_back(once()); }
  /// The fast quartile of the job's times over kNominalMs: above 1 on a
  /// machine slower than the nominal one. Times divide by it, rates
  /// multiply by it.
  [[nodiscard]] double slowdown() const;

 private:
  double once();

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> work_;
  std::vector<std::uint32_t> table_;
  std::vector<double> ms_;
  std::uint64_t sink_ = 0;
};

// ------------------------------------------------------------ workloads

/// Deterministic per-op outputs, summed over the fixed op prefix: they
/// must repeat exactly for one seed.
struct Counts {
  std::uint64_t records = 0;      ///< view records interned
  std::uint64_t rounds = 0;       ///< simulated rounds
  std::uint64_t bits = 0;         ///< metered message bits
  std::uint64_t advice_bits = 0;  ///< advice string lengths
  std::uint64_t reads = 0;        ///< service reads
  std::uint64_t computed = 0;     ///< reads answered by computing

  Counts& operator+=(const Counts& o);
};

/// What one op reports back to the loop.
struct OpOut {
  double ms = 0.0;     ///< latency, work set aside excluded
  double end_s = 0.0;  ///< completion time within the phase
  bool ok = true;      ///< every inline check passed
  Counts counts;
  std::uint64_t in_hash = 0;   ///< identifies the op's input
  std::uint64_t out_hash = 0;  ///< identifies the op's output
};

/// How long a phase runs: `exact` ops per client when non-empty (a
/// replay), else until `seconds` of op time and at least `min_ops` ops.
struct Plan {
  double seconds = 0.0;
  std::vector<std::size_t> exact;
  std::size_t min_ops = 0;
  /// When set, the phase samples the machine's speed between ops, once
  /// per kSpeedEveryMs of op time (of wall time in serve), so the samples
  /// see the same stretches of the machine's speed as the ops do.
  SpeedRef* speed = nullptr;
};

inline constexpr double kSpeedEveryMs = 100.0;

struct PhaseResult {
  std::vector<double> op_ms;
  std::vector<double> op_end_s;
  /// One entry per attempted op; post-phase checks clear failing ones.
  std::vector<std::uint8_t> op_ok;
  std::vector<std::size_t> per_client;  ///< ops completed by each client
  Counts counts;                        ///< over the fixed op prefix
  Digest inputs;                        ///< over the fixed op prefix
  Digest outputs;                       ///< over the fixed op prefix
  std::vector<Tracer> tracers;          ///< one per client thread
  /// The process's peak resident set when the phase's last op ended:
  /// set-up and timed ops, not the post-phase checks.
  double peak_rss_mb = 0.0;

  void add(std::size_t i, std::size_t prefix, const OpOut& o);
};

/// The process's peak resident set so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// The end-to-end timing figures of a phase, robust to the speed swings of
/// a shared machine: the ops, in completion order, are cut into up to ten
/// slices of equal count, each figure is taken per slice, and the fast
/// quartile over slices is reported. Rate and p50 slices hold at least ten
/// ops; tail slices at least ten samples beyond the tail percentile.
struct Timing {
  double ops_per_s = 0.0;  ///< slice ops / time the slice took
  double p50_ms = 0.0;
  double tail_ms = 0.0;
};
[[nodiscard]] Timing timing(const PhaseResult& r, double tail_q);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input (and service) from the seed, dropping any state
  /// an earlier set-up or phase left behind.
  virtual void setup(Tracer* tracer) = 0;
  /// Runs one phase on the current set-up.
  virtual PhaseResult run(const Plan& plan, bool trace) = 0;
  /// Checks made after the phase, outside its timing: clears op_ok of
  /// every op whose output they reject.
  virtual void check(PhaseResult& r) { (void)r; }
  /// Traced run only: serial time over 2-worker-pool time of the work the
  /// pool can split; 0 when the workload has none.
  virtual double pool2_speedup() { return 0.0; }
  /// Ops over which counts and digests are taken.
  [[nodiscard]] virtual std::size_t prefix() const = 0;
  /// Tail percentile reported as op_ms_tail (90 or 99).
  [[nodiscard]] virtual double tail_pct() const = 0;
  /// Closed-loop clients; Plan::exact has one entry per client.
  [[nodiscard]] virtual std::size_t clients() const { return 1; }
};

struct Context {
  std::uint64_t seed = 1;
  std::filesystem::path scratch;  ///< private directory for files
};

std::unique_ptr<Workload> make_elect(const Context& ctx);
std::unique_ptr<Workload> make_meter(const Context& ctx);
std::unique_ptr<Workload> make_sweep(const Context& ctx);
std::unique_ptr<Workload> make_serve(const Context& ctx);

/// The single-threaded closed loop shared by elect, meter and sweep:
/// op(i, tracer) runs op i of the seeded sequence.
template <typename OpFn>
PhaseResult closed_loop(const Plan& plan, std::size_t prefix, bool trace,
                        OpFn&& op) {
  PhaseResult r;
  r.tracers.resize(1);
  Tracer* t = trace ? &r.tracers[0] : nullptr;
  double busy_ms = 0.0;
  double next_speed_ms = 0.0;
  for (std::size_t i = 0;; ++i) {
    if (!plan.exact.empty() ? i >= plan.exact[0]
                            : busy_ms >= plan.seconds * 1e3 &&
                                  i >= plan.min_ops) {
      break;
    }
    if (t != nullptr) t->begin_op(static_cast<std::int64_t>(i));
    OpOut o;
    {
      Scope s(t, "op");
      o = op(i, t);
    }
    busy_ms += o.ms;
    o.end_s = busy_ms / 1e3;
    r.add(i, prefix, o);
    if (plan.speed != nullptr && busy_ms >= next_speed_ms) {
      plan.speed->sample_once();
      next_speed_ms = busy_ms + kSpeedEveryMs;
    }
  }
  r.peak_rss_mb = peak_rss_mb();
  r.per_client = {r.op_ok.size()};
  return r;
}

}  // namespace perfbench
