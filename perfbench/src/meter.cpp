// meter: message metering. Each op runs a fixed-round COM protocol with
// metering on, in a fresh repo, over a sparse random graph or a clique.
// A seeded sample of ops is re-run after the phase through the per-node
// reference engine, whose metered bits must match.

#include "bench.hpp"
#include "com.hpp"
#include "portgraph/builders.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

using namespace anole;

// Distinct graphs. A run of 2400+ ops wraps around; each op still runs in
// a fresh repo, so a repeated graph costs what it cost the first time.
constexpr std::size_t kPool = 2048;
constexpr std::size_t kSampleEvery = 64;  // engine cross-check rate

struct MeterInput {
  portgraph::PortGraph g;
  int rounds = 0;
};

class Meter final : public Workload {
 public:
  explicit Meter(const Context& ctx) : seed_(ctx.seed) {}

  void setup(Tracer* tracer) override {
    pool_.clear();
    pool_.reserve(kPool);
    Rng rng(stream_seed(seed_, 1));
    for (std::size_t i = 0; i < kPool; ++i) {
      Scope s(tracer, "portgraph.build");
      MeterInput in;
      // Alternating shapes and evenly spread sizes: every seed gets the
      // same mix; the seed moves the sizes and draws the random graphs.
      const double u = spread_point(seed_, i / 2);
      if (i % 2 == 0) {
        const std::size_t n = scale(u, 96, 256);
        in.g = portgraph::random_connected(n, 2 * n, rng.next());
        in.rounds = 8;
      } else {
        in.g = portgraph::clique(scale(u, 40, 96));
        in.rounds = 6;
      }
      pool_.push_back(std::move(in));
    }
    sample_offset_ = stream_seed(seed_, 2) % kSampleEvery;
  }

  PhaseResult run(const Plan& plan, bool trace) override {
    sampled_.clear();
    return closed_loop(plan, prefix(), trace,
                       [this](std::size_t i, Tracer* t) { return op(i, t); });
  }

  void check(PhaseResult& r) override {
    for (const auto& [i, m] : sampled_) {
      const MeterInput& in = pool_[i % kPool];
      views::ViewRepo repo;
      Programs p = com_programs(in.g.n(), in.rounds);
      sim::Engine engine(in.g, repo);
      const sim::RunMetrics ref = engine.run(p, in.rounds + 1, true);
      if (ref.rounds != m.rounds || ref.message_count != m.message_count ||
          ref.total_message_bits != m.total_message_bits ||
          ref.max_message_bits != m.max_message_bits ||
          ref.bits_per_round != m.bits_per_round) {
        r.op_ok[i] = 0;
      }
    }
  }

  [[nodiscard]] std::size_t prefix() const override { return 64; }
  [[nodiscard]] double tail_pct() const override { return 99; }

 private:
  OpOut op(std::size_t i, Tracer* t) {
    const MeterInput& in = pool_[i % kPool];
    OpOut out;
    out.in_hash = graph_digest(in.g);
    OpTimer timer(t);
    sim::RunMetrics m;
    {
      views::ViewRepo repo;
      Programs p;
      {
        Scope s(t, "sim.alloc");
        p = com_programs(in.g.n(), in.rounds);
      }
      {
        Scope s(t, "sim.run");
        m = sim::run_full_info(in.g, repo, p, in.rounds + 1, true);
      }
      out.counts.records = repo.size();
    }
    if (t != nullptr) {
      // The same run unmetered: the difference is the metering cost.
      timer.aside("probe.unmetered", [&] {
        views::ViewRepo repo;
        Programs p = com_programs(in.g.n(), in.rounds);
        Scope s(t, "sim.unmetered");
        (void)sim::run_full_info(in.g, repo, p, in.rounds + 1, false);
      });
    }
    out.ms = timer.ms();
    out.ok = !m.timed_out && m.rounds == in.rounds;
    out.counts.rounds = static_cast<std::uint64_t>(m.rounds);
    out.counts.bits = m.total_message_bits;
    Digest d;
    d.add(m.total_message_bits);
    d.add(m.max_message_bits);
    d.add(m.message_count);
    d.add(out.counts.records);
    out.out_hash = d.h;
    if (i % kSampleEvery == sample_offset_) sampled_.emplace_back(i, m);
    return out;
  }

  std::uint64_t seed_;
  std::vector<MeterInput> pool_;
  std::uint64_t sample_offset_ = 0;
  std::vector<std::pair<std::size_t, sim::RunMetrics>> sampled_;
};

}  // namespace

std::unique_ptr<Workload> make_meter(const Context& ctx) {
  return std::make_unique<Meter>(ctx);
}

}  // namespace perfbench
