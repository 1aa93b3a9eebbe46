// elect: the paper's advice/time tradeoff end to end. Each op takes a
// fresh feasible graph and runs all eight portfolio algorithms on one
// ElectionContext, checking every run against its paper time bound.

#include <string>

#include "bench.hpp"
#include "advice/min_time.hpp"
#include "com.hpp"
#include "election/generic.hpp"
#include "election/harness.hpp"
#include "election/verify.hpp"
#include "portgraph/builders.hpp"
#include "runner/portfolio.hpp"
#include "sim/full_info.hpp"
#include "views/profile.hpp"

namespace perfbench {

namespace {

using namespace anole;
using election::LargeTimeVariant;

// Distinct graphs. A fast run wraps around; each op still builds a fresh
// ElectionContext, so a repeated graph costs what it cost the first time.
constexpr std::size_t kPool = 1024;
constexpr std::uint64_t kC = 2;  // the portfolio's constant c

/// Op graph i: one of four shapes of 16..64 nodes by rotation, its size
/// from a seeded even spread, its ports and structure from `rng`. The
/// sizes keep the four shapes' op costs within a factor of 1.5 of each
/// other.
portgraph::PortGraph draw_graph(std::uint64_t seed, std::size_t i, Rng& rng) {
  const double u = spread_point(seed, i / 4);
  const std::uint64_t s = rng.next();
  switch (i % 4) {
    case 0: {
      const std::size_t n = scale(u, 24, 48);
      return portgraph::random_connected(
          n, n / 2 + static_cast<std::size_t>(rng.range(0, 8)), s);
    }
    case 1: {
      const auto head = static_cast<std::size_t>(rng.range(3, 5));
      return portgraph::shuffle_ports(
          portgraph::lollipop(head, scale(u, 16, 22)), s);
    }
    case 2:
      return portgraph::shuffle_ports(portgraph::binary_tree(scale(u, 24, 64)),
                                      s);
    default: {
      std::vector<int> legs(scale(u, 8, 16));
      for (int& l : legs) l = static_cast<int>(rng.range(1, 3));
      return portgraph::caterpillar(legs.size(), legs);
    }
  }
}

/// The paper's time bound for a portfolio row (by its time model), or -1
/// when the row is unknown. Election3's Theorem 4.1 budget assumes
/// phi >= 2; below that Lemma 4.1's D + P + 1 is the bound.
long long paper_bound(const std::string& model, long long n, long long d,
                      long long phi) {
  auto large = [&](LargeTimeVariant v) {
    if (v == LargeTimeVariant::kPhiPowC && phi < 2) {
      const auto p = election::large_time_parameter(
          v, election::large_time_advice(v, static_cast<std::uint64_t>(phi)));
      return d + static_cast<long long>(p) + 1;
    }
    return static_cast<long long>(election::large_time_bound(
        v, static_cast<std::uint64_t>(d), static_cast<std::uint64_t>(phi),
        kC));
  };
  if (model == "phi") return phi;
  if (model == "D+phi") return d + phi;
  if (model == "D+phi+c") return large(LargeTimeVariant::kPhiPlusC);
  if (model == "D+c*phi") return large(LargeTimeVariant::kCTimesPhi);
  if (model == "D+phi^c") return large(LargeTimeVariant::kPhiPowC);
  if (model == "D+c^phi") return large(LargeTimeVariant::kCPowPhi);
  if (model == "D+n+1") return d + n + 1;
  return -1;
}

class Elect final : public Workload {
 public:
  explicit Elect(const Context& ctx)
      : seed_(ctx.seed), portfolio_(runner::election_portfolio(kC)) {}

  void setup(Tracer* tracer) override {
    pool_.clear();
    pool_.reserve(kPool);
    Rng rng(stream_seed(seed_, 0));
    while (pool_.size() < kPool) {
      portgraph::PortGraph g;
      {
        Scope s(tracer, "portgraph.build");
        g = draw_graph(seed_, pool_.size(), rng);
      }
      // Redraw infeasible graphs: no op ever fails for want of a leader.
      views::ViewRepo scratch;
      if (views::compute_profile(g, scratch).feasible)
        pool_.push_back(std::move(g));
    }
  }

  PhaseResult run(const Plan& plan, bool trace) override {
    return closed_loop(plan, prefix(), trace,
                       [this](std::size_t i, Tracer* t) { return op(i, t); });
  }

  [[nodiscard]] std::size_t prefix() const override { return 32; }
  [[nodiscard]] double tail_pct() const override { return 90; }

 private:
  OpOut op(std::size_t i, Tracer* t) {
    const portgraph::PortGraph& g = pool_[i % kPool];
    OpOut out;
    out.in_hash = graph_digest(g);
    Digest result;
    OpTimer timer(t);
    {
      std::unique_ptr<election::ElectionContext> ctx;
      {
        Scope s(t, "views.profile");
        ctx = std::make_unique<election::ElectionContext>(g);
      }
      const long long n = static_cast<long long>(g.n());
      const long long d = g.diameter();
      const long long phi = ctx->phi();
      for (const runner::PortfolioAlgorithm& alg : portfolio_) {
        election::ProgramSet set;
        {
          Scope s(t, "election.make");
          set = alg.make(*ctx);
        }
        sim::RunMetrics m;
        {
          Scope s(t, "sim.run");
          m = sim::run_full_info(g, ctx->repo(), set.programs, set.max_rounds);
        }
        if (t != nullptr) {
          // The same rounds with do-nothing programs: what run_full_info
          // costs without the algorithm's decision hooks.
          timer.aside("probe.replay", [&] {
            Programs p = com_programs(g.n(), m.rounds);
            Scope s(t, "sim.replay");
            (void)sim::run_full_info(g, ctx->repo(), p, m.rounds + 1);
          });
        }
        election::VerifyResult vr;
        {
          Scope s(t, "election.verify");
          vr = election::verify_election(g, m.outputs);
        }
        const long long bound = paper_bound(alg.model, n, d, phi);
        out.ok = out.ok && vr.ok && !m.timed_out && bound >= 0 &&
                 m.rounds <= bound;
        out.counts.rounds += static_cast<std::uint64_t>(m.rounds);
        out.counts.bits += m.total_message_bits;
        out.counts.advice_bits += set.advice_bits;
        result.add(static_cast<std::uint64_t>(m.rounds));
        result.add(set.advice_bits);
        result.add(static_cast<std::uint64_t>(vr.leader));
      }
      out.counts.records = ctx->repo().size();
      result.add(out.counts.records);
      if (t != nullptr) {
        // Elect's make builds its advice inside; time that step alone.
        timer.aside("probe.advice", [&] {
          Scope s(t, "advice.compute");
          (void)advice::compute_advice(g, ctx->repo(), ctx->profile);
        });
      }
    }
    out.ms = timer.ms();
    out.out_hash = result.h;
    return out;
  }

  std::uint64_t seed_;
  std::vector<runner::PortfolioAlgorithm> portfolio_;
  std::vector<portgraph::PortGraph> pool_;
};

}  // namespace

std::unique_ptr<Workload> make_elect(const Context& ctx) {
  return std::make_unique<Elect>(ctx);
}

}  // namespace perfbench
