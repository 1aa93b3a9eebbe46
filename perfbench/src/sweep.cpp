// sweep: refinement, snapshot attach and per-node dispatch at scale. Set-up
// builds four large graphs and saves one snapshot of their sweep anchors;
// one op is a batch of cold sweeps, warm resumes of the same graphs from
// the mmap-attached snapshot, and a COM run with one program per node.

#include <algorithm>
#include <array>

#include "bench.hpp"
#include "com.hpp"
#include "portgraph/builders.hpp"
#include "sim/full_info.hpp"
#include "util/thread_pool.hpp"
#include "views/profile.hpp"
#include "views/snapshot.hpp"

namespace perfbench {

namespace {

using namespace anole;

constexpr int kComRounds = 32;

struct SweepGraph {
  portgraph::PortGraph g;
  int anchor_depth = 0;  ///< depth of the saved anchor (0: to convergence)
  int depth = 0;         ///< depth of the cold sweep and the warm resume
};

/// What a sweep must reproduce: class counts, feasibility, election index
/// and the canonical order of the last level.
struct SweepResult {
  std::vector<std::size_t> counts;
  bool feasible = false;
  int phi = -1;
  std::vector<std::int32_t> order;

  bool operator==(const SweepResult&) const = default;
};

/// The last level's ranks renumbered densely: the canonical order among
/// the level's own views, comparable across repos that hold other views.
SweepResult summarize(const views::ViewRepo& repo,
                      const views::ViewProfile& p) {
  SweepResult r{p.class_counts, p.feasible, p.election_index, {}};
  const std::vector<views::ViewId>& level = p.last_level();
  std::vector<std::int32_t> ranks(level.size());
  for (std::size_t v = 0; v < level.size(); ++v) ranks[v] = repo.rank(level[v]);
  std::vector<std::int32_t> distinct = ranks;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  r.order.resize(ranks.size());
  for (std::size_t v = 0; v < ranks.size(); ++v) {
    r.order[v] = static_cast<std::int32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), ranks[v]) -
        distinct.begin());
  }
  return r;
}

views::ProfileOptions sweep_options(const SweepGraph& s,
                                    util::ThreadPool* pool = nullptr) {
  views::ProfileOptions o;
  o.min_depth = s.depth;
  o.keep_history = false;
  o.pool = pool;
  return o;
}

class Sweep final : public Workload {
 public:
  explicit Sweep(const Context& ctx)
      : seed_(ctx.seed), snapshot_((ctx.scratch / "sweep.snap").string()) {}

  void setup(Tracer* tracer) override {
    graphs_.clear();
    {
      Scope s(tracer, "portgraph.build");
      const std::uint64_t a = stream_seed(seed_, 3);
      const std::uint64_t b = stream_seed(seed_, 4);
      graphs_.push_back({portgraph::random_connected(16384, 8192, a), 0, 0});
      graphs_.push_back(
          {portgraph::shuffle_ports(portgraph::binary_tree(16383), b), 0, 0});
      graphs_.push_back({portgraph::ring(std::size_t{1} << 18), 256, 512});
      graphs_.push_back({portgraph::torus(256, 256), 256, 512});
      ring_ = portgraph::ring(std::size_t{1} << 16);
    }
    Digest d;
    for (const SweepGraph& s : graphs_) d.add(graph_digest(s.g));
    d.add(graph_digest(ring_));
    in_hash_ = d.h;

    views::ViewRepo repo;
    std::vector<views::SweepAnchor> anchors;
    for (const SweepGraph& s : graphs_) {
      views::ProfileOptions o = sweep_options(s);
      o.min_depth = s.anchor_depth;
      views::ViewProfile p;
      {
        Scope sp(tracer, "views.profile");
        p = views::compute_profile(s.g, repo, o);
      }
      anchors.push_back(
          views::make_anchor(s.g, p.last_level(), p.class_counts));
    }
    {
      Scope sp(tracer, "views.save");
      views::save_snapshot(snapshot_, repo, anchors);
    }
    (void)op(nullptr);  // warm-up batch
  }

  PhaseResult run(const Plan& plan, bool trace) override {
    return closed_loop(plan, prefix(), trace,
                       [this](std::size_t, Tracer* t) { return op(t); });
  }

  double pool2_speedup() override {
    // The cold sweeps serially and on a 2-worker pool, alternating, each
    // the median of three.
    util::ThreadPool pool(2);
    std::vector<double> serial;
    std::vector<double> pooled;
    for (int r = 0; r < 3; ++r) {
      serial.push_back(cold_ms(nullptr));
      pooled.push_back(cold_ms(&pool));
    }
    return quantile(serial, 0.5) / quantile(pooled, 0.5);
  }

  [[nodiscard]] std::size_t prefix() const override { return 1; }
  [[nodiscard]] double tail_pct() const override { return 90; }

 private:
  double cold_ms(util::ThreadPool* pool) {
    const Clock::time_point t0 = Clock::now();
    for (const SweepGraph& s : graphs_) {
      views::ViewRepo repo;
      (void)views::compute_profile(s.g, repo, sweep_options(s, pool));
    }
    return ms_between(t0, Clock::now());
  }

  OpOut op(Tracer* t) {
    OpOut out;
    out.in_hash = in_hash_;
    Digest result;
    OpTimer timer(t);
    std::array<SweepResult, 4> cold;
    for (std::size_t k = 0; k < graphs_.size(); ++k) {
      views::ViewRepo repo;
      views::ViewProfile p;
      {
        Scope s(t, "views.profile");
        p = views::compute_profile(graphs_[k].g, repo,
                                   sweep_options(graphs_[k]));
      }
      timer.aside("check", [&] {
        cold[k] = summarize(repo, p);
        out.counts.records += repo.size();
      });
    }
    {
      views::LoadedSnapshot snap;
      {
        Scope s(t, "views.attach");
        snap = views::load_snapshot(snapshot_, views::LoadMode::Mmap);
      }
      const std::size_t loaded = snap.repo->size();
      for (std::size_t k = 0; k < graphs_.size(); ++k) {
        const SweepGraph& sg = graphs_[k];
        views::ViewProfile p;
        {
          Scope s(t, "views.warm");
          views::ProfileOptions o = sweep_options(sg);
          o.warm = snap.anchor_for(views::graph_fingerprint(sg.g));
          if (o.warm == nullptr) {
            out.ok = false;
            continue;
          }
          p = views::compute_profile(sg.g, *snap.repo, o);
        }
        timer.aside("check", [&] {
          const SweepResult warm = summarize(*snap.repo, p);
          out.ok = out.ok && warm == cold[k];
          result.add(warm.counts.size());
          result.add(warm.counts.back());
          result.add(static_cast<std::uint64_t>(warm.phi));
        });
      }
      out.counts.records += snap.repo->size() - loaded;
    }
    {
      views::ViewRepo repo;
      Programs programs;
      {
        Scope s(t, "sim.alloc");
        programs = com_programs(ring_.n(), kComRounds);
      }
      sim::RunMetrics m;
      {
        Scope s(t, "sim.run");
        m = sim::run_full_info(ring_, repo, programs, kComRounds + 1);
      }
      out.ok = out.ok && !m.timed_out && m.rounds == kComRounds;
      out.counts.rounds += static_cast<std::uint64_t>(m.rounds);
      out.counts.records += repo.size();
    }
    out.ms = timer.ms();
    result.add(out.counts.records);
    out.out_hash = result.h;
    return out;
  }

  std::uint64_t seed_;
  std::string snapshot_;
  std::vector<SweepGraph> graphs_;
  portgraph::PortGraph ring_;
  std::uint64_t in_hash_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const Context& ctx) {
  return std::make_unique<Sweep>(ctx);
}

}  // namespace perfbench
