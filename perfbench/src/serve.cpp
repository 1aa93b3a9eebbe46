// serve: the query service under two closed-loop clients. The service
// warm-starts from a snapshot anchoring half of a seeded corpus; each
// client asks synchronously over its own half (Zipf popularity, a fixed
// kind mix, no deadlines) and refreshes one graph per four reads, so the
// seed fixes which rung answers every read. After the phase every answer
// is audited against an independent recompute in a fresh repo.

#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <latch>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "election/harness.hpp"
#include "portgraph/builders.hpp"
#include "service/service.hpp"
#include "views/profile.hpp"
#include "views/snapshot.hpp"

namespace perfbench {

namespace {

using namespace anole;
using service::Answer;
using service::AnswerRung;
using service::AnswerStatus;
using service::Query;
using service::QueryKind;

constexpr std::size_t kCorpus = 96;
constexpr std::size_t kClients = 2;
constexpr std::size_t kHalf = kCorpus / kClients;
constexpr std::size_t kReadsPerWrite = 4;
constexpr int kMaxDepth = 8;

/// Corpus graph i: a feasible shape or (every fifth) a symmetric ring,
/// of 16..192 nodes. Shape and size are fixed by i, so every seed gets the
/// same cost profile; the seed draws the structure and the ports.
portgraph::PortGraph draw_graph(std::size_t i, Rng& rng) {
  const std::size_t n = 16 + (i * 37 % kCorpus) * 176 / (kCorpus - 1);
  const std::uint64_t s = rng.next();
  switch (i % 5) {
    case 0:
      return portgraph::random_connected(n, n / 2, s);
    case 1: {
      const auto head = static_cast<std::size_t>(rng.range(4, 12));
      return portgraph::shuffle_ports(portgraph::lollipop(head, n - head), s);
    }
    case 2:
      return portgraph::shuffle_ports(portgraph::binary_tree(n), s);
    case 3: {
      std::vector<int> legs(n / 3);
      for (int& l : legs) l = static_cast<int>(rng.range(0, 2));
      return portgraph::caterpillar(n / 3, legs);
    }
    default:
      return portgraph::ring(n);
  }
}

/// The fields of an answer that the audit recomputes; which of them a
/// read answers depends on its kind.
struct Facts {
  bool feasible = false;
  int phi = -1;
  portgraph::NodeId leader = -1;
  int rounds = -1;
  std::size_t advice_bits = 0;
  bool within_budget = false;
  bool equal = false;
  std::size_t view_bits = 0;
};

Facts facts_of(const Answer& a) {
  return Facts{a.feasible,    a.phi,           a.leader, a.rounds,
               a.advice_bits, a.within_budget, a.equal,  a.view_bits};
}

/// Digest of the facts a read of `kind` answers, leaving out the fields
/// its kind does not define.
std::uint32_t facts_key(QueryKind kind, const Facts& f) {
  Digest d;
  switch (kind) {
    case QueryKind::kMinTime:
      d.add(f.feasible);
      if (f.feasible) d.add(static_cast<std::uint64_t>(f.phi));
      break;
    case QueryKind::kElect:
      d.add(f.feasible);
      if (f.feasible) {
        for (std::uint64_t w : {static_cast<std::uint64_t>(f.leader),
                                static_cast<std::uint64_t>(f.rounds),
                                static_cast<std::uint64_t>(f.advice_bits),
                                static_cast<std::uint64_t>(f.within_budget)})
          d.add(w);
      }
      break;
    case QueryKind::kCompare:
      d.add(f.equal);
      break;
    case QueryKind::kAdvice:
      d.add(f.view_bits);
      break;
  }
  return static_cast<std::uint32_t>(d.h ^ (d.h >> 32));
}

/// One answered read as its client saw it. The query is not kept: it is
/// regenerated from the client's stream when needed.
struct Read {
  double ms = 0.0;          ///< latency of Service::ask
  double end_s = 0.0;       ///< completion time within the phase
  std::uint32_t facts = 0;  ///< facts_key of the answer
  AnswerStatus status = AnswerStatus::kFailed;
  AnswerRung rung = AnswerRung::kComputed;
};

/// A client's reads, spilled to a file while the phase runs: the harness
/// then holds one 64 KiB buffer per client however many reads a run
/// completes, so peak_rss_mb does not grow with throughput.
class ReadLog {
 public:
  explicit ReadLog(std::filesystem::path path)
      : path_(std::move(path)), buf_(std::size_t{1} << 16) {
    f_ = std::fopen(path_.c_str(), "w+b");
    if (f_ == nullptr)
      throw std::runtime_error("serve: cannot open " + path_.string());
    std::setvbuf(f_, buf_.data(), _IOFBF, buf_.size());
  }
  ~ReadLog() {
    std::fclose(f_);
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  ReadLog(const ReadLog&) = delete;
  ReadLog& operator=(const ReadLog&) = delete;

  void append(const Read& r) {
    if (std::fwrite(&r, sizeof r, 1, f_) != 1) fail();
    ++size_;
  }

  /// Every read appended so far, in order.
  std::vector<Read> all() {
    std::vector<Read> v(size_);
    std::rewind(f_);
    if (std::fread(v.data(), sizeof(Read), size_, f_) != size_) fail();
    return v;
  }

 private:
  [[noreturn]] void fail() const {
    throw std::runtime_error("serve: cannot use " + path_.string());
  }

  std::filesystem::path path_;
  std::vector<char> buf_;
  std::FILE* f_ = nullptr;
  std::size_t size_ = 0;
};

/// A client's counts and digests over its first reads.
struct Tally {
  Counts counts;
  Digest inputs;
  Digest outputs;

  void add(const Query& q, const Answer& a, const Read& r) {
    counts.reads += 1;
    counts.computed += r.rung == AnswerRung::kComputed ? 1 : 0;
    if (q.kind == QueryKind::kElect && a.feasible) {
      counts.rounds += static_cast<std::uint64_t>(a.rounds);
      counts.advice_bits += a.advice_bits;
    }
    for (std::uint64_t w :
         {static_cast<std::uint64_t>(q.kind), q.graph,
          static_cast<std::uint64_t>(q.u), static_cast<std::uint64_t>(q.v),
          static_cast<std::uint64_t>(q.depth), q.budget_bits}) {
      inputs.add(w);
    }
    outputs.add(static_cast<std::uint64_t>(r.status));
    outputs.add(static_cast<std::uint64_t>(r.rung));
    outputs.add(r.facts);
  }
};

/// Exact answers recomputed in a repo of its own, sharing nothing with
/// the service.
class Audit {
 public:
  explicit Audit(const std::vector<portgraph::PortGraph>& graphs)
      : graphs_(graphs) {}

  /// Whether a read of `q` was answered exactly and with the recomputed
  /// facts.
  bool agrees(const Query& q, const Read& r) {
    return r.status == AnswerStatus::kExact &&
           r.facts == facts_key(q.kind, expected(q));
  }

 private:
  const views::ViewProfile& profile(std::size_t i, int depth) {
    auto it = profiles_.find(i);
    if (it == profiles_.end())
      it = profiles_.emplace(i, views::compute_profile(graphs_[i], repo_, 1))
               .first;
    if (depth > it->second.computed_depth())
      views::extend_profile(graphs_[i], repo_, it->second, depth);
    return it->second;
  }

  Facts expected(const Query& q) {
    Facts f;
    switch (q.kind) {
      case QueryKind::kMinTime: {
        const views::ViewProfile& p = profile(q.graph, 0);
        f.feasible = p.feasible;
        f.phi = p.election_index;
        break;
      }
      case QueryKind::kCompare: {
        const views::ViewProfile& p = profile(q.graph, 0);
        const int t = std::min(q.depth, p.computed_depth());
        f.equal = p.view(t, q.u) == p.view(t, q.v);
        break;
      }
      case QueryKind::kAdvice: {
        const views::ViewProfile& p = profile(q.graph, q.depth);
        f.view_bits = repo_.serialized_size_bits(p.view(q.depth, q.u));
        break;
      }
      case QueryKind::kElect:
        f = elect(q.graph);
        f.within_budget =
            q.budget_bits == 0 || f.advice_bits <= q.budget_bits;
        break;
    }
    return f;
  }

  const Facts& elect(std::size_t i) {
    auto it = elects_.find(i);
    if (it != elects_.end()) return it->second;
    const views::ViewProfile& p = profile(i, 0);
    Facts ref;
    ref.feasible = p.feasible;
    if (p.feasible) {
      election::ElectionContext ctx(graphs_[i], repo_, p);
      election::ElectionRun run = election::run_min_time(ctx);
      ref.leader = run.verdict.leader;
      ref.rounds = run.metrics.rounds;
      ref.advice_bits = run.advice_bits;
    }
    return elects_.emplace(i, ref).first->second;
  }

  const std::vector<portgraph::PortGraph>& graphs_;
  views::ViewRepo repo_;
  std::map<std::size_t, views::ViewProfile> profiles_;
  std::map<std::size_t, Facts> elects_;
};

/// One client's seeded stream over its half of the corpus.
class ClientStream {
 public:
  ClientStream(std::uint64_t seed, std::size_t client,
               const std::vector<portgraph::PortGraph>& corpus)
      : rng_(stream_seed(seed, 10 + client)), client_(client),
        corpus_(&corpus) {
    // Zipf popularity, smaller graphs more popular: the k-th smallest
    // graph of the half has weight 1/(k+1). Heavy recomputes then come
    // from many rarely read large graphs, not from two or three popular
    // ones whose seeded structure would set the whole run's cost.
    std::vector<std::size_t> order(kHalf);
    for (std::size_t k = 0; k < kHalf; ++k) order[k] = client * kHalf + k;
    std::stable_sort(order.begin(), order.end(),
                     [&corpus](std::size_t a, std::size_t b) {
                       return corpus[a].n() < corpus[b].n();
                     });
    double acc = 0.0;
    for (std::size_t k = 0; k < kHalf; ++k) {
      acc += 1.0 / static_cast<double>(k + 1);
      cdf_.emplace_back(acc, order[k]);
    }
    for (auto& [c, g] : cdf_) c /= acc;
  }

  /// Read i of the client, after the refresh that precedes every
  /// kReadsPerWrite-th read; a replay draws the same steps.
  struct Step {
    std::optional<std::size_t> refresh;
    Query query;
  };
  Step next(std::size_t i) {
    Step s;
    if (i > 0 && i % kReadsPerWrite == 0) s.refresh = any();
    s.query = read();
    return s;
  }

 private:
  /// A graph drawn by popularity.
  std::size_t popular() {
    const double x = rng_.unit();
    for (const auto& [c, g] : cdf_)
      if (x < c) return g;
    return cdf_.back().second;
  }

  /// A graph of the half drawn uniformly: refreshes hit any graph.
  std::size_t any() {
    return client_ * kHalf + static_cast<std::size_t>(rng_.next() % kHalf);
  }

  Query read() {
    Query q;
    q.graph = popular();
    const std::int64_t k = rng_.range(0, 9);
    q.kind = k < 2   ? QueryKind::kElect
             : k < 5 ? QueryKind::kMinTime
             : k < 8 ? QueryKind::kCompare
                     : QueryKind::kAdvice;
    const auto n = static_cast<std::int64_t>((*corpus_)[q.graph].n());
    q.u = static_cast<portgraph::NodeId>(rng_.range(0, n - 1));
    q.v = static_cast<portgraph::NodeId>(rng_.range(0, n - 1));
    q.depth = static_cast<int>(rng_.range(0, kMaxDepth));
    q.budget_bits = q.kind == QueryKind::kElect && rng_.range(0, 1) == 1
                        ? static_cast<std::size_t>(rng_.range(1, 4096))
                        : 0;
    return q;
  }

  Rng rng_;
  std::size_t client_;
  const std::vector<portgraph::PortGraph>* corpus_;
  std::vector<std::pair<double, std::size_t>> cdf_;
};

/// Confines this thread, and every thread it starts later, to the first
/// two CPUs it may use. A client blocks while a worker runs its query, so
/// two CPUs carry two client-worker pairs; sharing them keeps each handoff
/// on a CPU that is already awake, where spreading four threads over four
/// virtual CPUs made handoff latency swing with the host's load.
void use_two_cpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &two);
      ++taken;
    }
  }
  (void)sched_setaffinity(0, sizeof two, &two);
}

class Serve final : public Workload {
 public:
  explicit Serve(const Context& ctx)
      : seed_(ctx.seed),
        dir_(ctx.scratch),
        snapshot_((ctx.scratch / "serve.snap").string()) {
    use_two_cpus();
  }

  void setup(Tracer* tracer) override {
    service_.reset();  // it borrows the corpus
    corpus_.clear();
    Rng rng(stream_seed(seed_, 5));
    while (corpus_.size() < kCorpus) {
      portgraph::PortGraph g;
      {
        Scope s(tracer, "portgraph.build");
        g = draw_graph(corpus_.size(), rng);
      }
      // Rings stay infeasible on purpose; the other shapes are redrawn.
      views::ViewRepo scratch;
      if (corpus_.size() % 5 == 4 ||
          views::compute_profile(g, scratch).feasible) {
        corpus_.push_back(std::move(g));
      }
    }
    {
      views::ViewRepo repo;
      std::vector<views::SweepAnchor> anchors;
      for (std::size_t i = 1; i < kCorpus; i += 2) {
        Scope s(tracer, "views.profile");
        views::ProfileOptions o;
        o.keep_history = false;
        views::ViewProfile p = views::compute_profile(corpus_[i], repo, o);
        anchors.push_back(
            views::make_anchor(corpus_[i], p.last_level(), p.class_counts));
      }
      Scope s(tracer, "views.save");
      views::save_snapshot(snapshot_, repo, anchors);
    }
    {
      Scope s(tracer, "views.load");
      service::ServiceOptions o;
      o.max_queue = 64;
      o.workers = 2;
      o.snapshot_path = snapshot_;
      service_ = std::make_unique<service::Service>(std::move(o));
    }
    {
      Scope s(tracer, "service.register");
      for (const portgraph::PortGraph& g : corpus_) service_->add_graph(g);
    }
    Scope s(tracer, "service.warmup");
    for (std::size_t i = 0; i < kCorpus; ++i)
      (void)service_->ask(Query{QueryKind::kMinTime, i});
    records_ = service_->repo().size();
  }

  PhaseResult run(const Plan& plan, bool trace) override {
    PhaseResult r;
    r.tracers.resize(kClients);
    std::array<std::exception_ptr, kClients> errors;
    std::array<std::unique_ptr<ReadLog>, kClients> logs;
    std::array<Tally, kClients> tallies;
    std::latch go(1);
    Clock::time_point start;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      logs[c] = std::make_unique<ReadLog>(dir_ /
                                          ("reads-" + std::to_string(c)));
      clients.emplace_back([&, c] {
        go.wait();
        try {
          client(c, plan, start, trace ? &r.tracers[c] : nullptr, *logs[c],
                 tallies[c]);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    start = Clock::now();
    go.count_down();
    for (std::thread& t : clients) t.join();
    r.peak_rss_mb = peak_rss_mb();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);

    r.counts.records = records_;
    for (std::size_t c = 0; c < kClients; ++c) {
      log_[c] = logs[c]->all();
      r.per_client.push_back(log_[c].size());
      for (const Read& read : log_[c]) {
        r.op_ms.push_back(read.ms);
        r.op_end_s.push_back(read.end_s);
        r.op_ok.push_back(read.status == AnswerStatus::kExact ? 1 : 0);
      }
      r.counts += tallies[c].counts;
      r.inputs.add(tallies[c].inputs.h);
      r.outputs.add(tallies[c].outputs.h);
    }
    return r;
  }

  void check(PhaseResult& r) override {
    Audit audit(corpus_);
    std::size_t k = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      ClientStream stream(seed_, c, corpus_);
      for (std::size_t i = 0; i < log_[c].size(); ++i, ++k)
        if (!audit.agrees(stream.next(i).query, log_[c][i])) r.op_ok[k] = 0;
    }
  }

  [[nodiscard]] std::size_t prefix() const override { return 256; }
  [[nodiscard]] double tail_pct() const override { return 99; }
  [[nodiscard]] std::size_t clients() const override { return kClients; }

 private:
  void client(std::size_t c, const Plan& plan, Clock::time_point start,
              Tracer* t, ReadLog& log, Tally& tally) {
    ClientStream stream(seed_, c, corpus_);
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(plan.seconds));
    // The first client samples the machine's speed between reads, on the
    // CPUs the service runs on.
    SpeedRef* speed = c == 0 ? plan.speed : nullptr;
    const auto speed_every = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(kSpeedEveryMs));
    Clock::time_point next_speed = start;
    for (std::size_t i = 0;; ++i) {
      if (!plan.exact.empty() ? i >= plan.exact[c]
                              : Clock::now() >= deadline && i >= plan.min_ops) {
        break;
      }
      const auto op = static_cast<std::int64_t>((c << 32) | i);
      if (t != nullptr) t->begin_op(op);
      const ClientStream::Step step = stream.next(i);
      if (step.refresh) {
        Scope s(t, "service.write");
        service_->invalidate_graph(*step.refresh);
      }
      Scope s(t, "service.read");
      const Clock::time_point t0 = Clock::now();
      const Answer a = service_->ask(step.query);
      const Clock::time_point t1 = Clock::now();
      s.rename(a.rung == AnswerRung::kComputed ? "service.compute"
                                               : "service.memo");
      const Read read{ms_between(t0, t1), ms_between(start, t1) / 1e3,
                      facts_key(step.query.kind, facts_of(a)), a.status,
                      a.rung};
      log.append(read);
      if (i < prefix()) tally.add(step.query, a, read);
      if (speed != nullptr && t1 >= next_speed) {
        speed->sample_once();
        next_speed = Clock::now() + speed_every;
      }
    }
  }

  std::uint64_t seed_;
  std::filesystem::path dir_;
  std::string snapshot_;
  std::vector<portgraph::PortGraph> corpus_;
  std::unique_ptr<service::Service> service_;
  std::uint64_t records_ = 0;
  std::array<std::vector<Read>, kClients> log_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Context& ctx) {
  return std::make_unique<Serve>(ctx);
}

}  // namespace perfbench
