#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <string_view>

#include "bench.hpp"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();
constexpr std::size_t kMaxSlices = 10;
constexpr std::size_t kMinSliceOps = 10;

double now_ms() { return ms_between(kEpoch, Clock::now()); }

double median_of(const std::map<std::int64_t, double>& by_op, bool setups) {
  std::vector<double> v;
  for (const auto& [op, ms] : by_op)
    if ((op < 0) == setups) v.push_back(ms);
  return quantile(std::move(v), 0.5);
}

}  // namespace

std::uint64_t graph_digest(const anole::portgraph::PortGraph& g) {
  Digest d;
  d.add(g.n());
  for (std::size_t v = 0; v < g.n(); ++v) {
    const auto& row = g.neighbors(static_cast<anole::portgraph::NodeId>(v));
    d.add(row.size());
    for (const anole::portgraph::HalfEdge& he : row) {
      d.add(static_cast<std::uint64_t>(he.neighbor));
      d.add(static_cast<std::uint64_t>(he.rev_port));
    }
  }
  return d.h;
}

std::int32_t Tracer::open(const char* name) {
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      Span{name, now_ms(), 0.0, stack_.empty() ? -1 : stack_.back(), op_});
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(std::int32_t idx) {
  spans_[static_cast<std::size_t>(idx)].end_ms = now_ms();
  stack_.pop_back();
}

Counts& Counts::operator+=(const Counts& o) {
  records += o.records;
  rounds += o.rounds;
  bits += o.bits;
  advice_bits += o.advice_bits;
  reads += o.reads;
  computed += o.computed;
  return *this;
}

void PhaseResult::add(std::size_t i, std::size_t prefix, const OpOut& o) {
  op_ms.push_back(o.ms);
  op_end_s.push_back(o.end_s);
  op_ok.push_back(o.ok ? 1 : 0);
  if (i < prefix) {
    counts += o.counts;
    inputs.add(o.in_hash);
    outputs.add(o.out_hash);
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

SpeedRef::SpeedRef()
    : keys_(std::size_t{1} << 16), work_(keys_.size()),
      table_(std::size_t{1} << 19) {
  Rng rng(0x5eed);
  for (std::uint64_t& k : keys_) k = rng.next();
}

double SpeedRef::once() {
  const Clock::time_point t0 = Clock::now();
  std::copy(keys_.begin(), keys_.end(), work_.begin());
  std::sort(work_.begin(), work_.end());
  const std::size_t mask = table_.size() - 1;
  std::uint64_t acc = 0;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t k : work_) {
      const std::size_t i = ((k >> (16 * pass)) * 0x9e3779b97f4a7c15ULL) & mask;
      acc += table_[i]++;
    }
  }
  sink_ += acc + work_[work_.size() / 2];
  return ms_between(t0, Clock::now());
}

void SpeedRef::sample(double seconds) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < end) ms_.push_back(once());
}

double SpeedRef::slowdown() const {
  return quantile(ms_, 0.25) / kNominalMs;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Timing timing(const PhaseResult& r, double tail_q) {
  const std::size_t n = r.op_ms.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&r](std::size_t a, std::size_t b) {
    return r.op_end_s[a] < r.op_end_s[b];
  });
  // Per-slice figures over `count` slices of equal op count.
  auto per_slice = [&](std::size_t count, double q, std::vector<double>* rate) {
    std::vector<double> out;
    double from = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t lo = n * k / count;
      const std::size_t hi = n * (k + 1) / count;
      std::vector<double> ms;
      for (std::size_t j = lo; j < hi; ++j) ms.push_back(r.op_ms[order[j]]);
      const double to = r.op_end_s[order[hi - 1]];
      if (rate != nullptr)
        rate->push_back(static_cast<double>(hi - lo) / (to - from));
      from = to;
      out.push_back(quantile(std::move(ms), q));
    }
    return out;
  };
  auto slices = [n](std::size_t min_ops) {
    return std::clamp<std::size_t>(n / min_ops, 1, kMaxSlices);
  };
  std::vector<double> rate;
  const std::vector<double> p50 = per_slice(slices(kMinSliceOps), 0.5, &rate);
  const auto tail_ops = static_cast<std::size_t>(10.0 / (1.0 - tail_q) + 0.5);
  const std::vector<double> tail = per_slice(slices(tail_ops), tail_q, nullptr);
  // Interference from other tenants only ever slows ops down, so the
  // fast quartile of the slices is the least disturbed figure that still
  // does not rest on a single slice.
  return {quantile(rate, 0.75), quantile(p50, 0.25), quantile(tail, 0.25)};
}

SpanStats::SpanStats(const std::vector<Tracer>& phase,
                     const std::vector<Tracer>& setups) {
  for (const auto* list : {&phase, &setups}) {
    for (const Tracer& t : *list) {
      const std::vector<Span>& spans = t.spans();
      std::vector<double> self(spans.size());
      // A parent opens before its children, so its index is smaller.
      std::vector<std::uint8_t> aside(spans.size());
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const double dur = s.end_ms - s.start_ms;
        self[i] += dur;
        const std::string_view name = s.name;
        aside[i] = name.starts_with("probe.") || name == "check";
        if (s.parent >= 0) {
          const auto p = static_cast<std::size_t>(s.parent);
          self[p] -= dur;
          aside[i] = aside[i] || aside[p];
        }
      }
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        totals_[s.name][s.op] += self[i];
        if (s.op < 0) continue;
        const std::string_view name = s.name;
        if (aside[i] == 0) {
          in_ops_[s.name] += self[i];
          op_ms_ += self[i];
        } else if (!name.starts_with("probe.") && name != "check") {
          in_probes_[s.name] += self[i];
        }
      }
    }
  }
}

void SpanStats::print_shares(std::ostream& os) const {
  auto share = [this](double ms) { return 100.0 * ms / op_ms_; };
  std::vector<std::pair<double, std::string>> by_time;
  for (const auto& [name, ms] : in_ops_) by_time.emplace_back(ms, name);
  std::sort(by_time.rbegin(), by_time.rend());
  os << std::fixed << std::setprecision(1) << "op time " << op_ms_ << " ms\n";
  for (const auto& [ms, name] : by_time) {
    os << "  " << std::left << std::setw(20) << name << std::right
       << std::setw(12) << ms << " ms  " << std::setw(5) << share(ms) << "%\n";
  }
  for (const auto& [name, ms] : in_probes_) {
    os << "  " << std::left << std::setw(20) << name << std::right
       << std::setw(12) << ms << " ms  (probe)\n";
  }
  const auto run = in_ops_.find("sim.run");
  for (const auto& [label, probe] :
       {std::pair{"decision hooks", "sim.replay"},
        std::pair{"metering", "sim.unmetered"}}) {
    const auto p = in_probes_.find(probe);
    if (run == in_ops_.end() || p == in_probes_.end()) continue;
    const double ms = run->second - p->second;
    os << "  " << std::left << std::setw(20) << label << std::right
       << std::setw(12) << ms << " ms  " << std::setw(5) << share(ms) << "%\n";
  }
}

double SpanStats::per_op(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : median_of(it->second, false);
}

double SpanStats::per_setup(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : median_of(it->second, true);
}

double SpanStats::per_op_diff(const std::string& a,
                              const std::string& b) const {
  auto ia = totals_.find(a);
  if (ia == totals_.end()) return 0.0;
  auto ib = totals_.find(b);
  std::vector<double> v;
  for (const auto& [op, ms] : ia->second) {
    if (op < 0) continue;
    double sub = 0.0;
    if (ib != totals_.end()) {
      auto j = ib->second.find(op);
      if (j != ib->second.end()) sub = j->second;
    }
    v.push_back(ms - sub);
  }
  return quantile(std::move(v), 0.5);
}

void write_spans(const std::filesystem::path& path,
                 const std::vector<Tracer>& phase,
                 const std::vector<Tracer>& setups) {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(4)
      << "thread\top\tspan\tparent\tname\tstart_ms\tend_ms\n";
  std::size_t thread = 0;
  for (const auto* list : {&setups, &phase}) {
    for (const Tracer& t : *list) {
      const std::vector<Span>& spans = t.spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << thread << '\t' << s.op << '\t' << i << '\t' << s.parent << '\t'
            << s.name << '\t' << s.start_ms << '\t' << s.end_ms << '\n';
      }
      ++thread;
    }
  }
}

}  // namespace perfbench
