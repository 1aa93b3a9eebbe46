// perfbench, the anole benchmark. Runs one seeded workload against
// libanole and prints one JSON object as the last line of stdout:
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --scratch DIR
//   perfbench --workload W --seed N --digest --scratch DIR
//
// --trace 0 sets up, runs the timed phase, checks every output, sets up
// six more times (setup_s is the median of seven) and reports the
// end-to-end metrics. --trace 1 runs an untraced phase of half the time,
// then seven traced set-ups and a traced replay of exactly the ops that
// phase completed, reports the per-layer metrics and the tracing overhead
// (the ops_per_s lost to tracing), and writes each layer's share of op
// time to stderr; the spans go to DIR/../traces. --digest runs the fixed
// op prefix once and prints its input and output digests and counts.

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

constexpr int kSetups = 7;
constexpr double kSpeedSeconds = 0.25;  // speed sampling before and after

std::string num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::cout << out << "}}" << std::endl;
}

std::uint64_t failures(const PhaseResult& r) {
  std::uint64_t f = 0;
  for (std::uint8_t ok : r.op_ok) f += ok == 0 ? 1 : 0;
  return f;
}

std::unique_ptr<Workload> make(const std::string& name, const Context& ctx) {
  if (name == "elect") return make_elect(ctx);
  if (name == "meter") return make_meter(ctx);
  if (name == "sweep") return make_sweep(ctx);
  if (name == "serve") return make_serve(ctx);
  return nullptr;
}

/// One set-up, timed in seconds.
double timed_setup(Workload& w) {
  const Clock::time_point t0 = Clock::now();
  w.setup(nullptr);
  return ms_between(t0, Clock::now()) / 1e3;
}

int end_to_end(Workload& w, double seconds) {
  // The machine's speed is sampled just before the phase, between its
  // ops and just after it.
  SpeedRef speed;
  speed.sample(kSpeedSeconds);
  // The phase runs on the first set-up, so the peak resident set it
  // reports does not depend on how the allocator kept or returned the
  // memory of earlier set-ups; the other set-ups follow the checks.
  std::vector<double> setups = {timed_setup(w)};
  PhaseResult r = w.run(Plan{seconds, {}, w.prefix(), &speed}, false);
  speed.sample(kSpeedSeconds);
  w.check(r);
  for (int k = 1; k < kSetups; ++k) setups.push_back(timed_setup(w));
  const std::uint64_t failed = failures(r);
  const Timing t = timing(r, w.tail_pct() / 100.0);
  const double setup_s = quantile(setups, 0.5);
  const double slow = speed.slowdown();
  std::cerr << "perfbench: slowdown " << num(slow) << ", as measured: setup_s "
            << num(setup_s) << " ops_per_s " << num(t.ops_per_s)
            << " op_ms_p50 " << num(t.p50_ms) << " op_ms_tail "
            << num(t.tail_ms) << std::endl;
  print_result(failed == 0, r.op_ok.size(), failed,
               {{"setup_s", setup_s / slow, "s"},
                {"ops_per_s", t.ops_per_s * slow, "1/s"},
                {"op_ms_p50", t.p50_ms / slow, "ms"},
                {"op_ms_tail", t.tail_ms / slow, "ms"},
                {"peak_rss_mb", r.peak_rss_mb, "MB"}});
  return 0;
}

int per_layer(Workload& w, double seconds, const std::filesystem::path& out) {
  // Half the time untraced, then the traced replay of the same ops.
  w.setup(nullptr);
  PhaseResult plain = w.run(Plan{seconds / 2, {}, w.prefix()}, false);
  w.check(plain);
  std::vector<Tracer> setups(kSetups);
  for (int k = 0; k < kSetups; ++k) {
    setups[k].begin_op(-1 - k);
    w.setup(&setups[k]);
  }
  PhaseResult traced = w.run(Plan{0.0, plain.per_client, 0}, true);
  w.check(traced);

  const SpanStats st(traced.tracers, setups);
  const double tail_q = w.tail_pct() / 100.0;
  const double plain_rate = timing(plain, tail_q).ops_per_s;
  const double traced_rate = timing(traced, tail_q).ops_per_s;
  const Counts& c = traced.counts;
  // Decision hooks and metering are sim.run minus a probe's run; 0 when
  // the workload has no such probe.
  auto beyond = [&st](const char* probe) {
    return st.per_op(probe) == 0.0 ? 0.0 : st.per_op_diff("sim.run", probe);
  };
  // Layers a workload never calls report 0.
  std::vector<Metric> m = {
      {"portgraph.build_ms", st.per_setup("portgraph.build"), "ms"},
      {"views.profile_ms", st.per_op("views.profile"), "ms"},
      {"views.save_ms", st.per_setup("views.save"), "ms"},
      {"views.attach_ms", st.per_op("views.attach"), "ms"},
      {"views.warm_ms", st.per_op("views.warm"), "ms"},
      {"views.load_ms", st.per_setup("views.load"), "ms"},
      {"views.records", static_cast<double>(c.records), "count"},
      {"views.pool2_speedup", w.pool2_speedup(), "x"},
      {"sim.run_ms", st.per_op("sim.run"), "ms"},
      {"sim.hooks_ms", beyond("sim.replay"), "ms"},
      {"sim.meter_ms", beyond("sim.unmetered"), "ms"},
      {"sim.alloc_ms", st.per_op("sim.alloc"), "ms"},
      {"sim.rounds", static_cast<double>(c.rounds), "count"},
      {"sim.bits", static_cast<double>(c.bits), "count"},
      {"advice.compute_ms", st.per_op("advice.compute"), "ms"},
      {"advice.bits", static_cast<double>(c.advice_bits), "count"},
      {"election.make_ms", st.per_op("election.make"), "ms"},
      {"election.verify_ms", st.per_op("election.verify"), "ms"},
      {"service.memo_ms", st.per_op("service.memo"), "ms"},
      {"service.compute_ms", st.per_op("service.compute"), "ms"},
      {"service.write_ms", st.per_op("service.write"), "ms"},
      {"service.computed_share",
       c.reads == 0 ? 0.0
                    : static_cast<double>(c.computed) /
                          static_cast<double>(c.reads),
       "ratio"},
      {"trace.overhead_pct", (1.0 - traced_rate / plain_rate) * 100.0, "%"},
  };

  st.print_shares(std::cerr);
  write_spans(out, traced.tracers, setups);
  const std::uint64_t failed = failures(plain) + failures(traced);
  print_result(failed == 0, plain.op_ok.size() + traced.op_ok.size(), failed,
               m);
  return 0;
}

int digest(Workload& w, const std::string& name, std::uint64_t seed) {
  w.setup(nullptr);
  PhaseResult r =
      w.run(Plan{0.0, std::vector<std::size_t>(w.clients(), w.prefix()), 0},
            false);
  w.check(r);
  const Counts& c = r.counts;
  std::cout << "{\"workload\": \"" << name << "\", \"seed\": " << seed
            << ", \"ops\": " << r.op_ok.size()
            << ", \"failed\": " << failures(r)
            << ", \"inputs\": " << hex(r.inputs.h)
            << ", \"outputs\": " << hex(r.outputs.h)
            << ", \"records\": " << c.records << ", \"rounds\": " << c.rounds
            << ", \"bits\": " << c.bits
            << ", \"advice_bits\": " << c.advice_bits
            << ", \"reads\": " << c.reads << ", \"computed\": " << c.computed
            << "}" << std::endl;
  return 0;
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload elect|meter|sweep|serve "
               "--seed N (--seconds S --trace 0|1 | --digest) --scratch DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string scratch;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool digest_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--digest") {
      digest_mode = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      workload = argv[++i];
    } else if (a == "--scratch") {
      scratch = argv[++i];
    } else if (a == "--seed") {
      seed = std::stoull(argv[++i]);
    } else if (a == "--seconds") {
      seconds = std::stod(argv[++i]);
    } else if (a == "--trace") {
      trace = std::stoi(argv[++i]);
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (scratch.empty()) return usage("--scratch is required");
  if (!digest_mode && (seconds <= 0.0 || (trace != 0 && trace != 1)))
    return usage("--seconds > 0 and --trace 0|1 are required");

  // A private directory for this process's files, removed on exit.
  const std::filesystem::path dir =
      std::filesystem::path(scratch) /
      (workload + "-" + std::to_string(getpid()));
  std::filesystem::create_directories(dir);
  struct Cleanup {
    std::filesystem::path p;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(p, ec);
    }
  } cleanup{dir};

  std::unique_ptr<Workload> w = make(workload, Context{seed, dir});
  if (w == nullptr)
    return usage(("unknown workload '" + workload + "'").c_str());
  if (digest_mode) return digest(*w, workload, seed);
  if (trace == 0) return end_to_end(*w, seconds);
  const std::filesystem::path traces =
      std::filesystem::path(scratch).parent_path() / "traces";
  std::filesystem::create_directories(traces);
  return per_layer(*w, seconds,
                   traces / (workload + "-seed" + std::to_string(seed) +
                             ".tsv"));
}
