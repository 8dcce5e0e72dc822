#include "registry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>
#include <regex>
#include <sstream>
#include <thread>
#include <utility>

#include "util/assert.h"
#include "util/parse_num.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/json.h"

namespace pdmm::bench {

namespace {

std::vector<Benchmark>& registry() {
  static std::vector<Benchmark> benches;
  return benches;
}

std::string format_seconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.3fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fus", s * 1e6);
  }
  return buf;
}

std::string format_params(const Ctx::Params& params) {
  std::string out;
  for (const auto& [k, v] : params) {
    if (!out.empty()) out += ' ';
    out += k + '=' + v;
  }
  return out.empty() ? std::string("(single point)") : out;
}

const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

const char* build_os() {
#if defined(__linux__)
  return "linux";
#elif defined(__APPLE__)
  return "darwin";
#elif defined(_WIN32)
  return "windows";
#else
  return "unknown";
#endif
}

const char* build_arch() {
#if defined(__x86_64__) || defined(_M_X64)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "unknown";
#endif
}

std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void write_json_report(
    std::ostream& out, const RunOptions& opt,
    const std::vector<std::pair<const Benchmark*, std::vector<SweepPoint>>>&
        runs) {
  JsonWriter j(out);
  j.begin_object();
  j.field("schema", "pdmm-bench-v1");
  j.key("meta");
  j.begin_object();
  j.field("timestamp_utc", utc_timestamp());
  j.field("compiler", __VERSION__);
  j.field("build_type", build_type());
  j.field("os", build_os());
  j.field("arch", build_arch());
  j.field("hardware_threads",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  j.field("reps", static_cast<uint64_t>(opt.reps));
  j.field("warmup", opt.warmup);
  j.field("threads", static_cast<uint64_t>(opt.threads));
  j.field("seed", opt.seed);
  j.field("smoke", opt.smoke);
  j.end_object();
  j.key("results");
  j.begin_array();
  for (const auto& [bench, points] : runs) {
    for (const SweepPoint& sp : points) {
      j.begin_object();
      j.field("bench", bench->name);
      j.field("experiment", bench->experiment);
      j.key("params");
      j.begin_object();
      for (const auto& [k, v] : sp.params) j.field(k, v);
      j.end_object();
      j.field("reps", static_cast<uint64_t>(sp.reps));
      j.key("seconds");
      j.begin_object();
      j.field("median", sp.seconds_median);
      j.field("min", sp.seconds_min);
      j.field("max", sp.seconds_max);
      j.end_object();
      j.field("work", sp.sample.work);
      j.field("rounds", sp.sample.rounds);
      j.field("updates", sp.sample.updates);
      j.field("max_batch_rounds", sp.sample.max_batch_rounds);
      j.field("updates_per_sec", sp.updates_per_sec);
      j.key("metrics");
      j.begin_object();
      for (const auto& [k, v] : sp.sample.metrics) j.field(k, v);
      j.end_object();
      if (!sp.error.empty()) j.field("error", sp.error);
      j.end_object();
    }
  }
  j.end_array();
  j.end_object();
  out << '\n';
}

struct Cli {
  RunOptions opt;
  bool list = false;
  std::string match = ".*";
  std::string json_path;
  std::string compare_path;
  double compare_tolerance = 0.15;
  bool bad = false;
};

// The global flags are fixed; any other --key=value becomes a per-benchmark
// parameter override, validated after the run (each harness reports which
// overrides it consumed).
Cli parse_cli(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", a.c_str());
      cli.bad = true;
      return cli;
    }
    a = a.substr(2);
    std::string key = a, value = "1";
    const size_t eq = a.find('=');
    if (eq != std::string::npos) {
      key = a.substr(0, eq);
      value = a.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    // Reject malformed numeric flag values instead of silently reading a
    // prefix (strtoull-style) — a typo'd --reps=1O would otherwise run the
    // whole suite with reps=1.
    auto need_u64 = [&](uint64_t& out) {
      if (parse_u64_strict(value, out) != ParseNum::kOk) {
        std::fprintf(stderr, "invalid --%s value: %s\n", key.c_str(),
                     value.c_str());
        cli.bad = true;
      }
    };
    auto need_f64 = [&](double& out) {
      if (parse_f64_strict(value, out) != ParseNum::kOk) {
        std::fprintf(stderr, "invalid --%s value: %s\n", key.c_str(),
                     value.c_str());
        cli.bad = true;
      }
    };
    if (key == "reps") {
      uint64_t reps = 0;
      need_u64(reps);
      cli.opt.reps = std::max<size_t>(1, static_cast<size_t>(reps));
    } else if (key == "warmup") {
      need_f64(cli.opt.warmup);
    } else if (key == "threads") {
      uint64_t threads = 0;
      need_u64(threads);
      cli.opt.threads = static_cast<unsigned>(threads);
    } else if (key == "seed") {
      need_u64(cli.opt.seed);
    } else if (key == "smoke") {
      cli.opt.smoke = value != "0" && value != "false";
    } else if (key == "json") {
      cli.json_path = value;
    } else if (key == "compare") {
      cli.compare_path = value;
    } else if (key == "compare-tolerance") {
      need_f64(cli.compare_tolerance);
    } else if (key == "list") {
      cli.list = value != "0" && value != "false";
    } else if (key == "match") {
      cli.match = value;
    } else if (key == "help") {
      cli.bad = true;
    } else {
      cli.opt.overrides[key] = value;
    }
  }
  return cli;
}

void usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--reps=N] [--warmup=X] [--threads=T] [--seed=S]\n"
      "          [--smoke] [--json=PATH] [--compare=BASELINE.json]\n"
      "          [--compare-tolerance=X] [--list] [--match=REGEX]\n"
      "          [--<param>=<value> ...]\n"
      "  --reps     repetitions per sweep point (default 3)\n"
      "  --warmup   scale factor on warm phases (default 1.0)\n"
      "  --threads  override every harness's thread count (default: keep)\n"
      "  --seed     remix all matcher/stream seeds (default: keep)\n"
      "  --smoke    tiny problem sizes; exercises every benchmark quickly\n"
      "  --json     write the BENCH_pdmm.json report to PATH\n"
      "  --compare  diff this run against a committed pdmm-bench-v1 report:\n"
      "             prints per-bench wall-clock ratio summaries and exits 3\n"
      "             when any bench's geomean regresses past the tolerance\n"
      "  --compare-tolerance  allowed median-seconds regression (default 0.15)\n"
      "  --match    run only benchmarks whose name matches REGEX\n"
      "  other --key=value flags override per-benchmark sweep parameters\n"
      "exit: 0 ok, 1 a point failed or I/O error, 2 usage, 3 regression\n",
      prog);
}

// ---- --compare: the perf ratchet ----

// Points match on (bench, full param list). Sub-millisecond points are
// reported but never fail the ratchet: at that scale the medians are
// scheduler noise, not signal.
constexpr double kCompareNoiseFloorSeconds = 1e-3;

std::string point_key(const std::string& bench, const Ctx::Params& params) {
  std::string key = bench;
  for (const auto& [k, v] : params) key += '|' + k + '=' + v;
  return key;
}

struct BaselinePoint {
  double seconds_median = 0.0;
  uint64_t work = 0;
  uint64_t rounds = 0;
};

bool load_baseline(const std::string& path,
                   std::map<std::string, BaselinePoint>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open baseline %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  JsonValue doc;
  std::string err;
  if (!json_parse(buf.str(), doc, &err)) {
    std::fprintf(stderr, "baseline %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  const JsonValue* schema = doc.get("schema");
  if (!schema || schema->str_or("") != "pdmm-bench-v1") {
    std::fprintf(stderr, "baseline %s: not a pdmm-bench-v1 report\n",
                 path.c_str());
    return false;
  }
  const JsonValue* results = doc.get("results");
  if (!results || !results->is_array()) {
    std::fprintf(stderr, "baseline %s: missing results array\n", path.c_str());
    return false;
  }
  for (const JsonValue& r : results->array) {
    const JsonValue* bench = r.get("bench");
    const JsonValue* params = r.get("params");
    const JsonValue* seconds = r.get("seconds");
    if (!bench || !params || !params->is_object()) continue;
    Ctx::Params plist;
    for (const auto& [k, v] : params->object) {
      plist.emplace_back(k, std::string(v.str_or("")));
    }
    // The JSON object iterates key-sorted; normalize the live side the same
    // way at lookup time (compare_runs sorts its param copies).
    BaselinePoint bp;
    if (seconds) {
      if (const JsonValue* med = seconds->get("median"))
        bp.seconds_median = med->num_or(0.0);
    }
    if (const JsonValue* w = r.get("work"))
      bp.work = static_cast<uint64_t>(w->num_or(0.0));
    if (const JsonValue* rd = r.get("rounds"))
      bp.rounds = static_cast<uint64_t>(rd->num_or(0.0));
    out[point_key(std::string(bench->str_or("")), plist)] = bp;
  }
  return true;
}

// Diffs the fresh runs against the baseline report. The gate is per
// *bench*: a bench regresses when the geometric mean of its matched
// above-noise-floor wall-clock ratios exceeds the tolerance — individual
// points swing with scheduler noise (and are printed as diagnostics when
// they breach the tolerance), but a real regression shifts the whole
// bench. Returns the number of regressed benches. Counter drift is
// reported as information: counters change legitimately when the
// algorithm changes, and the committed baseline is re-generated alongside
// such changes.
int compare_runs(
    const std::vector<std::pair<const Benchmark*, std::vector<SweepPoint>>>&
        runs,
    const std::string& path, double tolerance) {
  std::map<std::string, BaselinePoint> base;
  if (!load_baseline(path, base)) return -1;

  std::printf("=== compare vs %s (tolerance %.0f%%) ===\n", path.c_str(),
              tolerance * 100.0);
  int regressions = 0;
  size_t matched = 0, counter_drift = 0;
  for (const auto& [bench, points] : runs) {
    double ratio_log_sum = 0.0;
    size_t ratio_count = 0;
    double worst_ratio = 0.0;
    std::string worst_params;
    for (const SweepPoint& sp : points) {
      Ctx::Params sorted_params = sp.params;
      std::sort(sorted_params.begin(), sorted_params.end());
      const auto it = base.find(point_key(bench->name, sorted_params));
      if (it == base.end()) continue;
      ++matched;
      const BaselinePoint& bp = it->second;
      if (bp.work != sp.sample.work || bp.rounds != sp.sample.rounds) {
        ++counter_drift;
      }
      if (bp.seconds_median <= 0.0 || sp.seconds_median <= 0.0) continue;
      const bool above_floor =
          std::max(bp.seconds_median, sp.seconds_median) >=
          kCompareNoiseFloorSeconds;
      if (!above_floor) continue;
      const double ratio = sp.seconds_median / bp.seconds_median;
      ratio_log_sum += std::log(ratio);
      ++ratio_count;
      if (ratio > worst_ratio) {
        worst_ratio = ratio;
        worst_params = format_params(sp.params);
      }
      if (ratio > 1.0 + tolerance) {
        std::printf("  point over tolerance: %s [%s] %.3fx (%s -> %s)\n",
                    bench->name, format_params(sp.params).c_str(), ratio,
                    format_seconds(bp.seconds_median).c_str(),
                    format_seconds(sp.seconds_median).c_str());
      }
    }
    if (ratio_count > 0) {
      const double geomean =
          std::exp(ratio_log_sum / static_cast<double>(ratio_count));
      const bool regressed = geomean > 1.0 + tolerance;
      if (regressed) ++regressions;
      std::printf(
          "  %s%-24s geomean %.3fx over %zu points; worst %.3fx [%s]\n",
          regressed ? "REGRESSION " : "", bench->name, geomean, ratio_count,
          worst_ratio, worst_params.c_str());
    }
  }
  std::printf(
      "# compared %zu points (%zu with counter drift), %d bench "
      "regression%s\n",
      matched, counter_drift, regressions, regressions == 1 ? "" : "s");
  if (matched == 0) {
    std::fprintf(stderr,
                 "warning: --compare matched no sweep points (different "
                 "params or benchmarks?)\n");
  }
  return regressions;
}

int run_benchmarks(const Cli& cli, const std::vector<const Benchmark*>& subset) {
  std::vector<std::pair<const Benchmark*, std::vector<SweepPoint>>> runs;
  std::map<std::string, bool> consumed_by_any;
  size_t failed_points = 0;
  for (const Benchmark* b : subset) {
    std::printf("=== %s (%s) ===\n# claim: %s\n", b->name, b->experiment,
                b->claim);
    Ctx ctx(*b, cli.opt);
    b->fn(ctx);
    for (const auto& k : ctx.consumed_overrides()) consumed_by_any[k] = true;
    for (const SweepPoint& sp : ctx.points()) {
      if (!sp.error.empty()) ++failed_points;
    }
    runs.emplace_back(b, ctx.points());
    std::printf("\n");
    std::fflush(stdout);
  }
  // An override no selected benchmark consumed is probably a typo (of a
  // sweep parameter or of a global flag). The results above are still
  // valid and the JSON below is still written — but exit non-zero so
  // scripts and CI notice.
  bool dangling = false;
  for (const auto& [k, v] : cli.opt.overrides) {
    if (!consumed_by_any.count(k)) {
      std::fprintf(stderr,
                   "error: override --%s matched no sweep parameter of the "
                   "selected benchmarks\n",
                   k.c_str());
      dangling = true;
    }
  }
  if (!cli.json_path.empty()) {
    std::ofstream out(cli.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   cli.json_path.c_str());
      return 1;
    }
    write_json_report(out, cli.opt, runs);
    size_t total = 0;
    for (const auto& [bench, points] : runs) total += points.size();
    std::printf("# wrote %zu sweep points to %s\n", total,
                cli.json_path.c_str());
  }
  int rc = dangling ? 2 : 0;
  if (!cli.compare_path.empty()) {
    const int regressions =
        compare_runs(runs, cli.compare_path, cli.compare_tolerance);
    // A baseline that cannot be loaded is an I/O/usage failure (exit 1),
    // distinct from a genuine perf regression (exit 3).
    if (regressions < 0) return 1;
    if (regressions > 0) rc = 3;
  }
  if (failed_points > 0) {
    std::fprintf(stderr,
                 "error: %zu sweep point%s failed (see \"error\" in the "
                 "report)\n",
                 failed_points, failed_points == 1 ? "" : "s");
    return 1;
  }
  return rc;
}

}  // namespace

void register_benchmark(const Benchmark& b) {
  registry().push_back(b);
}

const std::vector<Benchmark>& all_benchmarks() {
  auto& benches = registry();
  std::sort(benches.begin(), benches.end(),
            [](const Benchmark& a, const Benchmark& b) {
              return std::string_view(a.name) < std::string_view(b.name);
            });
  return benches;
}

// ---- Ctx ----

Ctx::Ctx(const Benchmark& bench, const RunOptions& opt)
    : bench_(bench), opt_(opt) {}

uint64_t Ctx::u64(const std::string& name, uint64_t full, uint64_t smoke) {
  const auto it = opt_.overrides.find(name);
  if (it != opt_.overrides.end()) {
    consumed_[name] = true;
    uint64_t v = 0;
    PDMM_ASSERT_MSG(parse_u64_strict(it->second, v) == ParseNum::kOk,
                    "malformed benchmark override value");
    return v;
  }
  return opt_.smoke ? smoke : full;
}

double Ctx::f64(const std::string& name, double full, double smoke) {
  const auto it = opt_.overrides.find(name);
  if (it != opt_.overrides.end()) {
    consumed_[name] = true;
    double v = 0;
    PDMM_ASSERT_MSG(parse_f64_strict(it->second, v) == ParseNum::kOk,
                    "malformed benchmark override value");
    return v;
  }
  return opt_.smoke ? smoke : full;
}

unsigned Ctx::threads(unsigned def) const {
  return opt_.threads ? opt_.threads : def;
}

uint64_t Ctx::seed(uint64_t def) const {
  return opt_.seed ? hash_mix(opt_.seed, def) : def;
}

size_t Ctx::warm(size_t base) const {
  const double scaled = static_cast<double>(base) * opt_.warmup;
  return scaled <= 1.0 ? 1 : static_cast<size_t>(scaled);
}

SweepPoint Ctx::point(Params params, const std::function<Sample()>& body) {
  SweepPoint sp;
  sp.params = std::move(params);
  sp.reps = opt_.reps;
  std::vector<Sample> samples;
  std::vector<double> secs;
  samples.reserve(opt_.reps);
  secs.reserve(opt_.reps);
  bool deterministic = true;
  for (size_t rep = 0; rep < opt_.reps; ++rep) {
    Sample s = body();
    if (!failure_.empty()) {
      sp.error = std::exchange(failure_, {});
      return finish_point(std::move(sp));
    }
    secs.push_back(s.seconds);
    if (rep > 0 &&
        (s.work != samples[0].work || s.rounds != samples[0].rounds ||
         s.updates != samples[0].updates)) {
      deterministic = false;
    }
    samples.push_back(std::move(s));
  }
  // Timed metrics (us_per_batch, ns_per_item, ...) come from the median-
  // seconds repetition (the lower middle one for an even count), so one
  // noisy repetition cannot set them; counters are identical across reps.
  std::vector<size_t> order(samples.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return samples[a].seconds < samples[b].seconds;
  });
  sp.sample = std::move(samples[order[(order.size() - 1) / 2]]);
  const MinMedMax t = min_med_max(std::move(secs));
  sp.seconds_median = t.median;
  sp.seconds_min = t.min;
  sp.seconds_max = t.max;
  if (!deterministic) {
    std::fprintf(stderr,
                 "warning: %s [%s]: counters changed across repetitions — "
                 "determinism violated\n",
                 bench_.name, format_params(sp.params).c_str());
  }
  return finish_point(std::move(sp));
}

SweepPoint Ctx::record(Params params, Sample sample) {
  SweepPoint sp;
  sp.params = std::move(params);
  sp.sample = std::move(sample);
  sp.reps = 1;
  sp.seconds_median = sp.seconds_min = sp.seconds_max = sp.sample.seconds;
  return finish_point(std::move(sp));
}

SweepPoint Ctx::finish_point(SweepPoint sp) {
  if (sp.seconds_median > 0 && sp.sample.updates > 0) {
    sp.updates_per_sec =
        static_cast<double>(sp.sample.updates) / sp.seconds_median;
  }
  // One aligned text line per point; metrics carry the harness-specific
  // columns the old ASCII tables used to print.
  std::string line = "  " + format_params(sp.params);
  char buf[160];
  if (sp.seconds_median > 0) {
    std::snprintf(buf, sizeof buf, " | %zux %s [%s, %s]", sp.reps,
                  format_seconds(sp.seconds_median).c_str(),
                  format_seconds(sp.seconds_min).c_str(),
                  format_seconds(sp.seconds_max).c_str());
    line += buf;
  }
  if (sp.updates_per_sec > 0) {
    std::snprintf(buf, sizeof buf, " | %.3g upd/s", sp.updates_per_sec);
    line += buf;
  }
  if (!sp.error.empty()) line += " | FAILED: " + sp.error;
  for (const auto& [k, v] : sp.sample.metrics) {
    std::snprintf(buf, sizeof buf, " %s=%.4g", k.c_str(), v);
    line += buf;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  points_.push_back(sp);
  return sp;
}

void Ctx::note(const std::string& text) {
  std::printf("  # %s\n", text.c_str());
}

Sample Ctx::fail(const std::string& why) {
  std::fprintf(stderr, "error: %s: %s\n", bench_.name, why.c_str());
  if (failure_.empty()) failure_ = why;
  return {};
}

std::vector<std::string> Ctx::consumed_overrides() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : consumed_) {
    if (v) out.push_back(k);
  }
  return out;
}

// ---- drivers ----

int bench_main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  if (cli.bad) {
    usage(argv[0]);
    return 2;
  }
  const auto& benches = all_benchmarks();
  if (cli.list) {
    for (const Benchmark& b : benches) {
      std::printf("%-24s %-6s %s\n", b.name, b.experiment, b.claim);
    }
    return 0;
  }
  std::regex re;
  try {
    re = std::regex(cli.match);
  } catch (const std::regex_error&) {
    std::fprintf(stderr, "invalid --match regex: %s\n", cli.match.c_str());
    return 2;
  }
  std::vector<const Benchmark*> subset;
  for (const Benchmark& b : benches) {
    if (std::regex_search(b.name, re)) subset.push_back(&b);
  }
  if (subset.empty()) {
    std::fprintf(stderr, "no benchmark matches %s (try --list)\n",
                 cli.match.c_str());
    return 2;
  }
  return run_benchmarks(cli, subset);
}

}  // namespace pdmm::bench
