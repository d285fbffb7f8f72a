// Campaign benchmark: time to a coverage answer.
//
//   campaign_bench --workload comparator|bank|sprinkle --seed N
//                  --seconds S --trace 0|1 [--spans FILE]
//
// One process, one campaign at a time (a closed loop), at most nproc
// threads, no journal and no dispatch. The seed generates the
// CampaignConfig; the program sees only that config.
//
// --trace 0 times flashadc::run_campaign with tracing off, in rounds of
// nproc threads (campaign_s), one thread (serial_s) and nproc threads
// again, until the time is up, and reports medians. --trace 1 times
// run_campaign a few times at nproc threads, then runs the traced
// rebuild (rebuild.hpp) once and reports the per-layer split. Every run
// hashes its class verdicts; all runs of one process must agree, and at
// the default seed they must equal the reference recorded below.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted / failed count class outcomes (a run that throws or
// disagrees counts all of its classes as failed).

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "flashadc/bank.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/campaign.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "rebuild.hpp"
#include "trace.hpp"
#include "util/parallel.hpp"

namespace {

using dot::flashadc::CampaignConfig;
using dot::flashadc::EvalStatus;
using dot::flashadc::FaultOutcome;
using dot::flashadc::GlobalResult;
using dot::flashadc::MacroCampaignResult;
using perfbench::SpanRecord;
using Clock = std::chrono::steady_clock;

/// Seed whose verdict digests are recorded in kWorkloads.
constexpr std::uint64_t kDefaultSeed = 1995;
/// Seed kept out of tuning, for confirming a claimed gain.
constexpr std::uint64_t kHeldOutSeed = 2718;
/// Set-up is repeated in batches of at least this many repeats and this
/// much time, so that even a sub-millisecond set-up has a steady median.
constexpr int kSetupBatchMinRepeats = 3;
constexpr double kSetupBatchSeconds = 0.1;
constexpr int kSetupBatchMaxRepeats = 200;

struct Workload {
  const char* name;
  const char* macro_selection;
  std::size_t defects;
  int envelope_samples;
  std::size_t max_classes;
  int bank_size;
  /// Verdict digest of the campaign at kDefaultSeed.
  const char* reference_digest;
};

// Why each workload exists (see METRICS.md): comparator -- many small
// dense transients, where fault evaluation, dense LU and thread scaling
// show; bank -- the sparse path, where assembly dominates a transient;
// sprinkle -- defect sprinkling, extraction and collapsing dominate and
// the solver is bypassed.
constexpr Workload kWorkloads[] = {
    {"comparator", "comparator", 50000, 8, 60, 64, "130752ac5c2b42fd"},
    {"bank", "bank", 50000, 8, 16, 8, "19496cdcd280916d"},
    {"sprinkle", "all", 4000000, 4, 2, 64, "bb403fff149ebf27"},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

unsigned available_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Peak resident memory of this process image. VmHWM, not ru_maxrss:
/// on Linux ru_maxrss carries over the parent's peak across exec, so a
/// small benchmark started from a larger launcher would report the
/// launcher's memory.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  std::fclose(f);
  return kib / 1024.0;
}

CampaignConfig make_config(const Workload& w, std::uint64_t seed) {
  CampaignConfig config;
  config.seed = seed;
  config.defect_count = w.defects;
  config.envelope_samples = w.envelope_samples;
  config.max_classes = w.max_classes;
  config.macro_selection = w.macro_selection;
  config.bank_size = w.bank_size;
  // Deadlines off, so outcome and attempt counts repeat exactly.
  config.resilience.class_timeout_ms = 0.0;
  return config;
}

/// The workload's macro cells and layouts, built once (set-up work).
void build_cells(const Workload& w, const CampaignConfig& config) {
  namespace fa = dot::flashadc;
  if (std::strcmp(w.macro_selection, "bank") == 0) {
    fa::BankOptions opt;
    opt.size = config.bank_size;
    opt.dft = config.dft;
    fa::build_bank_macro(opt);
    return;
  }
  fa::build_comparator_macro(config.dft);
  if (std::strcmp(w.macro_selection, "all") == 0) {
    fa::build_ladder_macro();
    fa::build_biasgen_macro();
    fa::build_clockgen_macro();
    fa::build_decoder_macro();
  }
}

// ---------------------------------------------------------------------
// Verdict digest.

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Hash of every class outcome of one macro: class index, status,
/// attempts, voltage signature, current flags and detection bits.
std::string macro_digest(const MacroCampaignResult& m) {
  Fnv1a h;
  h.add(m.macro_name);
  // Every evaluated class has a catastrophic outcome, in class order;
  // non-catastrophic outcomes find their class index by key.
  std::unordered_map<std::string, std::uint64_t> index;
  for (std::size_t i = 0; i < m.catastrophic.size(); ++i)
    index.emplace(m.catastrophic[i].cls.representative.key(), i);
  auto add = [&](std::uint64_t i, const FaultOutcome& o) {
    h.add(i);
    h.add(o.non_catastrophic ? 1u : 0u);
    h.add(static_cast<std::uint64_t>(o.status));
    h.add(static_cast<std::uint64_t>(o.attempts));
    h.add(static_cast<std::uint64_t>(o.voltage));
    h.add(std::uint64_t{o.current.ivdd} | std::uint64_t{o.current.iddq} << 1 |
          std::uint64_t{o.current.iinput} << 2);
    h.add(std::uint64_t{o.detection.missing_code} |
          std::uint64_t{o.detection.ivdd} << 1 |
          std::uint64_t{o.detection.iddq} << 2 |
          std::uint64_t{o.detection.iinput} << 3);
  };
  h.add(m.catastrophic.size());
  for (std::size_t i = 0; i < m.catastrophic.size(); ++i)
    add(i, m.catastrophic[i]);
  h.add(m.noncatastrophic.size());
  for (const FaultOutcome& o : m.noncatastrophic) {
    const auto it = index.find(o.cls.representative.key());
    add(it == index.end() ? ~std::uint64_t{0} : it->second, o);
  }
  return h.hex();
}

std::string campaign_digest(const GlobalResult& g) {
  Fnv1a h;
  for (const MacroCampaignResult& m : g.macros) h.add(macro_digest(m));
  return h.hex();
}

// ---------------------------------------------------------------------
// Class-outcome accounting across the timed runs of one process.

struct Tally {
  std::size_t attempted = 0;   ///< Class outcomes attempted.
  std::size_t unresolved = 0;  ///< kUnresolved outcomes.
  std::size_t retries = 0;     ///< Attempts beyond the first.
  std::size_t lost = 0;        ///< Outcomes of runs that threw or disagreed.
  std::size_t failed() const { return unresolved + lost; }
};

std::size_t outcome_count(const GlobalResult& g) {
  std::size_t n = 0;
  for (const auto& m : g.macros)
    n += m.catastrophic.size() + m.noncatastrophic.size();
  return n;
}

/// Runs and checks campaigns; one object per process.
class CampaignRunner {
 public:
  CampaignRunner(const Workload& w, const CampaignConfig& config,
                 std::uint64_t seed)
      : workload_(w), config_(config) {
    if (seed == kDefaultSeed) expected_ = w.reference_digest;
  }

  /// One timed run_campaign at `threads`. Returns its wall time, or
  /// nullopt when it threw or its digest disagreed.
  std::optional<double> run(unsigned threads) {
    dot::util::ThreadPool::set_global_thread_count(threads);
    const auto t0 = Clock::now();
    std::optional<GlobalResult> result;
    try {
      result = dot::flashadc::run_campaign(config_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign threw: %s\n", e.what());
    }
    const double wall = seconds_since(t0);
    if (!result) {
      const std::size_t n =
          outcomes_per_run_ > 0 ? outcomes_per_run_ : fallback_outcomes();
      tally_.attempted += n;
      tally_.lost += n;
      ok_ = false;
      return std::nullopt;
    }
    const std::size_t n = outcome_count(*result);
    outcomes_per_run_ = n;
    tally_.attempted += n;
    const std::string digest = campaign_digest(*result);
    if (expected_.empty()) expected_ = digest;
    if (digest != expected_) {
      std::fprintf(stderr, "verdict digest %s != expected %s\n",
                   digest.c_str(), expected_.c_str());
      tally_.lost += n;
      ok_ = false;
      return std::nullopt;
    }
    for (const auto& m : result->macros)
      for (const auto* list : {&m.catastrophic, &m.noncatastrophic})
        for (const FaultOutcome& o : *list) {
          if (o.status == EvalStatus::kUnresolved) ++tally_.unresolved;
          tally_.retries +=
              static_cast<std::size_t>(std::max(0, o.attempts - 1));
        }
    std::fprintf(stderr, "run_campaign at %u threads: %.3f s\n", threads, wall);
    last_ = std::move(result);
    return wall;
  }

  const Tally& tally() const { return tally_; }
  bool ok() const { return ok_; }
  const std::string& digest() const { return expected_; }
  /// The last run whose digest matched, if any.
  const std::optional<GlobalResult>& last() const { return last_; }

 private:
  /// Outcome count charged to a run that threw before any run finished:
  /// one catastrophic outcome per class cap and macro.
  std::size_t fallback_outcomes() const {
    const std::size_t macros =
        std::strcmp(workload_.macro_selection, "all") == 0 ? 5 : 1;
    return macros * workload_.max_classes;
  }

  const Workload& workload_;
  CampaignConfig config_;
  std::string expected_;
  std::size_t outcomes_per_run_ = 0;  ///< Of the last finished run.
  Tally tally_;
  bool ok_ = true;
  std::optional<GlobalResult> last_;
};

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              std::max<std::size_t>(1, tally.attempted), tally.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Whether a traced rebuild reproduced the campaign's defect, fault and
/// class counts and the verdict digest of every macro.
bool same_campaign(const GlobalResult& traced, const GlobalResult* reference) {
  if (reference == nullptr ||
      traced.macros.size() != reference->macros.size()) {
    std::fprintf(stderr, "traced rebuild: no matching campaign\n");
    return false;
  }
  bool same = true;
  for (std::size_t m = 0; m < traced.macros.size(); ++m) {
    const MacroCampaignResult& a = reference->macros[m];
    const MacroCampaignResult& b = traced.macros[m];
    if (a.macro_name != b.macro_name ||
        a.defects.defects_sprinkled != b.defects.defects_sprinkled ||
        a.defects.faults_extracted != b.defects.faults_extracted ||
        a.defects.classes.size() != b.defects.classes.size() ||
        macro_digest(a) != macro_digest(b)) {
      std::fprintf(stderr, "traced rebuild differs from run_campaign on %s\n",
                   a.macro_name.c_str());
      same = false;
    }
  }
  return same;
}

/// What the metrics need from one traced rebuild.
struct TracedRun {
  std::uint32_t run_id = 0;
  std::uint32_t root_span = 0;
  double wall = 0.0;
  std::size_t defects = 0, faults = 0, classes = 0;
  std::size_t envelope_attempted = 0, envelope_kept = 0;
};

TracedRun summarize(const perfbench::TracedCampaign& traced,
                    std::uint32_t run_id) {
  TracedRun run;
  run.run_id = run_id;
  run.root_span = traced.root_span;
  for (const MacroCampaignResult& m : traced.global.macros) {
    run.defects += m.defects.defects_sprinkled;
    run.faults += m.defects.faults_extracted;
    run.classes += m.defects.classes.size();
  }
  run.envelope_attempted = traced.envelope_attempted;
  run.envelope_kept = traced.envelope_kept;
  return run;
}

/// Per-layer metrics from the spans of one traced run; false when its
/// wall split does not add up to its wall time.
bool traced_metrics(const TracedRun& run, const std::vector<SpanRecord>& spans,
                    double traced_median, double campaign_median,
                    unsigned threads, std::vector<Metric>& metrics) {
  bool ok = true;
  const double wall = run.wall;
  const std::size_t defects = run.defects, faults = run.faults,
                    classes = run.classes;
  std::map<std::string, double> busy;  // summed span durations by name
  std::vector<double> class_ms;
  double stage_s = 0.0;
  std::size_t tran_calls = 0, nonconverged = 0, steps = 0, newton = 0,
              factorizations = 0, symbolic = 0, gshunt = 0, unknowns = 0,
              variants = 0, dc_calls = 0;
  for (const SpanRecord& s : spans) {
    busy[s.name] += s.duration();
    if (std::strcmp(s.name, "eval.class") == 0)
      class_ms.push_back(1e3 * s.duration());
    if (std::strcmp(s.name, "eval.stage") == 0) stage_s += s.duration();
    if (std::strcmp(s.name, "fault.apply") == 0) ++variants;
    if (std::strcmp(s.name, "spice.dc") == 0) ++dc_calls;
    if (std::strcmp(s.name, "spice.tran") == 0) {
      ++tran_calls;
      if (s.nonconverged) {
        ++nonconverged;
        continue;
      }
      steps += s.steps;
      newton += s.tran.newton_iterations;
      factorizations += s.tran.factorizations;
      symbolic += s.tran.symbolic_analyses;
      gshunt += s.tran.gshunt_rescues;
      unknowns = std::max(unknowns, s.tran.unknowns);
    }
  }

  // Wall-time split: these layers plus untraced_s sum to trace.wall_s.
  std::map<std::string, double> split =
      perfbench::attribute_wall(spans, run.root_span);
  double macro_other = 0.0;
  for (const auto& [name, seconds] : split)
    if (name.rfind("flashadc.", 0) == 0 && name != "flashadc.cell_build" &&
        name != "flashadc.golden")
      macro_other += seconds;
  const std::pair<const char*, const char*> layers[] = {
      {"flashadc.cell_build_s", "flashadc.cell_build"},
      {"defect.sprinkle_s", "defect.sprinkle"},
      {"flashadc.golden_s", "flashadc.golden"},
      {"macro.envelope_s", "macro.envelope"},
      {"fault.apply_s", "fault.apply"},
      {"spice.tran_other_s", "spice.tran"},
      {"spice.dc_s", "spice.dc"},
      {"spice.device_eval_s", "spice.device_eval"},
      {"spice.assembly_s", "spice.assembly"},
      {"numeric.factor_symbolic_s", "numeric.factor_symbolic"},
      {"numeric.factor_numeric_s", "numeric.factor_numeric"},
      {"numeric.factor_other_s", "numeric.factor_other"},
      {"numeric.solve_s", "numeric.solve"},
      {"eval.class_other_s", "eval.class"},
      {"eval.idle_s", "eval.stage"},
      {"macro.compile_s", "macro.compile"},
      {"untraced_s", "campaign"},
  };
  double accounted = macro_other;
  for (const auto& [metric, layer] : layers) {
    const auto it = split.find(layer);
    const double v = it == split.end() ? 0.0 : it->second;
    accounted += v;
    metrics.push_back({metric, v, "s"});
  }
  metrics.push_back({"flashadc.macro_other_s", macro_other, "s"});
  const double tran_wall =
      split["spice.tran"] + split["spice.device_eval"] +
      split["spice.assembly"] + split["numeric.factor_symbolic"] +
      split["numeric.factor_numeric"] + split["numeric.factor_other"] +
      split["numeric.solve"];
  metrics.push_back({"spice.tran_s", tran_wall, "s"});
  if (wall <= 0.0 || std::fabs(accounted - wall) > 1e-6 * wall + 1e-9) {
    std::fprintf(stderr, "traced split %.9f s != traced wall %.9f s\n",
                 accounted, wall);
    ok = false;
  }
  metrics.push_back({"trace.wall_s", wall, "s"});
  metrics.push_back(
      {"trace.accounted_frac", wall > 0 ? accounted / wall : 0, "ratio"});
  metrics.push_back({"trace.traced_s", traced_median, "s"});
  metrics.push_back({"trace.campaign_s", campaign_median, "s"});
  metrics.push_back(
      {"trace.overhead_s", traced_median - campaign_median, "s"});

  for (const char* m : {"comparator", "bank", "ladder", "biasgen", "clockgen",
                        "decoder"})
    metrics.push_back({std::string("flashadc.") + m + "_s",
                       busy["flashadc." + std::string(m)], "s"});

  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  metrics.push_back({"defect.defects", count(defects), "count"});
  metrics.push_back({"defect.faults", count(faults), "count"});
  metrics.push_back({"defect.classes", count(classes), "count"});
  metrics.push_back({"defect.fault_yield",
                     defects ? count(faults) / count(defects) : 0.0, "ratio"});
  metrics.push_back({"macro.envelope_kept_frac",
                     run.envelope_attempted
                         ? count(run.envelope_kept) /
                               count(run.envelope_attempted)
                         : 0.0,
                     "ratio"});
  metrics.push_back({"fault.variants", count(variants), "count"});
  metrics.push_back({"spice.tran_calls", count(tran_calls), "count"});
  metrics.push_back({"spice.nonconverged", count(nonconverged), "count"});
  metrics.push_back({"spice.steps", count(steps), "count"});
  metrics.push_back({"spice.newton_iters", count(newton), "count"});
  metrics.push_back({"spice.newton_per_step",
                     steps ? count(newton) / count(steps) : 0.0, "ratio"});
  metrics.push_back({"spice.factorizations", count(factorizations), "count"});
  metrics.push_back({"spice.symbolic_analyses", count(symbolic), "count"});
  metrics.push_back({"spice.gshunt_rescues", count(gshunt), "count"});
  metrics.push_back({"spice.unknowns", count(unknowns), "count"});
  metrics.push_back({"spice.dc_calls", count(dc_calls), "count"});

  double class_busy = 0.0;
  for (const double ms : class_ms) class_busy += ms / 1e3;
  metrics.push_back({"eval.stage_s", stage_s, "s"});
  metrics.push_back({"eval.classes_per_s",
                     stage_s > 0 ? count(class_ms.size()) / stage_s : 0.0,
                     "1/s"});
  metrics.push_back({"eval.class_p50_ms", percentile(class_ms, 0.5), "ms"});
  metrics.push_back({"eval.class_p90_ms", percentile(class_ms, 0.9), "ms"});
  metrics.push_back({"eval.class_max_ms", percentile(class_ms, 1.0), "ms"});
  metrics.push_back({"eval.pool_util",
                     stage_s > 0 ? class_busy / (threads * stage_s) : 0.0,
                     "ratio"});
  return ok;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload comparator|bank|sprinkle --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n"
               "  seed %llu has recorded verdict digests; seed %llu is held "
               "out for confirming a claimed gain\n",
               argv0, static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  const Workload* workload = nullptr;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = value != nullptr;
    if (arg == "--workload" && ok) {
      workload = nullptr;
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, value) == 0) workload = &w;
      ok = workload != nullptr;
    } else if (arg == "--seed" && ok) {
      ok = have_seed = parse_u64(value, seed);
    } else if (arg == "--seconds" && ok) {
      ok = parse_u64(value, seconds) && seconds >= 1 && seconds <= 3600;
    } else if (arg == "--trace" && ok) {
      ok = parse_u64(value, trace) && trace <= 1;
    } else if (arg == "--spans" && ok) {
      spans_path = value;
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
    ++i;
  }
  if (workload == nullptr || !have_seed || seconds == 0 || trace > 1)
    return usage(argv[0]);
  const Workload& w = *workload;
  const unsigned threads = available_cpus();

  // Set-up: thread pool, the workload's macro cells and layouts, and the
  // config generated from the seed. It runs in batches, one before the
  // first timed run and, with --trace 0, one before every round, so its
  // samples span the run like the campaign samples do. setup_s is their
  // median; the very first sample is timed from process start.
  std::vector<double> setup_s;
  CampaignConfig config;
  const auto set_up = [&] {
    const auto batch_start = Clock::now();
    for (int r = 0; r < kSetupBatchMaxRepeats &&
                    (r < kSetupBatchMinRepeats ||
                     seconds_since(batch_start) < kSetupBatchSeconds);
         ++r) {
      const auto t0 = setup_s.empty() ? start : Clock::now();
      dot::util::ThreadPool::set_global_thread_count(threads);
      config = make_config(w, seed);
      build_cells(w, config);
      setup_s.push_back(seconds_since(t0));
    }
  };
  set_up();

  CampaignRunner runner(w, config, seed);
  const auto measure_start = Clock::now();
  const double budget = static_cast<double>(seconds);
  bool correct = true;
  std::vector<Metric> metrics;

  if (trace == 0) {
    // Rounds of nproc, 1, nproc threads, so both kinds of run see the
    // same host conditions and the cheaper nproc runs get more samples.
    // After the first round, no run starts that would overrun the budget
    // if it took as long as the last run at its thread count.
    std::vector<double> campaign_s, serial_s;
    bool in_time = true;
    for (int round_no = 0; in_time; ++round_no) {
      if (round_no > 0) set_up();
      for (const unsigned n : {threads, 1u, threads}) {
        std::vector<double>& samples = n == 1 ? serial_s : campaign_s;
        in_time = round_no == 0 || samples.empty() ||
                  seconds_since(measure_start) + samples.back() <= budget;
        if (!in_time) break;
        if (const auto t = runner.run(n)) samples.push_back(*t);
      }
    }
    const Tally& tally = runner.tally();
    correct = runner.ok() && !campaign_s.empty() && !serial_s.empty();
    std::printf("workload %s seed %llu threads %u: %zu+%zu runs, digest %s\n",
                w.name, static_cast<unsigned long long>(seed), threads,
                campaign_s.size(), serial_s.size(), runner.digest().c_str());
    std::printf("class outcomes attempted %zu, unresolved %zu, lost %zu, "
                "retry attempts %zu\n",
                tally.attempted, tally.unresolved, tally.lost, tally.retries);
    const double attempted =
        static_cast<double>(std::max<std::size_t>(1, tally.attempted));
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"campaign_s", median(campaign_s), "s"},
        {"serial_s", median(serial_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"resolved_frac", 1.0 - static_cast<double>(tally.failed()) / attempted,
         "ratio"},
    };
    print_result(correct, tally, metrics);
    return 0;
  }

  // Traced: pairs of an untraced nproc-thread run and a traced rebuild
  // at nproc threads, until the time is up. The per-layer split comes
  // from the traced run with the median wall time, and the tracing
  // overhead is the median traced wall minus the median untraced one.
  std::vector<double> campaign_s;
  std::vector<TracedRun> traced_runs;
  bool reproduced = true;
  for (std::uint32_t run_id = 1;; ++run_id) {
    const auto t0 = Clock::now();
    if (const auto t = runner.run(threads)) campaign_s.push_back(*t);
    dot::util::ThreadPool::set_global_thread_count(threads);
    perfbench::set_trace_run(run_id);
    const perfbench::TracedCampaign traced = perfbench::traced_campaign(config);
    reproduced = same_campaign(traced.global,
                               runner.last() ? &*runner.last() : nullptr) &&
                 reproduced;
    traced_runs.push_back(summarize(traced, run_id));
    const double pair = seconds_since(t0);
    if (seconds_since(measure_start) + pair > budget) break;
  }
  const std::vector<SpanRecord> spans = perfbench::recorded_spans();
  if (!spans_path.empty()) perfbench::write_spans(spans, spans_path);
  std::vector<double> traced_s;
  for (TracedRun& run : traced_runs) {
    for (const SpanRecord& s : spans)
      if (s.id == run.root_span) run.wall = s.duration();
    traced_s.push_back(run.wall);
  }
  std::sort(traced_runs.begin(), traced_runs.end(),
            [](const TracedRun& a, const TracedRun& b) {
              return a.wall < b.wall;
            });
  const TracedRun& median_run = traced_runs[(traced_runs.size() - 1) / 2];
  std::vector<SpanRecord> run_spans;
  for (const SpanRecord& s : spans)
    if (s.run == median_run.run_id) run_spans.push_back(s);
  const bool split_ok =
      traced_metrics(median_run, run_spans, median(traced_s),
                     median(campaign_s), threads, metrics);
  correct = runner.ok() && reproduced && split_ok;
  const Tally& tally = runner.tally();
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  metrics.push_back({"eval.outcomes", count(tally.attempted), "count"});
  metrics.push_back({"eval.unresolved", count(tally.unresolved), "count"});
  metrics.push_back({"eval.retry_attempts", count(tally.retries), "count"});
  std::printf("workload %s seed %llu threads %u: %zu untraced runs, "
              "digest %s\n",
              w.name, static_cast<unsigned long long>(seed), threads,
              campaign_s.size(), runner.digest().c_str());
  print_result(correct, tally, metrics);
  return 0;
}
