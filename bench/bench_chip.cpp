// Full-chip campaign throughput: structure-exploiting Schur solve vs
// flat sparse LU.
//
// Runs the chip campaign (N comparator slices + bias generator + clock
// generator + thermometer decoder as ONE netlist) in two arms --
// --solver=sparse (flat baseline) and --solver=schur (block-arrowhead
// path) -- and reports classes/sec for both with the per-run setup cost
// (defect sprinkle, collapsing, envelope, nominal solve) subtracted:
//
//   rate = (N - 1) / (wall_N - wall_1)
//
// where wall_1 is an otherwise-identical run capped at one class. The
// timed runs evaluate on one thread, interleaved across arms; the
// difference is taken within a round and the median round kept (3
// rounds under --smoke, else 1).
// Correctness gates, all of which fail the bench with non-zero exit:
//   * both arms must produce bit-identical per-class fault verdicts
//     (voltage signature, current flags, detection, status);
//   * a 2-shard schur run, merged, must match the unsharded schur
//     verdicts (sharding composes with the block solver);
//   * the schur arm must actually have run the block path (nonzero
//     block-factor activity);
//   * the schur arm's throughput must stay above the regression floor
//     (>= 0.4x flat sparse).
//
// The speedup gate is a floor, not a win claim. Measured honestly (see
// EXPERIMENTS.md), the exact-M block path is ~1.4x SLOWER than the
// flat cached-symbolic sparse refactor inside a transient: every MOS
// stamp changes on every Newton iterate, so every block refreshes and
// the arrowhead's extra work -- W = F A^-1 E per block -- buys nothing
// the flat LU doesn't already have. The block path's value here is the
// attributable per-block factor accounting and the reuse/low-rank
// machinery for reuse-rich settings; the floor exists so a pathological
// slowdown (quadratic blow-up, lost symbolic cache) still fails CI.
//
//   bench_chip [--chip-slices=N] [--classes=N] [--smoke]
//              [--json=FILE | --json-root]
//
// JSON result payload (dot-bench-v1):
//   {"slices": N, "classes": N, "sparse_classes_per_sec": ...,
//    "schur_classes_per_sec": ..., "speedup": ...,
//    "block_reuse_rate": ..., "verdicts_match": true|false,
//    "sharded_match": true|false}
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "flashadc/campaign.hpp"

namespace {

using dot::flashadc::CampaignConfig;
using dot::flashadc::EvalStatus;
using dot::flashadc::FaultOutcome;
using dot::flashadc::MacroCampaignResult;
using dot::flashadc::run_chip_campaign;

/// Stable identity of an evaluated (class, pass) pair.
std::string class_key(const FaultOutcome& o) {
  std::string key = dot::fault::fault_kind_name(o.cls.representative.kind);
  for (const auto& net : o.cls.representative.nets) key += '|' + net;
  key += '|' + o.cls.representative.device;
  key += o.non_catastrophic ? "|noncat" : "|cat";
  return key;
}

/// Everything the coverage compilation consumes, rendered for equality.
std::string verdict_of(const FaultOutcome& o) {
  std::string v = dot::macro::voltage_signature_name(o.voltage);
  auto flag = [&](const char* name, bool b) {
    v += '|';
    v += name;
    v += b ? "=1" : "=0";
  };
  flag("ivdd", o.current.ivdd);
  flag("iddq", o.current.iddq);
  flag("iinput", o.current.iinput);
  flag("missing_code", o.detection.missing_code);
  flag("det_ivdd", o.detection.ivdd);
  flag("det_iddq", o.detection.iddq);
  flag("det_iinput", o.detection.iinput);
  flag("unresolved", o.status == EvalStatus::kUnresolved);
  return v;
}

using VerdictMap = std::map<std::string, std::string>;

void collect(const MacroCampaignResult& r, VerdictMap& out) {
  for (const auto& o : r.catastrophic) out[class_key(o)] = verdict_of(o);
  for (const auto& o : r.noncatastrophic) out[class_key(o)] = verdict_of(o);
}

/// Prints the first few differences between two verdict maps.
bool compare_verdicts(const char* what, const VerdictMap& expected,
                      const VerdictMap& got) {
  bool ok = true;
  int shown = 0;
  for (const auto& [key, verdict] : expected) {
    const auto it = got.find(key);
    const std::string* other = it == got.end() ? nullptr : &it->second;
    if (other != nullptr && *other == verdict) continue;
    ok = false;
    if (shown++ < 5)
      std::fprintf(stderr, "%s MISMATCH %s\n  expected %s\n  got      %s\n",
                   what, key.c_str(), verdict.c_str(),
                   other ? other->c_str() : "<missing>");
  }
  if (got.size() != expected.size()) {
    ok = false;
    std::fprintf(stderr, "%s: class-count mismatch: expected %zu, got %zu\n",
                 what, expected.size(), got.size());
  }
  if (ok) std::printf("%s: verdicts bit-identical (%zu keys)\n", what,
                      expected.size());
  return ok;
}

MacroCampaignResult run_arm(CampaignConfig config, std::size_t max_classes,
                            dot::spice::SolverMode mode) {
  config.max_classes = max_classes;
  config.solver.mode = mode;
  config.collect_phase_times = false;  // timed arms stay clock-free
  return run_chip_campaign(config);
}

/// Per arm: the class-evaluation seconds (wall_N - wall_1 of one round,
/// median over rounds) and the N-class result.
struct TimedArms {
  double sparse_seconds = 0.0, schur_seconds = 0.0;
  MacroCampaignResult sparse_result, schur_result;
};

/// Times {1, N} classes x {flat sparse, schur} over `repeats`
/// interleaved rounds on a one-thread pool. Subtracting the setup run
/// of the same round and taking the median round sheds host noise that
/// a single short sample or a min over unpaired runs picks up. The
/// floor was calibrated on serial class evaluation: with a handful of
/// classes a pooled makespan is set by which classes share a thread
/// rather than by solver speed. The pool is restored to `threads`
/// afterwards.
TimedArms time_arms(const CampaignConfig& config, std::size_t n,
                    unsigned threads, int repeats) {
  using dot::spice::SolverMode;
  auto wall = [&](std::size_t classes, SolverMode mode,
                  MacroCampaignResult* out) {
    const dot::bench::WallTimer timer;
    auto result = run_arm(config, classes, mode);
    const double seconds = timer.seconds();
    if (out != nullptr) *out = std::move(result);
    return seconds;
  };
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  TimedArms t;
  std::vector<double> sparse, schur;
  dot::util::ThreadPool::set_global_thread_count(1);
  for (int r = 0; r < repeats; ++r) {
    const double sparse_1 = wall(1, SolverMode::kSparse, nullptr);
    sparse.push_back(wall(n, SolverMode::kSparse, &t.sparse_result) -
                     sparse_1);
    const double schur_1 = wall(1, SolverMode::kSchur, nullptr);
    schur.push_back(wall(n, SolverMode::kSchur, &t.schur_result) - schur_1);
  }
  dot::util::ThreadPool::set_global_thread_count(threads);
  t.sparse_seconds = median(sparse);
  t.schur_seconds = median(schur);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  // --chip-slices=N is bench-local; strip it before the shared parser
  // (which rejects unknown flags) sees the argument list.
  int slices = 64;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--chip-slices=", 14) == 0) {
      char* end = nullptr;
      slices = static_cast<int>(std::strtol(argv[i] + 14, &end, 10));
      if (end == argv[i] + 14 || *end != '\0' || slices < 4 || slices > 256) {
        std::fprintf(stderr, "%s: bad --chip-slices value '%s'\n", argv[0],
                     argv[i] + 14);
        return 2;
      }
    } else {
      rest.push_back(argv[i]);
    }
  }
  auto args = dot::bench::BenchArgs::parse(static_cast<int>(rest.size()),
                                           rest.data(), 60000, 4);
  // Chip transients are column-sized; the shared 250-class default
  // would run for hours. --classes=N, --quick and --smoke override.
  if (args.config.max_classes == 250) args.config.max_classes = 12;
  if (args.smoke) {
    slices = 8;
    args.config.max_classes = 6;
  }
  args.config.macro_selection = "chip";
  args.config.chip_slices = slices;
  args.config.with_noncatastrophic = false;
  const std::size_t n = args.config.max_classes;
  dot::bench::print_header(
      "bench_chip: full-chip campaign, schur block solve vs flat sparse");
  std::printf("chip: %d slices + biasgen + clockgen + decoder\n", slices);

  const dot::bench::WallTimer timer;
  // The smoke runs last seconds, where host noise dominates one sample.
  const int repeats = args.smoke ? 3 : 1;

  const TimedArms timed = time_arms(args.config, n, args.threads, repeats);
  const MacroCampaignResult& sparse_result = timed.sparse_result;
  const MacroCampaignResult& schur_result = timed.schur_result;

  const std::size_t evaluated = sparse_result.catastrophic.size();
  const double sparse_per_class =
      evaluated > 1
          ? timed.sparse_seconds / static_cast<double>(evaluated - 1)
          : 0.0;
  const double schur_per_class =
      evaluated > 1
          ? timed.schur_seconds / static_cast<double>(evaluated - 1)
          : 0.0;
  const double sparse_rate =
      sparse_per_class > 0.0 ? 1.0 / sparse_per_class : 0.0;
  const double schur_rate = schur_per_class > 0.0 ? 1.0 / schur_per_class : 0.0;
  const double speedup =
      schur_per_class > 0.0 ? sparse_per_class / schur_per_class : 0.0;

  std::printf("classes %zu | sparse %.2f classes/s | schur %.2f classes/s "
              "| speedup %.2fx\n",
              evaluated, sparse_rate, schur_rate, speedup);
  std::printf("block factors: %zu refreshes | %zu reuses | %zu low-rank | "
              "reuse rate %.3f\n",
              schur_result.block_refreshes, schur_result.block_reuses,
              schur_result.lowrank_updates, schur_result.block_reuse_rate());

  // Gate 1: identical verdicts across the two solver arms.
  VerdictMap sparse_verdicts, schur_verdicts;
  collect(sparse_result, sparse_verdicts);
  collect(schur_result, schur_verdicts);
  const bool verdicts_match =
      compare_verdicts("schur-vs-sparse", sparse_verdicts, schur_verdicts);

  // Gate 2: a 2-shard schur run, merged, matches the unsharded run.
  VerdictMap sharded_verdicts;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    CampaignConfig config = args.config;
    config.resilience.shard_count = 2;
    config.resilience.shard_index = shard;
    collect(run_arm(config, n, dot::spice::SolverMode::kSchur),
            sharded_verdicts);
  }
  const bool sharded_match =
      compare_verdicts("sharded", schur_verdicts, sharded_verdicts);

  // Gate 3: the block path actually ran (a silent flat fallback would
  // pass the equality gates while benchmarking nothing).
  const bool block_path_ran = schur_result.block_refreshes > 0;
  if (!block_path_ran)
    std::fprintf(stderr,
                 "error: schur arm recorded no block-factor activity\n");

  // Gate 4: regression floor. Measured honestly the schur arm sits at
  // 0.50-0.60x of flat sparse (8 -> 256 slices; the block path does
  // strictly more per-iterate work than the flat refactor, see the
  // header comment). The floor is 0.4x -- margin below the measured
  // band, so it catches a pathological slowdown (quadratic blow-up,
  // lost symbolic cache) without tripping on timing noise.
  const bool above_floor = speedup >= 0.4;
  if (!above_floor)
    std::fprintf(stderr,
                 "error: schur arm below the 0.4x regression floor (%.2fx)\n",
                 speedup);

  std::ostringstream json;
  json << "{\"slices\": " << slices << ", \"classes\": " << evaluated
       << ", \"sparse_classes_per_sec\": " << sparse_rate
       << ", \"schur_classes_per_sec\": " << schur_rate
       << ", \"speedup\": " << speedup
       << ", \"block_reuse_rate\": " << schur_result.block_reuse_rate()
       << ", \"verdicts_match\": " << (verdicts_match ? "true" : "false")
       << ", \"sharded_match\": " << (sharded_match ? "true" : "false") << "}";
  dot::bench::report_run(args, timer, evaluated, json.str());
  return verdicts_match && sharded_match && block_path_ran && above_floor ? 0
                                                                          : 1;
}
