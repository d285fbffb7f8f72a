// Shared campaign-knob parsing for the example CLIs and the bench
// harnesses (bench/bench_common.hpp uses parse_common_arg).
//
// The dispatch tools (dispatch_daemon / dispatch_worker) must agree
// with adc_coverage on every knob that shapes the campaign identity --
// seed, defect budget, macro selection, ... -- because the
// dispatcher validates worker hellos field-by-field against its own
// meta record. Keeping one parser guarantees a worker launched with the
// same flags as the daemon passes the handshake interlock.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "flashadc/campaign.hpp"

namespace dot::examples {

/// Returns the value part when `arg` is "<prefix><value>", else nullptr.
inline const char* arg_value(const std::string& arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
}

/// Result of offering one argv entry to the shared parser.
enum class ArgParse {
  kConsumed,  ///< Recognized and applied.
  kUnknown,   ///< Not a shared campaign knob; try the tool's own flags.
  kBad,       ///< Recognized but malformed (diagnostic already printed).
};

/// Numeric knob "<name>=<value>": kUnknown when `arg` is another flag.
/// Otherwise the value must be a whole decimal number in [lo, hi] --
/// digits only, no sign, space, fraction or overflow. A good value is
/// stored in `out` (kConsumed); a bad one leaves `out` untouched and
/// prints "<argv0>: bad <name> value '<value>' (expected a whole number
/// in lo..hi)" (kBad). Every numeric knob of every campaign CLI and
/// bench goes through here, so garbage never runs as a 0.
template <typename T>
ArgParse parse_whole_arg(const char* argv0, const std::string& arg,
                         const char* name, std::uint64_t lo, std::uint64_t hi,
                         T& out) {
  const std::size_t n = std::strlen(name);
  if (arg.compare(0, n, name) != 0 || arg.size() == n || arg[n] != '=')
    return ArgParse::kUnknown;
  const char* v = arg.c_str() + n + 1;
  bool ok = *v >= '0' && *v <= '9';
  std::uint64_t value = 0;
  if (ok) {
    char* end = nullptr;
    errno = 0;
    value = std::strtoull(v, &end, 10);
    ok = *end == '\0' && errno == 0 && value >= lo && value <= hi;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "%s: bad %s value '%s' (expected a whole number in "
                 "%llu..%llu)\n",
                 argv0, name, v, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return ArgParse::kBad;
  }
  out = static_cast<T>(value);
  return ArgParse::kConsumed;
}

/// Upper bound of the count knobs (--defects, --classes): far past any
/// campaign that fits in memory, low enough that a typo'd extra digit
/// block is caught.
inline constexpr std::uint64_t kMaxCountArg = 1000000000;

/// The knobs every campaign CLI and every bench harness shares: the
/// numeric budgets, --threads (into `threads`; 0 = hardware
/// concurrency) and --phase-times. The removed --batch and --solver are
/// rejected here with a diagnostic.
inline ArgParse parse_common_arg(const char* argv0, const std::string& arg,
                                 flashadc::CampaignConfig& config,
                                 unsigned& threads) {
  ArgParse r = ArgParse::kUnknown;
  auto whole = [&](const char* name, std::uint64_t lo, std::uint64_t hi,
                   auto& out) {
    if (r == ArgParse::kUnknown)
      r = parse_whole_arg(argv0, arg, name, lo, hi, out);
  };
  whole("--defects", 1, kMaxCountArg, config.defect_count);
  whole("--envelope", 1, 100000, config.envelope_samples);
  whole("--classes", 0, kMaxCountArg, config.max_classes);  // 0 = all
  whole("--seed", 0, UINT64_MAX, config.seed);
  whole("--threads", 0, 1024, threads);
  whole("--class-timeout-ms", 0, 86400000,  // 0 = unlimited; max one day
        config.resilience.class_timeout_ms);
  whole("--max-retries", 0, 100, config.resilience.max_retries);
  if (r != ArgParse::kUnknown) return r;

  if (arg_value(arg, "--batch") != nullptr) {
    std::fprintf(stderr,
                 "%s: --batch was removed; every fault class runs on the "
                 "one transient path\n",
                 argv0);
    return ArgParse::kBad;
  } else if (arg_value(arg, "--solver") != nullptr) {
    std::fprintf(stderr,
                 "%s: --solver was removed; every system runs on the one "
                 "sparse solver\n",
                 argv0);
    return ArgParse::kBad;
  } else if (arg == "--phase-times") {
    config.collect_phase_times = true;
  } else {
    return ArgParse::kUnknown;
  }
  return ArgParse::kConsumed;
}

/// The usage fragment for the shared knobs (one indented line each).
inline const char* campaign_usage() {
  return "          [--defects=N] [--envelope=N] [--classes=N] [--seed=N]\n"
         "          [--threads=N] [--class-timeout-ms=T] [--max-retries=N]\n"
         "          [--phase-times] [--macro=NAME]\n"
         "          [--bank-size=N] [--chip-slices=N]\n"
         "          [--quick] [--smoke]\n";
}

/// Offers `arg` to the shared campaign-knob parser: parse_common_arg
/// plus the macro selection (checked against the macro table) and
/// geometry and the example presets.
/// `threads` receives --threads (0 = hardware concurrency). On kBad a
/// diagnostic naming `argv0` was already printed to stderr.
inline ArgParse parse_campaign_arg(const char* argv0, const std::string& arg,
                                   flashadc::CampaignConfig& config,
                                   unsigned& threads) {
  ArgParse r = parse_common_arg(argv0, arg, config, threads);
  if (r == ArgParse::kUnknown)
    r = parse_whole_arg(argv0, arg, "--bank-size", 2, 256, config.bank_size);
  if (r == ArgParse::kUnknown)
    r = parse_whole_arg(argv0, arg, "--chip-slices", 4, 256,
                        config.chip_slices);
  if (r != ArgParse::kUnknown) return r;

  if (const char* v = arg_value(arg, "--macro=")) {
    try {
      flashadc::campaign_macros(v);  // validates against the macro table
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: --macro: %s\n", argv0, e.what());
      return ArgParse::kBad;
    }
    config.macro_selection = v;
  } else if (arg == "--quick") {
    config.defect_count = 50000;
    config.envelope_samples = 8;
    config.max_classes = 30;
  } else if (arg == "--smoke") {
    config.defect_count = 8000;
    config.envelope_samples = 4;
    config.max_classes = 8;
  } else {
    return ArgParse::kUnknown;
  }
  return ArgParse::kConsumed;
}

/// Parses "HOST:PORT" or bare "PORT" (host defaults to loopback).
/// Returns false (with a diagnostic) on a malformed port.
inline bool parse_endpoint(const char* argv0, const std::string& spec,
                           std::string& host, std::uint16_t& port) {
  std::string port_part = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    host = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  char* end = nullptr;
  const long p = std::strtol(port_part.c_str(), &end, 10);
  if (end == port_part.c_str() || *end != '\0' || p < 1 || p > 65535) {
    std::fprintf(stderr, "%s: bad port in '%s'\n", argv0, spec.c_str());
    return false;
  }
  port = static_cast<std::uint16_t>(p);
  return true;
}

}  // namespace dot::examples
