// Stable text renderings of evaluated fault classes, shared by the
// campaign tests that pin verdicts exactly: the identity of a (class,
// pass) pair and everything the coverage compilation consumes from it,
// plus the campaign configuration the committed digests pin.
#pragma once

#include <string>

#include "fault/fault.hpp"
#include "flashadc/campaign.hpp"
#include "macro/signature.hpp"

namespace dot::testing_support {

/// The configuration the committed campaign digests pin: the --smoke
/// preset at a pinned seed; the bank and the chip run 8 slices.
inline flashadc::CampaignConfig digest_config(const std::string& macro) {
  flashadc::CampaignConfig config;
  config.defect_count = 8000;
  config.envelope_samples = 4;
  config.max_classes = 8;
  config.seed = 1995;
  config.macro_selection = macro;
  config.bank_size = 8;
  config.chip_slices = 8;
  return config;
}

/// Stable identity of an evaluated (class, pass) pair.
inline std::string class_key(const flashadc::FaultOutcome& o) {
  std::string key = fault::fault_kind_name(o.cls.representative.kind);
  for (const auto& net : o.cls.representative.nets) key += '|' + net;
  key += '|' + o.cls.representative.device;
  key += o.non_catastrophic ? "|noncat" : "|cat";
  return key;
}

/// Everything the coverage compilation consumes, rendered for equality:
/// voltage signature, current flags, detection bits, unresolved status
/// and attempts.
inline std::string verdict_of(const flashadc::FaultOutcome& o) {
  std::string v = macro::voltage_signature_name(o.voltage);
  for (const bool flag :
       {o.current.ivdd, o.current.iddq, o.current.iinput,
        o.detection.missing_code, o.detection.ivdd, o.detection.iddq,
        o.detection.iinput, o.status == flashadc::EvalStatus::kUnresolved})
    v += flag ? "|1" : "|0";
  return v + "|attempts=" + std::to_string(o.attempts);
}

}  // namespace dot::testing_support
