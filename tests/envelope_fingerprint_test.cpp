// Fingerprint of the good-signature envelope of all seven macro
// campaigns at the verdict-digest configuration: per macro, the number
// of Monte-Carlo samples the envelope kept and every measurement
// dimension's name and band edges. The verdict digest misses envelope
// changes that move no smoke verdict (a flipped bit in a macro's
// envelope salt, for one); this file catches them.
//
// Names and kept counts must match exactly. Band edges match to a
// relative 1e-9: LU factorizations that round differently move them by
// about 1e-12 without touching a verdict, while any change to the
// sample population moves them by far more. The committed file
// (golden/envelope_fingerprint.json) is checked at 1 and 4 threads.
//
// Regenerate (only for an intended envelope change, and review the
// diff) with
//   DOT_REGEN_GOLDEN=1 ./envelope_fingerprint_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flashadc/campaign.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "verdict_key.hpp"

#ifndef DOT_GOLDEN_DIR
#error "DOT_GOLDEN_DIR must point at the committed corpus directory"
#endif

namespace dot {
namespace {

const char* kFingerprintPath = DOT_GOLDEN_DIR "/envelope_fingerprint.json";
constexpr double kRelTolerance = 1e-9;

struct Dimension {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
};

struct Fingerprint {
  std::string macro;
  std::size_t kept = 0;
  std::vector<Dimension> dimensions;
};

std::vector<Fingerprint> run_fingerprints(unsigned threads) {
  util::ThreadPool::set_global_thread_count(threads);
  struct Restore {
    ~Restore() { util::ThreadPool::set_global_thread_count(0); }
  } restore;
  std::vector<Fingerprint> out;
  for (const std::string& macro : flashadc::macro_names()) {
    const auto result =
        flashadc::run_campaign(testing_support::digest_config(macro));
    const flashadc::MacroCampaignResult& m = result.macros.front();
    Fingerprint f{macro, m.envelope_samples_kept, {}};
    for (std::size_t i = 0; i < m.envelope.size(); ++i)
      f.dimensions.push_back(
          {m.envelope.name(i), m.envelope.band(i).lo, m.envelope.band(i).hi});
    out.push_back(std::move(f));
  }
  return out;
}

/// One line per macro; band edges at full double precision.
std::string render(const std::vector<Fingerprint>& fingerprints) {
  std::string text =
      "{\"schema\":\"dot-envelope-fingerprint-v1\",\"entries\":[\n";
  const char* separator = "";
  for (const Fingerprint& f : fingerprints) {
    text += separator;
    text += "{\"macro\":" + util::json_quote(f.macro) +
            ",\"kept\":" + std::to_string(f.kept) + ",\"dimensions\":[";
    for (std::size_t i = 0; i < f.dimensions.size(); ++i) {
      const Dimension& d = f.dimensions[i];
      char edges[64];
      std::snprintf(edges, sizeof edges, "%.17g,%.17g", d.lo, d.hi);
      text += (i > 0 ? ",[" : "[") + util::json_quote(d.name) + "," +
              edges + "]";
    }
    text += "]}";
    separator = ",\n";
  }
  return text + "\n]}\n";
}

std::vector<Fingerprint> parse(const std::string& text) {
  const util::JsonValue doc = util::parse_json(text);
  std::vector<Fingerprint> out;
  for (const util::JsonValue& entry : doc.get("entries").items()) {
    Fingerprint f{entry.get("macro").as_string(),
                  entry.get("kept").as_size(),
                  {}};
    for (const util::JsonValue& d : entry.get("dimensions").items())
      f.dimensions.push_back(
          {d[0].as_string(), d[1].as_number(), d[2].as_number()});
    out.push_back(std::move(f));
  }
  return out;
}

bool within_tolerance(double got, double want) {
  return std::fabs(got - want) <=
         kRelTolerance * std::max(std::fabs(got), std::fabs(want));
}

TEST(EnvelopeFingerprint, AllMacrosMatchCommittedFingerprintAtThreads1And4) {
  if (std::getenv("DOT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kFingerprintPath, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << kFingerprintPath;
    out << render(run_fingerprints(1));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << kFingerprintPath << "; review the diff";
  }
  std::ifstream in(kFingerprintPath);
  ASSERT_TRUE(in) << "missing " << kFingerprintPath
                  << " -- regenerate with DOT_REGEN_GOLDEN=1";
  std::stringstream committed;
  committed << in.rdbuf();
  const std::vector<Fingerprint> want = parse(committed.str());
  for (const unsigned threads : {1u, 4u}) {
    const std::vector<Fingerprint> got = run_fingerprints(threads);
    ASSERT_EQ(got.size(), want.size()) << threads << " threads";
    for (std::size_t m = 0; m < got.size(); ++m) {
      const Fingerprint& g = got[m];
      const Fingerprint& w = want[m];
      SCOPED_TRACE(w.macro + " at " + std::to_string(threads) + " threads");
      EXPECT_EQ(g.macro, w.macro);
      EXPECT_EQ(g.kept, w.kept);
      ASSERT_EQ(g.dimensions.size(), w.dimensions.size());
      for (std::size_t i = 0; i < g.dimensions.size(); ++i) {
        const Dimension& gd = g.dimensions[i];
        const Dimension& wd = w.dimensions[i];
        EXPECT_EQ(gd.name, wd.name);
        EXPECT_TRUE(within_tolerance(gd.lo, wd.lo))
            << wd.name << ".lo " << gd.lo << " vs " << wd.lo;
        EXPECT_TRUE(within_tolerance(gd.hi, wd.hi))
            << wd.name << ".hi " << gd.hi << " vs " << wd.hi;
      }
    }
  }
}

}  // namespace
}  // namespace dot
