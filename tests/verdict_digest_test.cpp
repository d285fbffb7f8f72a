// Exact per-class verdict digest of all seven macro campaigns: every
// evaluated (class, pass) pair of comparator, ladder, biasgen,
// clockgen, decoder, bank-8 and chip-8 at smoke scale and a pinned
// seed, with its status, attempts, voltage signature, current flags and
// detection bits. The committed digest (golden/verdict_digest.json)
// must match byte for byte at 1 and 4 threads, so any refactor of the
// campaign pipeline that changes a single verdict fails here.
//
// Regenerate (and review the diff) with
//   DOT_REGEN_GOLDEN=1 ./verdict_digest_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "flashadc/campaign.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "verdict_key.hpp"

#ifndef DOT_GOLDEN_DIR
#error "DOT_GOLDEN_DIR must point at the committed corpus directory"
#endif

namespace dot {
namespace {

const char* kDigestPath = DOT_GOLDEN_DIR "/verdict_digest.json";

/// The digest on a pool of `threads`: a header line pinning the
/// configuration, then one line per evaluated (class, pass) pair, macro
/// by macro, in outcome order (catastrophic, then non-catastrophic).
std::string render_digest(unsigned threads) {
  util::ThreadPool::set_global_thread_count(threads);
  struct Restore {
    ~Restore() { util::ThreadPool::set_global_thread_count(0); }
  } restore;
  const auto pinned = testing_support::digest_config("comparator");
  util::JsonWriter header;
  header.begin_object();
  header.key("schema");
  header.value("dot-verdict-digest-v1");
  header.key("defects");
  header.value(pinned.defect_count);
  header.key("envelope_samples");
  header.value(pinned.envelope_samples);
  header.key("max_classes");
  header.value(pinned.max_classes);
  header.key("seed");
  header.value(static_cast<std::size_t>(pinned.seed));
  header.key("bank_size");
  header.value(pinned.bank_size);
  header.key("chip_slices");
  header.value(pinned.chip_slices);
  header.key("entries");
  std::string text = header.str() + "[\n";
  const char* separator = "";
  for (const char* macro : {"comparator", "ladder", "biasgen", "clockgen",
                            "decoder", "bank", "chip"}) {
    const auto result =
        flashadc::run_campaign(testing_support::digest_config(macro)).macros;
    for (const auto* outcomes :
         {&result.front().catastrophic, &result.front().noncatastrophic})
      for (const auto& o : *outcomes) {
        util::JsonWriter w;
        w.begin_object();
        w.key("macro");
        w.value(macro);
        w.key("class");
        w.value(testing_support::class_key(o));
        w.key("verdict");
        w.value(testing_support::verdict_of(o));
        w.end_object();
        text += separator + w.str();
        separator = ",\n";
      }
  }
  return text + "\n]}\n";
}

TEST(VerdictDigest, AllMacrosMatchCommittedDigestAtThreads1And4) {
  if (std::getenv("DOT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kDigestPath, std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << kDigestPath;
    out << render_digest(1);
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "regenerated " << kDigestPath << "; review the diff";
  }
  std::ifstream in(kDigestPath);
  ASSERT_TRUE(in) << "missing " << kDigestPath
                  << " -- regenerate with DOT_REGEN_GOLDEN=1";
  std::stringstream committed;
  committed << in.rdbuf();
  for (const unsigned threads : {1u, 4u})
    EXPECT_EQ(render_digest(threads), committed.str())
        << threads << " threads";
}

}  // namespace
}  // namespace dot
