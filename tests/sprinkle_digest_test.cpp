// Exact digest of the defect sprinkle (sprinkle -> extract -> collapse)
// on the comparator, ladder, biasgen, clockgen, decoder and bank-8
// layouts at a pinned seed, plus two comparator arms that exercise the
// clustering and log-uniform (size_exponent = 1) branches the default
// statistics never reach, and a biasgen arm at 1.1M defects: 135 blocks
// of 8,192 merged in three waves (64 + 64 + 7), the last block partial. Each entry pins the campaign counters, the
// per-kind and per-type arrays, an FNV-1a hash over every collapsed
// class (key and count, in result order) and the first 20 classes in
// clear. The committed digest (golden/sprinkle_digest.json) must match
// byte for byte at 1 and 4 threads, so any change to the sampler, the
// analyzer or the block merge that moves a single defect fails here.
//
// Regenerate (and review the diff) with
//   DOT_REGEN_GOLDEN=1 ./sprinkle_digest_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "defect/simulate.hpp"
#include "flashadc/bank.hpp"
#include "flashadc/biasgen.hpp"
#include "flashadc/clockgen.hpp"
#include "flashadc/comparator.hpp"
#include "flashadc/decoder.hpp"
#include "flashadc/ladder.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

#ifndef DOT_GOLDEN_DIR
#error "DOT_GOLDEN_DIR must point at the committed corpus directory"
#endif

namespace dot {
namespace {

const char* kDigestPath = DOT_GOLDEN_DIR "/sprinkle_digest.json";
constexpr std::size_t kDefects = 200000;
constexpr std::uint64_t kSeed = 1995;
constexpr std::size_t kClearClasses = 20;

/// One sprinkle: a macro layout with the supply net and sprinkle seed
/// offset of its row in the campaign's macro table.
struct Arm {
  const char* name;
  std::function<macro::MacroCell()> build;
  const char* supply_net;
  std::uint64_t sprinkle_offset;
  defect::DefectStatistics statistics;
  std::size_t defects = kDefects;
};

std::vector<Arm> arms() {
  flashadc::BankOptions bank;
  bank.size = 8;
  defect::DefectStatistics clustered;
  clustered.clustering.cluster_fraction = 0.05;
  defect::DefectStatistics log_uniform;
  log_uniform.size_exponent = 1.0;
  auto comparator = [] { return flashadc::build_comparator_macro(); };
  return {
      {"comparator", comparator, "vdda", 1, {}},
      {"ladder", flashadc::build_ladder_macro, "vdda", 2, {}},
      {"biasgen", flashadc::build_biasgen_macro, "vdda", 3, {}},
      {"clockgen", flashadc::build_clockgen_macro, "vddd", 4, {}},
      {"decoder", flashadc::build_decoder_macro, "vddd", 5, {}},
      {"bank", [bank] { return flashadc::build_bank_macro(bank); }, "vdda", 6,
       {}},
      {"comparator/clustered", comparator, "vdda", 1, clustered},
      {"comparator/size_exponent_1", comparator, "vdda", 1, log_uniform},
      {"biasgen/multi_wave", flashadc::build_biasgen_macro, "vdda", 3, {},
       1100000},
  };
}

/// 64-bit FNV-1a over every class key (NUL-terminated) and count.
std::string class_hash(const defect::CampaignResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto add_byte = [&](unsigned char byte) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  };
  for (const auto& cls : result.classes) {
    for (const char c : cls.representative.key())
      add_byte(static_cast<unsigned char>(c));
    add_byte(0);
    for (int i = 0; i < 8; ++i)
      add_byte(static_cast<unsigned char>(cls.count >> (8 * i)));
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

template <typename Array>
void write_array(util::JsonWriter& w, const char* name, const Array& values) {
  w.key(name);
  w.begin_array();
  for (const std::size_t v : values) w.value(v);
  w.end_array();
}

std::string render_entry(const Arm& arm, const defect::CampaignResult& r) {
  util::JsonWriter w;
  w.begin_object();
  w.key("arm");
  w.value(arm.name);
  w.key("defects_sprinkled");
  w.value(r.defects_sprinkled);
  w.key("faults_extracted");
  w.value(r.faults_extracted);
  write_array(w, "faults_by_kind", r.faults_by_kind);
  write_array(w, "classes_by_kind", r.classes_by_kind);
  write_array(w, "defects_by_type", r.defects_by_type);
  write_array(w, "faulting_by_type", r.faulting_by_type);
  w.key("classes");
  w.value(r.classes.size());
  w.key("class_hash");
  w.value(class_hash(r));
  w.key("first_classes");
  w.begin_array();
  for (std::size_t c = 0; c < r.classes.size() && c < kClearClasses; ++c) {
    w.begin_array();
    w.value(r.classes[c].representative.key());
    w.value(r.classes[c].count);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

/// The digest on a pool of `threads`: a header pinning the sprinkle,
/// then one line per arm.
std::string render_digest(unsigned threads) {
  util::ThreadPool::set_global_thread_count(threads);
  struct Restore {
    ~Restore() { util::ThreadPool::set_global_thread_count(0); }
  } restore;
  util::JsonWriter header;
  header.begin_object();
  header.key("schema");
  header.value("dot-sprinkle-digest-v1");
  header.key("defects");
  header.value(kDefects);
  header.key("seed");
  header.value(static_cast<std::size_t>(kSeed));
  header.key("entries");
  std::string text = header.str() + "[\n";
  const char* separator = "";
  for (const Arm& arm : arms()) {
    const macro::MacroCell cell = arm.build();
    defect::CampaignOptions options;
    options.statistics = arm.statistics;
    options.defect_count = arm.defects;
    options.seed = kSeed + arm.sprinkle_offset;
    options.vdd_net = arm.supply_net;
    text += separator +
            render_entry(arm, defect::run_campaign(cell.layout, options));
    separator = ",\n";
  }
  return text + "\n]}\n";
}

TEST(SprinkleDigest, AllMacrosMatchCommittedDigestAtThreads1And4) {
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
