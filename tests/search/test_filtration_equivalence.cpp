// Equivalence of the batched bin-span filtration path against the retained
// pre-refactor reference walk (SlmIndex::query_reference), on seeded random
// workloads.
//
// Spectra here carry integer-valued intensities with normalization off, so
// every float accumulation is exact regardless of summation order — which
// makes BYTE-identical comparison meaningful: candidate multisets must
// match bit for bit, and the full QueryEngine must reproduce, PSM by PSM,
// what a reference-walk engine would report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "index/chunked_index.hpp"
#include "search/query_engine.hpp"
#include "synth/proteome.hpp"
#include "theospec/fragmenter.hpp"

namespace lbe::search {
namespace {

/// Random spectrum with integer intensities in [1, 1000] — exact in float,
/// and exact under any association of sums up to 2^24.
chem::Spectrum random_spectrum(Xoshiro256& rng, std::size_t peaks,
                               double max_mz) {
  chem::Spectrum spectrum;
  for (std::size_t i = 0; i < peaks; ++i) {
    spectrum.add_peak(rng.uniform(50.0, max_mz),
                      static_cast<float>(1 + rng.below(1000)));
  }
  spectrum.finalize();
  spectrum.precursor.neutral_mass = rng.uniform(500.0, 3000.0);
  return spectrum;
}

bool candidate_less(const index::Candidate& a, const index::Candidate& b) {
  return a.peptide < b.peptide;
}

class FiltrationEquivalence : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  FiltrationEquivalence() {
    params_.resolution = 0.01;
    params_.max_fragment_mz = 2000.0;
    params_.fragments.max_fragment_charge = 2;
    for (auto& seq : synth::random_peptides(800, GetParam(), 7, 20)) {
      store_.add(chem::Peptide(std::move(seq)), mods_);
    }
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  index::PeptideStore store_{&mods_};
  index::IndexParams params_;
};

TEST_P(FiltrationEquivalence, CandidatesByteIdenticalAcrossThresholds) {
  const index::SlmIndex index(store_, mods_, params_);
  const auto decoded = index.decoded_postings();
  Xoshiro256 rng(GetParam() * 31 + 7);
  index::QueryArena arena_a;
  index::QueryArena arena_b;

  for (const std::uint32_t threshold : {1u, 2u, 4u, 8u}) {
    index::QueryParams filter;
    filter.fragment_tolerance = 0.05;
    filter.shared_peak_min = threshold;
    for (int q = 0; q < 24; ++q) {
      // Mix dense random spectra (overlapping tolerance windows — the
      // multiplicity > 1 span path) with theoretical self-spectra.
      const chem::Spectrum query =
          q % 3 == 0 ? theospec::theoretical_spectrum(
                           store_.materialize(rng.below(store_.size())),
                           mods_, params_.fragments)
                     : random_spectrum(rng, 60 + rng.below(200), 2100.0);

      std::vector<index::Candidate> batched;
      std::vector<index::Candidate> reference;
      index::QueryWork work_a;
      index::QueryWork work_b;
      index.query(query, filter, batched, work_a, arena_a);
      index.query_reference(query, filter, decoded, reference, work_b,
                            arena_b);

      // Work accounting must agree exactly: the batched walk charges a bin
      // covered by k peaks as k visits and k x its postings.
      EXPECT_EQ(work_a.peaks_processed, work_b.peaks_processed);
      EXPECT_EQ(work_a.bins_visited, work_b.bins_visited);
      EXPECT_EQ(work_a.postings_touched, work_b.postings_touched);
      EXPECT_EQ(work_a.candidates, work_b.candidates);

      // Candidate ORDER is walk-dependent (threshold-crossing order); the
      // contents must be byte-identical after sorting by peptide id.
      ASSERT_EQ(batched.size(), reference.size());
      std::sort(batched.begin(), batched.end(), candidate_less);
      std::sort(reference.begin(), reference.end(), candidate_less);
      for (std::size_t i = 0; i < batched.size(); ++i) {
        EXPECT_EQ(batched[i].peptide, reference[i].peptide);
        EXPECT_EQ(batched[i].shared_peaks, reference[i].shared_peaks);
        // Bit equality, not approximate: integer intensities make every
        // accumulation exact in both walks.
        std::uint32_t bits_a = 0;
        std::uint32_t bits_b = 0;
        std::memcpy(&bits_a, &batched[i].matched_intensity, sizeof(bits_a));
        std::memcpy(&bits_b, &reference[i].matched_intensity,
                    sizeof(bits_b));
        EXPECT_EQ(bits_a, bits_b);
      }
    }
  }
}

TEST_P(FiltrationEquivalence, UnsortedSpectrumStillAgrees) {
  // Spectrum built without finalize(): peaks arrive in arbitrary m/z order
  // (legal per spectrum.hpp). The batched sweep must detect the unsorted
  // windows and still produce reference-identical candidates.
  const index::SlmIndex index(store_, mods_, params_);
  const auto decoded = index.decoded_postings();
  Xoshiro256 rng(GetParam() * 7 + 1);
  index::QueryArena arena;
  index::QueryParams filter;
  filter.shared_peak_min = 2;

  for (int q = 0; q < 8; ++q) {
    chem::Spectrum unsorted;
    for (int i = 0; i < 150; ++i) {
      unsorted.add_peak(rng.uniform(50.0, 2100.0),
                        static_cast<float>(1 + rng.below(1000)));
    }
    // Out-of-order peaks near m/z 0 whose windows all clamp their open to
    // bin 0 but keep distinct closes — the tie case where sorting opens
    // alone would leave the close sequence decreasing.
    unsorted.add_peak(0.05, 3.0f);
    unsorted.add_peak(0.02, 5.0f);
    unsorted.add_peak(0.04, 7.0f);
    // deliberately no finalize()
    unsorted.precursor.neutral_mass = rng.uniform(500.0, 3000.0);

    std::vector<index::Candidate> batched;
    std::vector<index::Candidate> reference;
    index::QueryWork wa;
    index::QueryWork wb;
    index.query(unsorted, filter, batched, wa, arena);
    index.query_reference(unsorted, filter, decoded, reference, wb, arena);
    EXPECT_EQ(wa.postings_touched, wb.postings_touched);
    ASSERT_EQ(batched.size(), reference.size());
    std::sort(batched.begin(), batched.end(), candidate_less);
    std::sort(reference.begin(), reference.end(), candidate_less);
    for (std::size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i].peptide, reference[i].peptide);
      EXPECT_EQ(batched[i].shared_peaks, reference[i].shared_peaks);
    }
  }
}

TEST_P(FiltrationEquivalence, NarrowPrecursorWindowAgrees) {
  const index::SlmIndex index(store_, mods_, params_);
  const auto decoded = index.decoded_postings();
  Xoshiro256 rng(GetParam() * 17 + 3);
  index::QueryArena arena;
  index::QueryParams narrow;
  narrow.shared_peak_min = 2;
  narrow.precursor_tolerance = 1.5;

  for (int q = 0; q < 16; ++q) {
    chem::Spectrum query = random_spectrum(rng, 120, 2100.0);
    query.precursor.neutral_mass =
        store_.mass(rng.below(store_.size()));
    std::vector<index::Candidate> batched;
    std::vector<index::Candidate> reference;
    index::QueryWork wa;
    index::QueryWork wb;
    index.query(query, narrow, batched, wa, arena);
    index.query_reference(query, narrow, decoded, reference, wb, arena);
    ASSERT_EQ(batched.size(), reference.size());
    std::sort(batched.begin(), batched.end(), candidate_less);
    std::sort(reference.begin(), reference.end(), candidate_less);
    for (std::size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(batched[i].peptide, reference[i].peptide);
      EXPECT_EQ(batched[i].shared_peaks, reference[i].shared_peaks);
    }
  }
}

/// Full-engine check: QueryResults from the (batched) QueryEngine must be
/// byte-identical to an engine built on the reference walk — same top-k
/// selection applied to reference candidates.
TEST_P(FiltrationEquivalence, EngineResultsByteIdenticalToReferenceEngine) {
  const index::ChunkedIndex index(std::move(store_), mods_, params_,
                                  index::ChunkingParams{});
  SearchParams search;
  search.filter.fragment_tolerance = 0.05;
  search.filter.shared_peak_min = 3;
  search.preprocess.normalize = false;  // keep intensities integer-exact
  search.top_k = 5;
  const QueryEngine engine(index, mods_, search);
  const index::SlmIndex ref_index(index.store(), mods_, params_);
  const auto ref_postings = ref_index.decoded_postings();

  Xoshiro256 rng(GetParam() * 101 + 13);
  index::QueryArena arena;
  for (int q = 0; q < 24; ++q) {
    const chem::Spectrum raw = random_spectrum(rng, 150, 2100.0);
    index::QueryWork work;
    const QueryResult result =
        engine.search(raw, static_cast<std::uint32_t>(q), work, arena);

    // Reference engine: preprocess, REFERENCE-walk filtration over the
    // same store, identical deterministic top-k ordering.
    const chem::Spectrum query = preprocess(raw, search.preprocess);
    std::vector<index::Candidate> candidates;
    index::QueryWork ref_work;
    index::QueryArena ref_arena;
    ref_index.query_reference(query, search.filter, ref_postings,
                              candidates, ref_work, ref_arena);
    // Re-rank reference candidates exactly as the engine does.
    std::sort(candidates.begin(), candidates.end(),
              [](const index::Candidate& a, const index::Candidate& b) {
                const double sa = filter_score(
                    a.shared_peaks, static_cast<double>(a.matched_intensity));
                const double sb = filter_score(
                    b.shared_peaks, static_cast<double>(b.matched_intensity));
                if (sa != sb) return sa > sb;
                if (a.shared_peaks != b.shared_peaks) {
                  return a.shared_peaks > b.shared_peaks;
                }
                return a.peptide < b.peptide;
              });

    ASSERT_EQ(result.candidates, candidates.size());
    const std::size_t keep =
        std::min<std::size_t>(search.top_k, candidates.size());
    ASSERT_EQ(result.top.size(), keep);
    for (std::size_t i = 0; i < keep; ++i) {
      EXPECT_EQ(result.top[i].peptide, candidates[i].peptide);
      EXPECT_EQ(result.top[i].shared_peaks, candidates[i].shared_peaks);
      const auto expected = static_cast<float>(filter_score(
          candidates[i].shared_peaks,
          static_cast<double>(candidates[i].matched_intensity)));
      std::uint32_t bits_a = 0;
      std::uint32_t bits_b = 0;
      std::memcpy(&bits_a, &result.top[i].score, sizeof(bits_a));
      std::memcpy(&bits_b, &expected, sizeof(bits_b));
      EXPECT_EQ(bits_a, bits_b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FiltrationEquivalence,
                         ::testing::Values(2019ull, 42ull, 777ull));

}  // namespace
}  // namespace lbe::search
