#include "search/query_engine.hpp"

#include <gtest/gtest.h>

#include "theospec/fragmenter.hpp"

namespace lbe::search {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() {
    index_params_.resolution = 0.01;
    index_params_.max_fragment_mz = 3000.0;
    index_params_.fragments.max_fragment_charge = 1;
    search_params_.filter.fragment_tolerance = 0.05;
    search_params_.filter.shared_peak_min = 4;
    search_params_.score.fragments = index_params_.fragments;
    search_params_.top_k = 3;
  }

  std::unique_ptr<index::ChunkedIndex> make_index(
      const std::vector<std::string>& seqs) {
    index::PeptideStore store(&mods_);
    for (const auto& s : seqs) store.add(chem::Peptide(s), mods_);
    return std::make_unique<index::ChunkedIndex>(
        std::move(store), mods_, index_params_, index::ChunkingParams{});
  }

  chem::Spectrum theo(const std::string& seq) {
    return theospec::theoretical_spectrum(chem::Peptide(seq), mods_,
                                          index_params_.fragments);
  }

  chem::ModificationSet mods_ = chem::ModificationSet::paper_default();
  index::IndexParams index_params_;
  SearchParams search_params_;
};

const std::vector<std::string> kDatabase = {
    "PEPTIDEK", "PEPTIDER", "MKWVTFISLLK", "GGGGGGK", "WWWWHHHHK",
    "AAAAAAGK",  "CCCCCCK",  "NNNNNNK",
};

TEST_F(QueryEngineTest, TopHitIsTruePeptide) {
  const auto index = make_index(kDatabase);
  const QueryEngine engine(*index, mods_, search_params_);
  for (std::size_t truth = 0; truth < kDatabase.size(); ++truth) {
    index::QueryWork work;
    const auto result =
        engine.search(theo(kDatabase[truth]),
                      static_cast<std::uint32_t>(truth), work);
    ASSERT_FALSE(result.top.empty()) << kDatabase[truth];
    EXPECT_EQ(index->store().view(result.top[0].peptide).sequence,
              kDatabase[truth]);
    EXPECT_EQ(result.query_id, truth);
  }
}

TEST_F(QueryEngineTest, TopKLimitRespected) {
  const auto index = make_index(kDatabase);
  SearchParams params = search_params_;
  params.top_k = 2;
  params.filter.shared_peak_min = 1;
  const QueryEngine engine(*index, mods_, params);
  index::QueryWork work;
  const auto result = engine.search(theo("PEPTIDEK"), 0, work);
  EXPECT_LE(result.top.size(), 2u);
  EXPECT_GE(result.candidates, 2u);  // PEPTIDEK and PEPTIDER at least
}

TEST_F(QueryEngineTest, ResultsSortedBestFirst) {
  const auto index = make_index(kDatabase);
  SearchParams params = search_params_;
  params.filter.shared_peak_min = 1;
  const QueryEngine engine(*index, mods_, params);
  index::QueryWork work;
  const auto result = engine.search(theo("PEPTIDEK"), 0, work);
  for (std::size_t i = 1; i < result.top.size(); ++i) {
    EXPECT_TRUE(psm_better(result.top[i - 1], result.top[i]) ||
                (!psm_better(result.top[i], result.top[i - 1])));
  }
}

TEST_F(QueryEngineTest, NoCandidatesYieldsEmptyResult) {
  const auto index = make_index({"WWWWWWWWWW"});
  const QueryEngine engine(*index, mods_, search_params_);
  index::QueryWork work;
  const auto result = engine.search(theo("GGGGGGK"), 9, work);
  EXPECT_TRUE(result.top.empty());
  EXPECT_EQ(result.candidates, 0u);
  EXPECT_EQ(result.query_id, 9u);
}

TEST_F(QueryEngineTest, RescoreDepthRefinesLeadingPsms) {
  const auto index = make_index(kDatabase);
  SearchParams params = search_params_;
  params.filter.shared_peak_min = 1;
  params.top_k = 5;
  const QueryEngine engine(*index, mods_, params);
  index::QueryWork work_a;
  const auto filter_only = engine.search(theo("PEPTIDEK"), 0, work_a);

  params.rescore_depth = 3;
  const QueryEngine rescoring(*index, mods_, params);
  index::QueryWork work_b;
  const auto rescored = rescoring.search(theo("PEPTIDEK"), 0, work_b);

  // Same PSM count; the true peptide stays on top; the leading scores now
  // come from the b/y-aware hyperscore, so they differ from filter scores.
  ASSERT_EQ(filter_only.top.size(), rescored.top.size());
  EXPECT_EQ(index->store().view(rescored.top[0].peptide).sequence,
            "PEPTIDEK");
  EXPECT_NE(filter_only.top[0].score, rescored.top[0].score);
}

TEST_F(QueryEngineTest, SearchAllMatchesIndividualSearches) {
  const auto index = make_index(kDatabase);
  const QueryEngine engine(*index, mods_, search_params_);
  std::vector<chem::Spectrum> queries;
  for (const auto& seq : kDatabase) queries.push_back(theo(seq));

  index::QueryWork work_batch;
  index::QueryArena arena;
  const auto batch = engine.search_all(queries, work_batch, {&arena, 1});

  index::QueryWork work_single;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto single = engine.search(
        queries[i], static_cast<std::uint32_t>(i), work_single);
    ASSERT_EQ(batch[i].top.size(), single.top.size());
    for (std::size_t k = 0; k < single.top.size(); ++k) {
      EXPECT_EQ(batch[i].top[k].peptide, single.top[k].peptide);
      EXPECT_EQ(batch[i].top[k].shared_peaks, single.top[k].shared_peaks);
    }
  }
  EXPECT_EQ(work_batch.postings_touched, work_single.postings_touched);
}

TEST_F(QueryEngineTest, SearchAllWithThreadPoolSameResults) {
  const auto index = make_index(kDatabase);
  const QueryEngine engine(*index, mods_, search_params_);
  std::vector<chem::Spectrum> queries;
  for (const auto& seq : kDatabase) queries.push_back(theo(seq));

  index::QueryWork work_serial;
  index::QueryArena arena;
  const auto serial = engine.search_all(queries, work_serial, {&arena, 1});
  ThreadPool pool(3);
  std::vector<index::QueryArena> worker_arenas(pool.size());
  index::QueryWork work_pooled;
  const auto pooled =
      engine.search_all(queries, work_pooled, worker_arenas, &pool);

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].top.size(), pooled[i].top.size());
    for (std::size_t k = 0; k < serial[i].top.size(); ++k) {
      EXPECT_EQ(serial[i].top[k].peptide, pooled[i].top[k].peptide);
    }
  }
  EXPECT_EQ(work_serial.postings_touched, work_pooled.postings_touched);
}

TEST_F(QueryEngineTest, PsmOrderingIsTotal) {
  const Psm a{1, 5, 10.0f};
  const Psm b{2, 5, 10.0f};
  const Psm c{1, 7, 10.0f};
  const Psm d{1, 5, 11.0f};
  EXPECT_TRUE(psm_better(a, b));   // id tie-break
  EXPECT_FALSE(psm_better(b, a));
  EXPECT_TRUE(psm_better(c, a));   // shared peaks
  EXPECT_TRUE(psm_better(d, a));   // score dominates
  EXPECT_FALSE(psm_better(a, a));  // irreflexive
}

TEST_F(QueryEngineTest, TopKZeroRejected) {
  const auto index = make_index(kDatabase);
  SearchParams params = search_params_;
  params.top_k = 0;
  EXPECT_THROW(QueryEngine(*index, mods_, params), InvariantError);
}

TEST_F(QueryEngineTest, ModifiedVariantFoundWhenIndexed) {
  index::PeptideStore store(&mods_);
  store.add(chem::Peptide("MPEPTIDEK"), mods_);
  const chem::Peptide oxidized("MPEPTIDEK", {{0, 2}}, mods_);
  store.add(oxidized, mods_);
  const index::ChunkedIndex index(std::move(store), mods_, index_params_,
                                  index::ChunkingParams{});
  const QueryEngine engine(index, mods_, search_params_);
  index::QueryWork work;
  const auto result = engine.search(
      theospec::theoretical_spectrum(oxidized, mods_,
                                     index_params_.fragments),
      0, work);
  ASSERT_FALSE(result.top.empty());
  EXPECT_EQ(result.top[0].peptide, 1u);  // the modified entry wins
}

}  // namespace
}  // namespace lbe::search
