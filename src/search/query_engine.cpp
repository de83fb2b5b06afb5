#include "search/query_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/error.hpp"

namespace lbe::search {

double filter_score(std::uint32_t shared_peaks, double matched_intensity) {
  // Delegates to the index-layer definition so block-max pruning bounds
  // the exact arithmetic the engine ranks with.
  return index::candidate_filter_score(shared_peaks, matched_intensity);
}

bool psm_better(const Psm& a, const Psm& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.shared_peaks != b.shared_peaks) return a.shared_peaks > b.shared_peaks;
  return a.peptide < b.peptide;
}

QueryEngine::QueryEngine(const index::ChunkedIndex& index,
                         const chem::ModificationSet& mods,
                         const SearchParams& params)
    : index_(&index), mods_(&mods), params_(params) {
  LBE_CHECK(params_.top_k >= 1, "top_k must be >= 1");
  // Arm the score-threshold half of block-max pruning with the report
  // depth: final PSMs are always the top_k best by *filter* score (the
  // optional rescoring pass only reorders within that set), so a block
  // whose score bound stays below the K-th final candidate cannot change
  // psms.tsv.
  params_.filter.prune_top_k = params_.filter.prune_blocks ? params_.top_k : 0;
}

QueryResult QueryEngine::search(const chem::Spectrum& raw,
                                std::uint32_t query_id,
                                index::QueryWork& work,
                                index::QueryArena& arena) const {
  const chem::Spectrum query = preprocess(raw, params_.preprocess);
  return search_preprocessed(query, query_id, work, arena);
}

QueryResult QueryEngine::search(const chem::Spectrum& raw,
                                std::uint32_t query_id,
                                index::QueryWork& work) const {
  return search(raw, query_id, work, internal_arena_);
}

QueryResult QueryEngine::search_preprocessed(const chem::Spectrum& query,
                                             std::uint32_t query_id,
                                             index::QueryWork& work,
                                             index::QueryArena& arena) const {
  QueryResult result;
  result.query_id = query_id;

  std::vector<index::Candidate>& candidates = arena.candidates;
  candidates.clear();
  index_->query(query, params_.filter, candidates, work, arena);
  result.candidates = candidates.size();
  work.candidates_scored += candidates.size();
  if (candidates.empty()) return result;

  // O(1)-per-candidate filter score; selection is the only O(n log k) step.
  const std::size_t keep =
      std::min<std::size_t>(params_.top_k, candidates.size());
  std::partial_sort(
      candidates.begin(),
      candidates.begin() + static_cast<std::ptrdiff_t>(keep),
      candidates.end(),
      [](const index::Candidate& a, const index::Candidate& b) {
        const double sa = filter_score(a.shared_peaks,
                                       static_cast<double>(a.matched_intensity));
        const double sb = filter_score(b.shared_peaks,
                                       static_cast<double>(b.matched_intensity));
        if (sa != sb) return sa > sb;
        if (a.shared_peaks != b.shared_peaks) {
          return a.shared_peaks > b.shared_peaks;
        }
        return a.peptide < b.peptide;
      });

  result.top.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const auto& candidate = candidates[i];
    result.top.push_back(Psm{
        candidate.peptide, candidate.shared_peaks,
        static_cast<float>(filter_score(
            candidate.shared_peaks,
            static_cast<double>(candidate.matched_intensity)))});
  }

  // Optional full b/y-aware rescoring of the leading candidates. Only
  // meaningful on a complete (shared-memory) index: rank-local rescoring
  // would break cross-partition score comparability.
  if (params_.rescore_depth > 0) {
    const std::size_t depth =
        std::min<std::size_t>(params_.rescore_depth, result.top.size());
    for (std::size_t i = 0; i < depth; ++i) {
      const chem::Peptide peptide =
          index_->store().materialize(result.top[i].peptide);
      const ScoreBreakdown breakdown =
          score_candidate(query, peptide, *mods_, params_.score);
      result.top[i].score = static_cast<float>(breakdown.hyperscore);
    }
    std::sort(result.top.begin(), result.top.end(), psm_better);
  }
  return result;
}

namespace {

/// Whether a range fans out over the pool or runs on the calling thread.
bool fans_out(const ThreadPool* pool, std::size_t lo, std::size_t hi) {
  return pool != nullptr && pool->size() > 1 && hi - lo >= 2;
}

}  // namespace

std::vector<QueryResult> QueryEngine::search_all(
    const std::vector<chem::Spectrum>& raw_queries, index::QueryWork& work,
    std::span<index::QueryArena> arenas, ThreadPool* pool) const {
  std::vector<QueryResult> results(raw_queries.size());
  run_range(raw_queries, 0, raw_queries.size(), results, work,
            fans_out(pool, 0, raw_queries.size()) ? pool : nullptr, nullptr,
            arenas);
  return results;
}

void QueryEngine::search_range(const std::vector<chem::Spectrum>& raw_queries,
                               std::size_t lo, std::size_t hi,
                               std::vector<QueryResult>& results,
                               index::QueryWork& work, ThreadPool* pool,
                               std::vector<index::QueryWork>* per_query) const {
  if (!fans_out(pool, lo, hi)) {
    run_range(raw_queries, lo, hi, results, work, nullptr, per_query,
              {&internal_arena_, 1});
    return;
  }
  std::vector<index::QueryArena> block_arenas(pool->size());
  run_range(raw_queries, lo, hi, results, work, pool, per_query,
            block_arenas);
}

void QueryEngine::run_range(const std::vector<chem::Spectrum>& raw_queries,
                            std::size_t lo, std::size_t hi,
                            std::vector<QueryResult>& results,
                            index::QueryWork& work, ThreadPool* pool,
                            std::vector<index::QueryWork>* per_query,
                            std::span<index::QueryArena> arenas) const {
  LBE_CHECK(lo <= hi && hi <= raw_queries.size(), "bad query range");
  LBE_CHECK(results.size() >= hi, "result buffer too small for range");
  LBE_CHECK(per_query == nullptr || per_query->size() >= hi,
            "per-query work buffer too small for range");
  LBE_CHECK(arenas.size() >= (pool == nullptr ? 1 : pool->size()),
            "one arena per pool worker needed");
  if (pool == nullptr) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (per_query == nullptr) {
        results[i] = search(raw_queries[i], static_cast<std::uint32_t>(i),
                            work, arenas[0]);
        continue;
      }
      (*per_query)[i] = index::QueryWork{};
      results[i] = search(raw_queries[i], static_cast<std::uint32_t>(i),
                          (*per_query)[i], arenas[0]);
      work += (*per_query)[i];
    }
    return;
  }

  // Hybrid mode: split the range over the pool. Every block runs the whole
  // per-query pipeline — preprocessing, filtration, scoring — against its
  // private arena; the shared index is read-only, so no lock is needed.
  // Work counters are per-block (or per-query) and merged at the end so
  // totals stay exact.
  std::vector<index::QueryWork> block_work(pool->size());
  std::atomic<std::size_t> block_counter{0};
  pool->parallel_for(lo, hi, [&](std::size_t block_lo, std::size_t block_hi) {
    const std::size_t block = block_counter.fetch_add(1);
    for (std::size_t i = block_lo; i < block_hi; ++i) {
      if (per_query != nullptr) {
        (*per_query)[i] = index::QueryWork{};
        results[i] = search(raw_queries[i], static_cast<std::uint32_t>(i),
                            (*per_query)[i], arenas[block]);
        block_work[block] += (*per_query)[i];
      } else {
        results[i] = search(raw_queries[i], static_cast<std::uint32_t>(i),
                            block_work[block], arenas[block]);
      }
    }
  });
  for (const auto& bw : block_work) work += bw;
}

}  // namespace lbe::search
