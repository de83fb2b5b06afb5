#include "serve/service.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "search/report.hpp"

namespace lbe::serve {

std::shared_ptr<ServingContext> load_serving_context(
    const app::AppOptions& opts) {
  auto context = std::make_shared<ServingContext>();
  context->opts = opts;
  // Fill in place, in dependency order: the plan and the warm bundle both
  // keep pointers into context->db (the modification set), which is stable
  // from here on because the context never relocates.
  context->db = app::build_database(opts);
  context->plan = app::build_plan(context->db, opts);
  if (opts.index_dir.empty()) {
    auto bundle = app::build_index_bundle(context->plan, context->db, opts);
    context->warm =
        std::make_unique<index::IndexBundle>(std::move(bundle));
  } else {
    context->warm = app::try_load_warm_indexes(opts.index_dir, context->plan,
                                               context->db, opts);
    if (context->warm == nullptr) {
      throw ConfigError(
          "index bundle at '" + opts.index_dir +
          "' does not match this plan/configuration; refusing to serve "
          "a cold rebuild of something else (re-run lbectl prepare)");
    }
  }
  return context;
}

std::shared_ptr<ServingContext> build_serving_context_in_memory(
    const app::AppOptions& opts) {
  app::AppOptions local = opts;
  local.index_dir.clear();
  return load_serving_context(local);
}

SearchService::SearchService(std::shared_ptr<const ServingContext> context)
    : context_(std::move(context)) {
  LBE_CHECK(context_ != nullptr, "SearchService needs a serving context");
}

std::shared_ptr<const ServingContext> SearchService::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return context_;
}

void SearchService::replace(std::shared_ptr<const ServingContext> context) {
  LBE_CHECK(context != nullptr, "hot swap needs a serving context");
  std::lock_guard<std::mutex> lock(mutex_);
  context_ = std::move(context);
  idle_arenas_.clear();
}

SearchResponse SearchService::search_batch(
    const std::vector<chem::Spectrum>& spectra, std::uint32_t start_id,
    ThreadPool* pool) const {
  std::shared_ptr<const ServingContext> context;
  std::vector<index::QueryArena> arenas;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    context = context_;
    if (!idle_arenas_.empty()) {
      arenas = std::move(idle_arenas_.back());
      idle_arenas_.pop_back();
    }
  }
  const core::LbePlan& plan = *context->plan.plan;
  const index::IndexBundle& warm = *context->warm;
  const search::SearchParams& params = context->opts.search.search;
  const std::size_t num_queries = spectra.size();

  SearchResponse response;
  response.start_id = start_id;
  response.queries = num_queries;

  // Same merge as the distributed master: every rank searches the whole
  // batch, local ids travel through the mapping table, and the per-query
  // lists sort under the strict total order global_psm_better.
  std::vector<search::GlobalQueryResult> merged(num_queries);
  arenas.resize(std::max<std::size_t>(arenas.size(),
                                      pool == nullptr ? 1 : pool->size()));
  for (int rank = 0; rank < warm.ranks(); ++rank) {
    // Engines are per-call (pointers + params); the arenas they search
    // with belong to this batch alone until it checks them back in.
    const search::QueryEngine engine(*warm.per_rank[rank], plan.mods(),
                                     params);
    index::QueryWork work;
    const std::vector<search::QueryResult> local =
        engine.search_all(spectra, work, arenas, pool);
    for (std::size_t q = 0; q < num_queries; ++q) {
      response.candidates += local[q].candidates;
      auto& slot = merged[q];
      for (const search::Psm& psm : local[q].top) {
        slot.top.push_back(search::GlobalPsm{
            plan.mapping().to_global(rank, psm.peptide), psm.shared_peaks,
            psm.score, rank});
      }
    }
  }
  const std::size_t top_k = params.top_k;
  for (std::size_t q = 0; q < num_queries; ++q) {
    auto& slot = merged[q];
    slot.query_id = start_id + static_cast<std::uint32_t>(q);
    std::sort(slot.top.begin(), slot.top.end(), search::global_psm_better);
    if (slot.top.size() > top_k) slot.top.resize(top_k);
  }

  response.rows =
      search::resolve_psms(plan, merged, context->plan.decoy_bases);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_arenas_.push_back(std::move(arenas));
  }
  return response;
}

}  // namespace lbe::serve
