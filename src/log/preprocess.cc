#include "log/preprocess.h"

#include <string>

namespace privsan {

bool IsUniquePair(const SearchLog& log, PairId p) {
  // With per-user aggregation, c_ijk == c_ij for some k iff a single user
  // holds the pair.
  return log.PairUserCount(p) <= 1;
}

PreprocessResult RemoveUniquePairs(const SearchLog& log) {
  PreprocessResult result;
  SearchLogBuilder builder;
  std::vector<bool> user_retained(log.num_users(), false);
  for (PairId p = 0; p < log.num_pairs(); ++p) {
    if (IsUniquePair(log, p)) {
      ++result.stats.pairs_removed;
      result.stats.clicks_removed += log.pair_total(p);
      continue;
    }
    ++result.stats.pairs_retained;
    result.stats.clicks_retained += log.pair_total(p);
    const std::string& query = log.query_name(log.pair_query(p));
    const std::string& url = log.url_name(log.pair_url(p));
    for (const UserCount& cell : log.TripletsOf(p)) {
      builder.Add(log.user_name(cell.user), query, url, cell.count);
      user_retained[cell.user] = true;
    }
  }
  for (bool kept : user_retained) {
    if (!kept) ++result.stats.users_dropped;
  }
  result.log = builder.Build();
  return result;
}

}  // namespace privsan
