// The search log data model (Section 3 of the paper).
//
// A search log D is a multiset of click-through tuples
//   [user s_k, query q_i, url u_j, count c_ijk].
// privsan stores D dictionary-encoded and immutable:
//
//   * string dictionaries for users, queries, urls;
//   * a pair dictionary mapping (query, url) to a dense PairId — the paper's
//     "distinct click-through query-url pair" (q_i, u_j);
//   * a CSR layout per pair over (user, count) — the query-url-user
//     ("triplet") histogram {c_ijk};
//   * a CSR layout per user over (pair, count) — the user log A_k;
//   * per-pair totals {c_ij} — the query-url histogram.
//
// Terminology mapping to the paper:
//   total_clicks()            |D| = sum of all c_ijk  (support denominators)
//   num_tuples()              number of distinct (s_k, q_i, u_j) triplets
//   pair_total(p)             c_ij
//   TripletsOf(p)             {(s_k, c_ijk)} for pair p
//   UserLogOf(u)              A_k = {(pair, c_ijk)} for user u
#ifndef PRIVSAN_LOG_SEARCH_LOG_H_
#define PRIVSAN_LOG_SEARCH_LOG_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/result.h"

namespace privsan {

using UserId = uint32_t;
using QueryId = uint32_t;
using UrlId = uint32_t;
using PairId = uint32_t;

// One (user, count) cell of a pair's triplet histogram.
struct UserCount {
  UserId user;
  uint64_t count;

  bool operator==(const UserCount&) const = default;
};

// One (pair, count) cell of a user log A_k.
struct PairCount {
  PairId pair;
  uint64_t count;

  bool operator==(const PairCount&) const = default;
};

class SearchLog;

// Accumulates tuples (duplicates are summed) and finalizes into a SearchLog.
class SearchLogBuilder {
 public:
  SearchLogBuilder() = default;

  // Adds `count` clicks of (query, url) for `user`. count == 0 is ignored.
  void Add(std::string_view user, std::string_view query,
           std::string_view url, uint64_t count);

  // Adds every tuple of `log` (the append/coalesce merge primitive:
  // same-name users and pairs accumulate).
  void AddAll(const SearchLog& log);

  // Pre-intern ids without adding any clicks. Ids are assigned by first
  // appearance, so a deserializer (serve/snapshot.cc) reproduces a log's
  // exact id assignment by declaring users, then pairs, in their original
  // id order before Add-ing the tuples.
  void DeclareUser(std::string_view user);
  void DeclarePair(std::string_view query, std::string_view url);

  // Finalizes. The builder is left empty.
  SearchLog Build();

 private:
  friend class SearchLog;

  uint32_t InternUser(std::string_view name);
  uint32_t InternQuery(std::string_view name);
  uint32_t InternUrl(std::string_view name);

  std::vector<std::string> users_, queries_, urls_;
  std::unordered_map<std::string, uint32_t> user_index_, query_index_,
      url_index_;
  // (query_id << 32 | url_id) -> PairId.
  std::unordered_map<uint64_t, PairId> pair_index_;
  std::vector<std::pair<QueryId, UrlId>> pairs_;
  // (pair_id << 32 | user_id) -> accumulated count.
  std::unordered_map<uint64_t, uint64_t> cell_counts_;
};

class SearchLog {
 public:
  SearchLog() = default;

  SearchLog(const SearchLog&) = default;
  SearchLog& operator=(const SearchLog&) = default;
  SearchLog(SearchLog&&) noexcept = default;
  SearchLog& operator=(SearchLog&&) noexcept = default;

  // --- Sizes -------------------------------------------------------------
  size_t num_users() const { return user_names_.size(); }
  size_t num_queries() const { return query_names_.size(); }
  size_t num_urls() const { return url_names_.size(); }
  size_t num_pairs() const { return pair_totals_.size(); }
  // Distinct (user, pair) triplets with positive count.
  size_t num_tuples() const { return triplet_users_.size(); }
  // |D|: total click count, the paper's size of the search log.
  uint64_t total_clicks() const { return total_clicks_; }

  // --- Histograms ---------------------------------------------------------
  // c_ij for pair p.
  uint64_t pair_total(PairId p) const { return pair_totals_[p]; }
  // The triplet histogram restricted to pair p: all (s_k, c_ijk), sorted by
  // user id.
  std::span<const UserCount> TripletsOf(PairId p) const;
  // User u's log A_k: all (pair, c_ijk), sorted by pair id.
  std::span<const PairCount> UserLogOf(UserId u) const;
  // Count of clicks user u has on pair p (0 if none).
  uint64_t TripletCount(PairId p, UserId u) const;
  // Number of distinct users holding pair p.
  size_t PairUserCount(PairId p) const { return TripletsOf(p).size(); }

  // --- Dictionaries --------------------------------------------------------
  const std::string& user_name(UserId u) const { return user_names_[u]; }
  const std::string& query_name(QueryId q) const { return query_names_[q]; }
  const std::string& url_name(UrlId u) const { return url_names_[u]; }
  QueryId pair_query(PairId p) const { return pair_defs_[p].first; }
  UrlId pair_url(PairId p) const { return pair_defs_[p].second; }

  // Lookup helpers; return Status::NotFound if absent.
  Result<UserId> FindUser(std::string_view name) const;
  Result<PairId> FindPair(std::string_view query, std::string_view url) const;

  // The pair's support c_ij / |D| (Section 5.2).
  double PairSupport(PairId p) const;

  // Canonical composite name key of pair p, collision-free for arbitrary
  // byte content (the query is length-prefixed, so no separator byte can be
  // forged by a crafted name). Basis remapping matches pairs across logs
  // by this key.
  std::string PairNameKey(PairId p) const;

  // Estimated heap footprint of this log (dictionaries + CSR layouts), the
  // per-tenant accounting unit of the serve layer's global memory budget.
  // An O(names) walk — callers cache it per state change, not per query.
  size_t ResidentBytes() const;

 private:
  friend class SearchLogBuilder;

  std::vector<std::string> user_names_, query_names_, url_names_;
  std::vector<std::pair<QueryId, UrlId>> pair_defs_;

  std::vector<uint64_t> pair_totals_;  // c_ij

  // CSR over pairs: triplet histogram.
  std::vector<size_t> pair_offsets_;       // size num_pairs()+1
  std::vector<UserCount> triplet_users_;   // sorted by user within each pair

  // CSR over users: user logs.
  std::vector<size_t> user_offsets_;      // size num_users()+1
  std::vector<PairCount> user_pairs_;     // sorted by pair within each user

  uint64_t total_clicks_ = 0;
};

// Users [begin, end) of `log`, as a standalone SearchLog — the split /
// append primitive shared by the serve benches, tests and examples.
SearchLog UserSlice(const SearchLog& log, UserId begin, UserId end);

}  // namespace privsan

#endif  // PRIVSAN_LOG_SEARCH_LOG_H_
