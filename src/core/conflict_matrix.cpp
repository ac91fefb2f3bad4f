#include "core/conflict_matrix.hpp"

#include <algorithm>

#include "core/interference.hpp"
#include "util/error.hpp"

namespace mrwsn::core {

ConflictMatrix::ConflictMatrix(const InterferenceModel& model,
                               std::vector<net::LinkId> universe)
    : universe_(std::move(universe)) {
  MRWSN_ASSERT(std::is_sorted(universe_.begin(), universe_.end()) &&
                   std::adjacent_find(universe_.begin(), universe_.end()) ==
                       universe_.end(),
               "conflict matrix universe must be canonical");
  const std::size_t num_rates = model.rate_table().size();
  couples_.reserve(universe_.size() * num_rates);
  couple_begin_.reserve(universe_.size() + 1);
  for (net::LinkId link : universe_) {
    MRWSN_REQUIRE(link < model.num_links(), "universe link id out of range");
    couple_begin_.push_back(couples_.size());
    for (phy::RateIndex r = 0; r < num_rates; ++r)
      if (model.usable_alone(link, r)) couples_.push_back({link, r});
  }
  couple_begin_.push_back(couples_.size());

  const std::size_t n = couples_.size();
  conflict_ = util::BitMatrix(n, n);
  compat_ = util::BitMatrix(n, n);
  // One interferes() evaluation per couple pair, ever: the result lands in
  // both the conflict rows (clique enumeration) and the complement-minus-
  // same-link compat rows (protocol-model independent sets).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (couples_[i].link == couples_[j].link) continue;
      if (model.interferes(couples_[i].link, couples_[i].rate, couples_[j].link,
                           couples_[j].rate)) {
        conflict_.set(i, j);
        conflict_.set(j, i);
      } else {
        compat_.set(i, j);
        compat_.set(j, i);
      }
    }
  }
}

ConflictMatrix::ConflictMatrix(const InterferenceModel& model,
                               const ConflictMatrix& prior,
                               const std::vector<char>& link_affected)
    : universe_(prior.universe_) {
  const std::size_t num_rates = model.rate_table().size();
  couples_.reserve(universe_.size() * num_rates);
  couple_begin_.reserve(universe_.size() + 1);
  for (net::LinkId link : universe_) {
    MRWSN_REQUIRE(link < model.num_links(), "universe link id out of range");
    couple_begin_.push_back(couples_.size());
    for (phy::RateIndex r = 0; r < num_rates; ++r)
      if (model.usable_alone(link, r)) couples_.push_back({link, r});
  }
  couple_begin_.push_back(couples_.size());

  const std::size_t n = couples_.size();
  conflict_ = util::BitMatrix(n, n);
  compat_ = util::BitMatrix(n, n);
  // An unaffected link's usable couple set is unchanged, so its couples
  // all existed in `prior`; pairs of two such couples keep their bit.
  const auto affected = [&](net::LinkId link) {
    return link < link_affected.size() && link_affected[link] != 0;
  };
  std::vector<std::size_t> old_of(n, n);  // n = "no prior couple"
  for (std::size_t i = 0; i < n; ++i) {
    if (affected(couples_[i].link)) continue;
    const auto old = prior.couple_index(couples_[i].link, couples_[i].rate);
    MRWSN_ASSERT(old.has_value(),
                 "unaffected couple missing from the prior conflict matrix");
    old_of[i] = *old;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (couples_[i].link == couples_[j].link) continue;
      const bool conflicts =
          (old_of[i] < n && old_of[j] < n)
              ? prior.conflict_.test(old_of[i], old_of[j])
              : model.interferes(couples_[i].link, couples_[i].rate,
                                 couples_[j].link, couples_[j].rate);
      if (conflicts) {
        conflict_.set(i, j);
        conflict_.set(j, i);
      } else {
        compat_.set(i, j);
        compat_.set(j, i);
      }
    }
  }
}

std::optional<std::size_t> ConflictMatrix::couple_index(
    net::LinkId link, phy::RateIndex rate) const {
  const auto it = std::lower_bound(universe_.begin(), universe_.end(), link);
  if (it == universe_.end() || *it != link) return std::nullopt;
  const auto pos = static_cast<std::size_t>(it - universe_.begin());
  for (std::size_t c = couple_begin_[pos]; c < couple_begin_[pos + 1]; ++c)
    if (couples_[c].rate == rate) return c;
  return std::nullopt;
}

std::shared_ptr<const ConflictMatrix> ConflictCache::get(
    const InterferenceModel& model, std::vector<net::LinkId> universe) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_)
    if (entry->universe() == universe) return entry;
  entries_.push_back(
      std::make_shared<const ConflictMatrix>(model, std::move(universe)));
  return entries_.back();
}

void ConflictCache::patch(const InterferenceModel& model,
                          const std::vector<char>& link_affected) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : entries_) {
    const bool touched = std::any_of(
        entry->universe().begin(), entry->universe().end(),
        [&](net::LinkId link) {
          return link < link_affected.size() && link_affected[link] != 0;
        });
    if (!touched) continue;
    entry = std::make_shared<const ConflictMatrix>(model, *entry, link_affected);
  }
}

void ConflictCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

bool MisCache::find(std::span<const net::LinkId> canonical,
                    std::vector<IndependentSet>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [universe, sets] : entries_) {
    if (universe.size() == canonical.size() &&
        std::equal(universe.begin(), universe.end(), canonical.begin())) {
      *out = sets;
      return true;
    }
  }
  return false;
}

void MisCache::insert(std::vector<net::LinkId> canonical,
                      std::vector<IndependentSet> sets) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [universe, existing] : entries_)
    if (universe == canonical) return;  // racing insert; first one wins
  entries_.emplace_back(std::move(canonical), std::move(sets));
}

void MisCache::invalidate(const std::vector<char>& link_affected) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(entries_, [&](const auto& entry) {
    return std::any_of(entry.first.begin(), entry.first.end(),
                       [&](net::LinkId link) {
                         return link < link_affected.size() &&
                                link_affected[link] != 0;
                       });
  });
}

void MisCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

}  // namespace mrwsn::core
