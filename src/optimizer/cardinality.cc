#include "optimizer/cardinality.h"

#include <algorithm>

namespace wdsparql {

namespace {

// One pass over a run sorted on (first, second, ...): emits the count
// per distinct `first` value and per distinct (first, second) prefix.
// `first`/`second` are the triple positions the run sorts on.
void Aggregate(const EncTriple* run, std::size_t count, int first, int second,
               std::vector<ValueCount>* singles, std::vector<PairCount>* pairs) {
  singles->clear();
  pairs->clear();
  for (std::size_t i = 0; i < count; ++i) {
    const DataId a = run[i][first];
    const DataId b = run[i][second];
    if (singles->empty() || singles->back().id != a) {
      singles->push_back(ValueCount{a, 0, 0});
    }
    ++singles->back().count;
    if (pairs->empty() || pairs->back().a != a || pairs->back().b != b) {
      pairs->push_back(PairCount{a, b, 0});
    }
    ++pairs->back().count;
  }
}

}  // namespace

std::shared_ptr<const CardinalityStats> CardinalityStats::Build(
    const EncTriple* spo, const EncTriple* pos, const EncTriple* osp,
    std::size_t count) {
  auto stats = std::shared_ptr<CardinalityStats>(new CardinalityStats());
  stats->total_ = count;
  std::vector<ValueCount> singles;
  std::vector<PairCount> pairs;
  Aggregate(spo, count, 0, 1, &singles, &pairs);
  stats->single_[0].Assign(std::move(singles));
  stats->pair_[0].Assign(std::move(pairs));
  Aggregate(pos, count, 1, 2, &singles, &pairs);
  stats->single_[1].Assign(std::move(singles));
  stats->pair_[1].Assign(std::move(pairs));
  Aggregate(osp, count, 2, 0, &singles, &pairs);
  stats->single_[2].Assign(std::move(singles));
  stats->pair_[2].Assign(std::move(pairs));
  return stats;
}

std::shared_ptr<const CardinalityStats> CardinalityStats::Borrow(
    const ValueCount* s, std::size_t s_n, const ValueCount* p, std::size_t p_n,
    const ValueCount* o, std::size_t o_n, const PairCount* sp, std::size_t sp_n,
    const PairCount* po, std::size_t po_n, const PairCount* os, std::size_t os_n,
    uint64_t total, std::shared_ptr<const void> keepalive) {
  auto stats = std::shared_ptr<CardinalityStats>(new CardinalityStats());
  stats->total_ = total;
  stats->single_[0].Borrow(s, s_n);
  stats->single_[1].Borrow(p, p_n);
  stats->single_[2].Borrow(o, o_n);
  stats->pair_[0].Borrow(sp, sp_n);
  stats->pair_[1].Borrow(po, po_n);
  stats->pair_[2].Borrow(os, os_n);
  stats->keepalive_ = std::move(keepalive);
  return stats;
}

uint64_t CardinalityStats::Count1(int pos, DataId id) const {
  const Array<ValueCount>& arr = single_[pos];
  const ValueCount* end = arr.data + arr.size;
  const ValueCount* it = std::lower_bound(
      arr.data, end, id,
      [](const ValueCount& entry, DataId key) { return entry.id < key; });
  if (it == end || it->id != id) return 0;
  return it->count;
}

void CardinalityStats::ComputeMoments() const {
  const Array<ValueCount>& preds = single_[1];
  const ValueCount* preds_end = preds.data + preds.size;
  moments_.assign(preds.size, DegreeMoments{});
  auto slot = [&](DataId p) -> DegreeMoments* {
    const ValueCount* it = std::lower_bound(
        preds.data, preds_end, p,
        [](const ValueCount& entry, DataId key) { return entry.id < key; });
    return it != preds_end && it->id == p ? &moments_[it - preds.data] : nullptr;
  };
  // SP entries are keyed (s, p), PO entries (p, o): each count is the
  // degree of one S (resp. O) value within its predicate.
  const Array<PairCount>& sp = pair_[static_cast<int>(PairKind::kSp)];
  for (std::size_t i = 0; i < sp.size; ++i) {
    const double d = static_cast<double>(sp.data[i].count);
    if (DegreeMoments* m = slot(sp.data[i].b)) m->s_squares += d * d;
  }
  const Array<PairCount>& po = pair_[static_cast<int>(PairKind::kPo)];
  for (std::size_t i = 0; i < po.size; ++i) {
    const double d = static_cast<double>(po.data[i].count);
    if (DegreeMoments* m = slot(po.data[i].a)) m->o_squares += d * d;
  }
}

double CardinalityStats::SizeBiasedDegree(int pos, DataId p) const {
  std::call_once(moments_once_, [this] { ComputeMoments(); });
  const Array<ValueCount>& preds = single_[1];
  const ValueCount* end = preds.data + preds.size;
  const ValueCount* it = std::lower_bound(
      preds.data, end, p,
      [](const ValueCount& entry, DataId key) { return entry.id < key; });
  if (it == end || it->id != p || it->count == 0) return 0;
  const DegreeMoments& m = moments_[it - preds.data];
  return (pos == 0 ? m.s_squares : m.o_squares) / static_cast<double>(it->count);
}

uint64_t CardinalityStats::CountPair(PairKind kind, DataId a, DataId b) const {
  const Array<PairCount>& arr = pair_[static_cast<int>(kind)];
  const PairCount* end = arr.data + arr.size;
  const PairCount* it = std::lower_bound(
      arr.data, end, std::make_pair(a, b),
      [](const PairCount& entry, const std::pair<DataId, DataId>& key) {
        return entry.a != key.first ? entry.a < key.first : entry.b < key.second;
      });
  if (it == end || it->a != a || it->b != b) return 0;
  return it->count;
}

}  // namespace wdsparql
