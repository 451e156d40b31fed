#include "cts/partner_index.h"

#include <cassert>
#include <cmath>

namespace gcr::cts {

void PartnerIndex::init(Metric metric, const tech::TechParams* tech,
                        int capacity, int expected, double xlo, double ylo,
                        double w, double h) {
  assert(metric == Metric::Distance || tech != nullptr);
  metric_ = metric;
  tech_ = tech;
  rc_ = tech != nullptr ? tech->unit_res * tech->unit_cap : 0.0;
  xlo_ = xlo;
  ylo_ = ylo;
  w_ = std::max(w, 1e-12);
  h_ = std::max(h, 1e-12);
  // Occupancy target: ~2 items per bucket at the expected population.
  dim_ = std::max(1, static_cast<int>(std::floor(std::sqrt(expected / 2.0))));
  size_ = 0;
  last_rebuild_size_ = expected;
  rebuilds_ = 0;
  items_.assign(static_cast<std::size_t>(capacity), {});
  cell_of_.assign(static_cast<std::size_t>(capacity), -1);
  self_order_.clear();
  build_levels();
}

void PartnerIndex::build_levels() {
  bucket_ids_.assign(static_cast<std::size_t>(dim_) * dim_, {});
  levels_.clear();
  level_dim_.clear();
  for (int d = dim_;; d = (d + 1) / 2) {
    const auto blocks = static_cast<std::size_t>((d + 1) / 2);
    levels_.emplace_back(blocks * blocks * 4);
    level_dim_.push_back(d);
    if (d == 1) break;
  }
}

int PartnerIndex::cell_index(const geom::Point& c) const {
  const int cx = std::clamp(
      static_cast<int>((c.x - xlo_) * dim_ / w_), 0, dim_ - 1);
  const int cy = std::clamp(
      static_cast<int>((c.y - ylo_) * dim_ / h_), 0, dim_ - 1);
  return cy * dim_ + cx;
}

void PartnerIndex::bucket_insert(int id, const Item& item) {
  const int cell = cell_index(item.center);
  bucket_ids_[static_cast<std::size_t>(cell)].push_back(id);
  cell_of_[static_cast<std::size_t>(id)] = cell;
  // Tighten the aggregates along the leaf-to-root path.
  int x = cell % dim_;
  int y = cell / dim_;
  for (int k = 0; k < num_levels(); ++k) {
    node_at(k, x, y).absorb(item);
    x /= 2;
    y /= 2;
  }
}

void PartnerIndex::insert(int id, const Item& item) {
  assert(cell_of_[static_cast<std::size_t>(id)] < 0);
  items_[static_cast<std::size_t>(id)] = item;
  bucket_insert(id, item);
  if (metric_ == Metric::SwitchedCap)
    self_order_.emplace(item.self_cost, id);
  ++size_;
}

void PartnerIndex::remove(int id) {
  const int cell = cell_of_[static_cast<std::size_t>(id)];
  assert(cell >= 0);
  auto& ids = bucket_ids_[static_cast<std::size_t>(cell)];
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] == id) {
      ids[k] = ids.back();
      ids.pop_back();
      break;
    }
  }
  cell_of_[static_cast<std::size_t>(id)] = -1;
  if (metric_ == Metric::SwitchedCap)
    self_order_.erase({items_[static_cast<std::size_t>(id)].self_cost, id});
  --size_;
  refresh_path(cell);
}

void PartnerIndex::refresh_path(int cell) {
  int x = cell % dim_;
  int y = cell / dim_;
  Node leaf;
  for (const int j : bucket_ids_[static_cast<std::size_t>(cell)])
    leaf.absorb(items_[static_cast<std::size_t>(j)]);
  node_at(0, x, y) = leaf;
  for (int k = 1; k < num_levels(); ++k) {
    x /= 2;
    y /= 2;
    const Node* kids = &node(k - 1, 2 * x, 2 * y);  // one block, padded
    Node agg;
    for (int c = 0; c < 4; ++c) agg.merge(kids[c]);
    node_at(k, x, y) = agg;
  }
}

bool PartnerIndex::maybe_rebuild() {
  if (size_ < 1 || 2 * size_ > last_rebuild_size_) return false;
  rebuild();
  return true;
}

void PartnerIndex::rebuild() {
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(size_));
  for (const auto& ids : bucket_ids_)
    live.insert(live.end(), ids.begin(), ids.end());
  dim_ = std::max(1, static_cast<int>(std::floor(std::sqrt(size_ / 2.0))));
  build_levels();
  for (const int id : live)
    bucket_insert(id, items_[static_cast<std::size_t>(id)]);
  last_rebuild_size_ = size_;
  ++rebuilds_;
}

}  // namespace gcr::cts
