#include "core/strategy.hpp"

#include <numeric>

namespace milc {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::LP1: return "1LP";
    case Strategy::LP2: return "2LP";
    case Strategy::LP3_1: return "3LP-1";
    case Strategy::LP3_2: return "3LP-2";
    case Strategy::LP3_3: return "3LP-3";
    case Strategy::LP4_1: return "4LP-1";
    case Strategy::LP4_2: return "4LP-2";
  }
  return "?";
}

const char* to_string(IndexOrder o) {
  switch (o) {
    case IndexOrder::kMajor: return "k-major";
    case IndexOrder::iMajor: return "i-major";
    case IndexOrder::lMajor: return "l-major";
  }
  return "?";
}

int items_per_site(Strategy s) {
  switch (s) {
    case Strategy::LP1: return 1;
    case Strategy::LP2: return 3;
    case Strategy::LP3_1:
    case Strategy::LP3_2:
    case Strategy::LP3_3: return 12;
    case Strategy::LP4_1:
    case Strategy::LP4_2: return 48;
  }
  return 1;
}

int phases_of(Strategy s) {
  switch (s) {
    case Strategy::LP1:
    case Strategy::LP2: return 1;
    case Strategy::LP3_1:
    case Strategy::LP3_2:
    case Strategy::LP3_3: return 2;
    case Strategy::LP4_1:
    case Strategy::LP4_2: return 3;
  }
  return 1;
}

std::vector<IndexOrder> orders_of(Strategy s) {
  switch (s) {
    case Strategy::LP1:
    case Strategy::LP2: return {IndexOrder::kMajor};  // single order (paper Fig. 6)
    case Strategy::LP3_1:
    case Strategy::LP3_2:
    case Strategy::LP3_3:
    case Strategy::LP4_1: return {IndexOrder::kMajor, IndexOrder::iMajor};
    case Strategy::LP4_2: return {IndexOrder::lMajor, IndexOrder::iMajor};
  }
  return {};
}

// Invariant: every work-item that touches one output location lies in one
// work-group.  For 3LP that is all 12 items of a site in k-major order and
// the 4 k-items of an (s, i) row in i-major order; 3LP-2/3LP-3 add into
// C(s, i) atomically, and the functional executor runs groups on several
// host threads with bit-identical output only because no target spans two
// groups (docs/SIMULATOR.md §1 "Functional execution across groups").
int local_size_multiple(Strategy s, IndexOrder o, int warp_size) {
  int algo = 1;
  switch (s) {
    case Strategy::LP1: algo = 1; break;
    case Strategy::LP2: algo = kNrow; break;
    case Strategy::LP3_1:
    case Strategy::LP3_2:
    case Strategy::LP3_3:
      algo = (o == IndexOrder::kMajor) ? kNrow * kNdimIdx : kNdimIdx;
      break;
    case Strategy::LP4_1:
    case Strategy::LP4_2: algo = kNrow * kNdimIdx * kNmat; break;
  }
  return std::lcm(algo, warp_size);
}

bool is_valid_local_size(Strategy s, IndexOrder o, int local_size, std::int64_t sites,
                         int warp_size) {
  if (local_size <= 0 || local_size > 1024) return false;
  if (local_size % local_size_multiple(s, o, warp_size) != 0) return false;
  const std::int64_t global = sites * items_per_site(s);
  return global % local_size == 0;
}

std::vector<int> paper_local_sizes(Strategy s, IndexOrder o, std::int64_t sites) {
  const std::vector<int> pool = (s == Strategy::LP1)
                                    ? std::vector<int>{64, 128, 256, 512}
                                    : std::vector<int>{96, 192, 384, 768};
  std::vector<int> out;
  for (int ls : pool) {
    if (is_valid_local_size(s, o, ls, sites)) out.push_back(ls);
  }
  return out;
}

std::string config_label(Strategy s, IndexOrder o, int local_size) {
  std::string label = to_string(s);
  if (orders_of(s).size() > 1) {
    label += ' ';
    label += to_string(o);
  }
  label += " /";
  label += std::to_string(local_size);
  return label;
}

bool parse_index_order(const std::string& name, IndexOrder& out) {
  for (IndexOrder o : {IndexOrder::kMajor, IndexOrder::iMajor, IndexOrder::lMajor}) {
    if (name == to_string(o)) {
      out = o;
      return true;
    }
  }
  return false;
}

const std::vector<Strategy>& all_strategies() {
  static const std::vector<Strategy> k = {Strategy::LP1,   Strategy::LP2,   Strategy::LP3_1,
                                          Strategy::LP3_2, Strategy::LP3_3, Strategy::LP4_1,
                                          Strategy::LP4_2};
  return k;
}

}  // namespace milc
