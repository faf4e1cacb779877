#include "core/internal/packed_labels.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "common/check.h"

namespace clustagg::internal {

namespace {

/// -1 = no override; otherwise a PackedKernelTier value forced by
/// SetPackedKernelTierForTest. Relaxed is enough: the override is a
/// test/bench knob flipped between builds, not a synchronization point.
std::atomic<int> g_tier_override{-1};

[[maybe_unused]] bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

PackedKernelTier DefaultTier() {
  return Avx2KernelAvailable() ? PackedKernelTier::kAvx2
                               : PackedKernelTier::kSwar;
}

PackedKernelTier TierFromEnvironment() {
  const char* env = std::getenv("CLUSTAGG_KERNEL");
  if (env == nullptr || env[0] == '\0') return DefaultTier();
  if (std::strcmp(env, "portable") == 0) return PackedKernelTier::kPortable;
  if (std::strcmp(env, "swar") == 0) return PackedKernelTier::kSwar;
  if (std::strcmp(env, "avx2") == 0) {
    // Requesting avx2 on a build/CPU without it degrades to swar: the
    // tier-forcing ctest smoke runs all three values everywhere.
    return Avx2KernelAvailable() ? PackedKernelTier::kAvx2
                                 : PackedKernelTier::kSwar;
  }
  return DefaultTier();
}

/// Smallest supported lane width holding values 0..max_value.
std::uint32_t LaneWidthFor(std::uint32_t max_value) {
  const std::uint32_t bits =
      max_value == 0 ? 1u : static_cast<std::uint32_t>(
                                std::bit_width(max_value));
  return bits <= 1 ? 1u : std::uint32_t{1} << std::bit_width(bits - 1);
}

std::uint64_t LsbMaskFor(std::uint32_t width) {
  std::uint64_t mask = 0;
  for (std::uint32_t bit = 0; bit < 64; bit += width) {
    mask |= std::uint64_t{1} << bit;
  }
  return mask;
}

}  // namespace

bool Avx2KernelAvailable() {
#if defined(CLUSTAGG_HAVE_AVX2_KERNEL)
  static const bool available = CpuHasAvx2();
  return available;
#else
  return false;
#endif
}

PackedKernelTier ActivePackedKernelTier() {
  const int override = g_tier_override.load(std::memory_order_relaxed);
  if (override >= 0) return static_cast<PackedKernelTier>(override);
  static const PackedKernelTier from_env = TierFromEnvironment();
  return from_env;
}

const char* PackedKernelTierName(PackedKernelTier tier) {
  switch (tier) {
    case PackedKernelTier::kPortable:
      return "portable";
    case PackedKernelTier::kSwar:
      return "swar";
    case PackedKernelTier::kAvx2:
      return "avx2";
  }
  CLUSTAGG_CHECK(false);
  return "unknown";
}

void SetPackedKernelTierForTest(const PackedKernelTier* tier) {
  if (tier == nullptr) {
    g_tier_override.store(-1, std::memory_order_relaxed);
    return;
  }
  PackedKernelTier effective = *tier;
  if (effective == PackedKernelTier::kAvx2 && !Avx2KernelAvailable()) {
    effective = PackedKernelTier::kSwar;
  }
  g_tier_override.store(static_cast<int>(effective),
                        std::memory_order_relaxed);
}

std::unique_ptr<PackedLabels> PackLabelRows(const Clustering::Label* rows,
                                            std::size_t n, std::size_t m) {
  if (m == 0) return nullptr;
  constexpr std::size_t kMaxAlphabet = std::size_t{1} << 16;

  // Pass 1: remap each column's labels to dense codes 0..k-1 by first
  // appearance and record the column's lane width. A column holding
  // kMissing then trades codes so that kMissing gets 0 and its present
  // symbols 1..k-1. Only equality and presence survive packing, so the
  // remap changes nothing the kernels can observe, and the swap keeps
  // the code count (and so the lane width) of the plain remap.
  std::vector<std::uint32_t> remapped(n * m);
  std::vector<std::uint32_t> width(m);
  std::vector<char> has_missing(m, 0);
  std::size_t missing_columns = 0;
  std::unordered_map<Clustering::Label, std::uint32_t> alphabet;
  for (std::size_t i = 0; i < m; ++i) {
    alphabet.clear();
    std::uint32_t max_id = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const Clustering::Label label = rows[v * m + i];
      auto [it, inserted] = alphabet.try_emplace(
          label, static_cast<std::uint32_t>(alphabet.size()));
      if (inserted && alphabet.size() > kMaxAlphabet) return nullptr;
      remapped[v * m + i] = it->second;
      if (it->second > max_id) max_id = it->second;
    }
    width[i] = LaneWidthFor(max_id);
    const auto missing = alphabet.find(Clustering::kMissing);
    if (missing == alphabet.end()) continue;
    has_missing[i] = 1;
    ++missing_columns;
    const std::uint32_t code = missing->second;
    if (code == 0) continue;
    for (std::size_t v = 0; v < n; ++v) {
      std::uint32_t& c = remapped[v * m + i];
      c = c == code ? 0 : c == 0 ? code : c;
    }
  }

  // Pass 2: choose the layout. Candidate A groups columns by width into
  // separate word runs; candidate B rounds every column up to the
  // widest class. B can only tie or lose on lanes-per-word, but wins
  // whole words when small classes would each round up to a word of
  // their own (e.g. 1x8-bit + 2x4-bit: A = 2 words, B = 1).
  constexpr std::uint32_t kWidths[] = {16, 8, 4, 2, 1};
  std::size_t count_by_width[5] = {0, 0, 0, 0, 0};
  std::uint32_t max_width = 1;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t w = 0; w < 5; ++w) {
      if (width[i] == kWidths[w]) ++count_by_width[w];
    }
    if (width[i] > max_width) max_width = width[i];
  }
  std::size_t words_a = 0;
  for (std::size_t w = 0; w < 5; ++w) {
    const std::size_t lanes_per_word = 64 / kWidths[w];
    words_a += (count_by_width[w] + lanes_per_word - 1) / lanes_per_word;
  }
  const std::size_t lanes_b = 64 / max_width;
  const std::size_t words_b = (m + lanes_b - 1) / lanes_b;
  const bool uniform = words_b < words_a;

  auto packed = std::make_unique<PackedLabels>();
  packed->n = n;
  packed->m = m;
  packed->missing_columns = missing_columns;

  // Assign every column a (word slot, bit shift) and materialize the
  // class table. Classes are laid out widest-first so the table is
  // deterministic whatever order widths appear in.
  std::vector<std::uint32_t> slot(m);
  std::vector<std::uint32_t> shift(m);
  std::uint32_t next_word = 0;
  for (std::size_t w = 0; w < 5; ++w) {
    const std::uint32_t class_width = uniform ? max_width : kWidths[w];
    std::size_t lanes = 0;
    const std::uint32_t begin_word = next_word;
    const std::size_t lanes_per_word = 64 / class_width;
    for (std::size_t i = 0; i < m; ++i) {
      if (!uniform && width[i] != kWidths[w]) continue;
      slot[i] = begin_word +
                static_cast<std::uint32_t>(lanes / lanes_per_word);
      shift[i] = static_cast<std::uint32_t>(lanes % lanes_per_word) *
                 class_width;
      ++lanes;
    }
    if (lanes == 0) {
      if (uniform) break;
      continue;
    }
    next_word = begin_word + static_cast<std::uint32_t>(
                                 (lanes + lanes_per_word - 1) /
                                 lanes_per_word);
    PackedClass cls;
    cls.width = class_width;
    cls.begin_word = begin_word;
    cls.end_word = next_word;
    cls.lsb_mask = LsbMaskFor(class_width);
    packed->classes.push_back(cls);
    if (uniform) break;
  }
  packed->words_per_object = next_word;
  CLUSTAGG_CHECK(packed->words_per_object == (uniform ? words_b : words_a));

  // Multiply-sum eligibility: (collapsed * lsb_mask) computes per-lane
  // prefix sums of the 0/1 lane bits; the top lane holds the total. No
  // carry crosses lanes as long as every prefix sum fits in the lane
  // width, i.e. m < 2^width (d and o are both at most m).
  if (packed->words_per_object == 1) {
    const std::uint32_t w = packed->classes[0].width;
    packed->mul_count_ok = w < 64 && m < (std::size_t{1} << w);
    packed->mul_shift = 64 - w;
  }

  // Pass 3: scatter the remapped labels into the lanes, and for
  // missing-aware layouts the presence bits (a lane is present unless
  // its column reserves code 0 and the code is 0).
  const std::size_t words = packed->words_per_object;
  packed->words.assign(n * words, 0);
  if (missing_columns != 0) packed->present.assign(n * words, 0);
  for (std::size_t v = 0; v < n; ++v) {
    std::uint64_t* out = packed->words.data() + v * words;
    const std::uint32_t* in = remapped.data() + v * m;
    for (std::size_t i = 0; i < m; ++i) {
      out[slot[i]] |= static_cast<std::uint64_t>(in[i]) << shift[i];
    }
    if (missing_columns == 0) continue;
    std::uint64_t* present = packed->present.data() + v * words;
    for (std::size_t i = 0; i < m; ++i) {
      if (!has_missing[i] || in[i] != 0) {
        present[slot[i]] |= std::uint64_t{1} << shift[i];
      }
    }
  }
  return packed;
}

namespace {

/// Prefetch distance for the row walks, in words: the packed arrays are
/// object-major, so the v-side streams sequentially.
constexpr std::size_t kPrefetchWords = 64;

/// Single-word layouts: one XOR + collapse + count per pair (plus the
/// presence AND and a second count when the layout is missing-aware),
/// with the v-words prefetched a few cache lines ahead. The counts
/// index the value table, so the hot loop carries no division at all.
/// Every kernel below hands each pair's table index to `emit(i, index)`.
template <std::uint32_t kWidth, bool kMissingAware, typename Emit>
void RowWalkSingleWord(const PackedLabels& p, std::size_t u, std::size_t v0,
                       std::size_t v1, Emit emit) {
  const std::uint64_t mask = p.classes[0].lsb_mask;
  const bool mul = p.mul_count_ok;
  const std::uint32_t shift = p.mul_shift;
  const auto count = [&](std::uint64_t collapsed) -> std::size_t {
    return mul ? (collapsed * mask) >> shift
               : CountLaneLsbs(collapsed, kWidth);
  };
  const std::size_t m = p.m;
  const std::uint64_t uw = p.words[u];
  const std::uint64_t* vw = p.words.data() + v0;
  const std::uint64_t up = kMissingAware ? p.present[u] : 0;
  const std::uint64_t* vp = kMissingAware ? p.present.data() + v0 : nullptr;
  const std::size_t n = v1 - v0;
  for (std::size_t i = 0; i < n; ++i) {
    if ((i & 31u) == 0 && i + kPrefetchWords < n) {
      __builtin_prefetch(vw + i + kPrefetchWords, 0, 0);
      if constexpr (kMissingAware) {
        __builtin_prefetch(vp + i + kPrefetchWords, 0, 0);
      }
    }
    const std::uint64_t diff = CollapseToLaneLsb(uw ^ vw[i], kWidth, mask);
    if constexpr (kMissingAware) {
      const std::uint64_t both = up & vp[i];
      emit(i, PackedValueIndex(m, count(diff & both), count(both)));
    } else {
      emit(i, count(diff));
    }
  }
}

/// Multi-word layouts: the per-pair loop of PackedValueIndex, with the
/// next rows prefetched.
template <typename Emit>
void RowWalkMultiWord(const PackedLabels& p, std::size_t u, std::size_t v0,
                      std::size_t v1, Emit emit) {
  for (std::size_t v = v0; v < v1; ++v) {
    if (((v - v0) & 15u) == 0 && v + 16 < v1) {
      __builtin_prefetch(p.row(v + 16), 0, 0);
      if (p.missing_aware()) __builtin_prefetch(p.present_row(v + 16), 0, 0);
    }
    emit(v - v0, PackedValueIndex(p, u, v));
  }
}

/// Multi-word layouts of one width class (e.g. m = 22 at 4-bit lanes):
/// the lane width is a compile-time constant and the per-word counts
/// need no class loop.
template <std::uint32_t kWidth, bool kMissingAware, typename Emit>
void RowWalkOneClass(const PackedLabels& p, std::size_t u, std::size_t v0,
                     std::size_t v1, Emit emit) {
  const std::uint64_t mask = p.classes[0].lsb_mask;
  const std::size_t words = p.words_per_object;
  const std::size_t m = p.m;
  const std::uint64_t* a = p.row(u);
  const std::uint64_t* pa = kMissingAware ? p.present_row(u) : nullptr;
  for (std::size_t v = v0; v < v1; ++v) {
    if (((v - v0) & 15u) == 0 && v + 16 < v1) {
      __builtin_prefetch(p.row(v + 16), 0, 0);
      if constexpr (kMissingAware) {
        __builtin_prefetch(p.present_row(v + 16), 0, 0);
      }
    }
    const std::uint64_t* b = p.row(v);
    LaneCounter disagree(m);
    if constexpr (kMissingAware) {
      const std::uint64_t* pb = p.present_row(v);
      LaneCounter opinionated(m);
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t both = pa[w] & pb[w];
        disagree.Add(CollapseToLaneLsb(a[w] ^ b[w], kWidth, mask) & both,
                     kWidth);
        opinionated.Add(both, kWidth);
      }
      emit(v - v0,
           PackedValueIndex(m, disagree.total(), opinionated.total()));
    } else {
      for (std::size_t w = 0; w < words; ++w) {
        disagree.Add(CollapseToLaneLsb(a[w] ^ b[w], kWidth, mask), kWidth);
      }
      emit(v - v0, disagree.total());
    }
  }
}

template <std::uint32_t kWidth, typename Emit>
void RowWalkWidth(const PackedLabels& p, std::size_t u, std::size_t v0,
                  std::size_t v1, Emit emit) {
  const bool single = p.words_per_object == 1;
  if (p.missing_aware()) {
    single ? RowWalkSingleWord<kWidth, true>(p, u, v0, v1, emit)
           : RowWalkOneClass<kWidth, true>(p, u, v0, v1, emit);
  } else {
    single ? RowWalkSingleWord<kWidth, false>(p, u, v0, v1, emit)
           : RowWalkOneClass<kWidth, false>(p, u, v0, v1, emit);
  }
}

/// Hands emit(v - v0, table index) for every v in [v0, v1), picking the
/// specialized walk for single-class layouts.
template <typename Emit>
void RowWalk(const PackedLabels& p, std::size_t u, std::size_t v0,
             std::size_t v1, Emit emit) {
  if (p.classes.size() != 1) {
    RowWalkMultiWord(p, u, v0, v1, emit);
    return;
  }
  switch (p.classes[0].width) {
    case 1:
      RowWalkWidth<1>(p, u, v0, v1, emit);
      return;
    case 2:
      RowWalkWidth<2>(p, u, v0, v1, emit);
      return;
    case 4:
      RowWalkWidth<4>(p, u, v0, v1, emit);
      return;
    case 8:
      RowWalkWidth<8>(p, u, v0, v1, emit);
      return;
    default:
      RowWalkWidth<16>(p, u, v0, v1, emit);
      return;
  }
}

[[maybe_unused]] bool UseAvx2(const PackedLabels& p) {
#if defined(CLUSTAGG_HAVE_AVX2_KERNEL)
  return p.words_per_object == 1 && !p.missing_aware() &&
         Avx2KernelAvailable() &&
         ActivePackedKernelTier() == PackedKernelTier::kAvx2;
#else
  (void)p;
  return false;
#endif
}

template <typename Out>
void RowFill(const PackedLabels& p, std::size_t u, std::size_t v0,
             std::size_t v1, const float* value_table, Out* out) {
  RowWalk(p, u, v0, v1, [&](std::size_t i, std::size_t index) {
    out[i] = static_cast<Out>(value_table[index]);
  });
  // X_uu is 0 by definition; with missing cells the (0, o) entry need
  // not be (kRandomCoin charges u's own silent clusterings).
  if (v0 <= u && u < v1) out[u - v0] = 0;
}

}  // namespace

void PackedMismatchRowFloat(const PackedLabels& p, std::size_t u,
                            std::size_t v0, std::size_t v1,
                            [[maybe_unused]] double total_weight,
                            const float* value_table, float* out) {
  CLUSTAGG_CHECK(u < p.n && v0 <= v1 && v1 <= p.n);
#if defined(CLUSTAGG_HAVE_AVX2_KERNEL)
  if (UseAvx2(p)) {
    PackedMismatchRowFloatAvx2(p, u, v0, v1, total_weight, out);
    return;
  }
#endif
  RowFill(p, u, v0, v1, value_table, out);
}

void PackedMismatchRowDouble(const PackedLabels& p, std::size_t u,
                             std::size_t v0, std::size_t v1,
                             [[maybe_unused]] double total_weight,
                             const float* value_table, double* out) {
  CLUSTAGG_CHECK(u < p.n && v0 <= v1 && v1 <= p.n);
#if defined(CLUSTAGG_HAVE_AVX2_KERNEL)
  if (UseAvx2(p)) {
    PackedMismatchRowDoubleAvx2(p, u, v0, v1, total_weight, out);
    return;
  }
#endif
  RowFill(p, u, v0, v1, value_table, out);
}

void PackedAgreementRow(const PackedLabels& p, std::size_t u, std::size_t v0,
                        std::size_t v1, const float* value_table,
                        char* agree) {
  CLUSTAGG_CHECK(u < p.n && v0 <= v1 && v1 <= p.n);
  RowWalk(p, u, v0, v1, [&](std::size_t i, std::size_t index) {
    agree[i] = value_table[index] < 0.5f ? 1 : 0;
  });
  if (v0 <= u && u < v1) agree[u - v0] = 1;
}

}  // namespace clustagg::internal
