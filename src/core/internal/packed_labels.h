#ifndef CLUSTAGG_CORE_INTERNAL_PACKED_LABELS_H_
#define CLUSTAGG_CORE_INTERNAL_PACKED_LABELS_H_

// Bit-packed label rows for the per-pair label comparisons.
//
// The whole Gionis-Mannila-Tsaparas pipeline keeps asking one question:
// on how many of the m input clusterings do objects u and v disagree,
// and on how many do both carry a label at all? With unit weights the
// answer is a pair of integers (d, o) — disagreeing and opinionated
// clusterings — over two m-length label rows, and only label *equality*
// and *presence* matter, never the label values themselves. So each
// column's labels are re-encoded into a dense alphabet and packed into
// fixed-width bit lanes of 64-bit words, after which both counts come
// from XOR + lane-collapse + lane count over whole words: one word
// (m <= 9, small alphabets) instead of 36+ bytes per object, and a few
// ALU ops per 16 lanes instead of two compares and a branch each.
//
// Encoding. A column with no missing cell keeps the first-appearance
// codes 0..k-1. A column holding kMissing gives code 0 to it and codes
// 1..k to its k present symbols, so a lane is "present" exactly when
// its code is nonzero or its column never misses. Both remaps are
// injective, so equality of packed rows is equality of label rows.
// Layouts with no missing column are *mismatch-only*: o == m for every
// pair and d is the plain lane-mismatch count.
//
// Kernel. Missing-aware layouts also store a per-object presence row
// (lane LSB set for every present lane). Per word:
//   both = present(u) & present(v)
//   d   += count(collapse(u ^ v) & both),   o += count(both)
// and the distance is a (d, o) table lookup whose entries are the
// general loop's exact policy arithmetic (see docs/performance.md,
// "Packed labels"), so every tier answers bit-identically.
//
// Layout. Each column i gets a lane width: the smallest power of two in
// {1, 2, 4, 8, 16} holding its codes. Columns are grouped by width into
// *classes*; a class of width B packs 64/B lanes per word into its own
// run of words (lanes never straddle words or mix widths, keeping the
// SWAR collapse mask uniform per word). When rounding every column up
// to the widest class's width would use no more words, the builder does
// that instead (single class, simpler hot loop). Objects are
// word-major: words[v * words_per_object + slot].
//
// Eligibility. Packing fails (returns nullptr) only when some column
// needs more than 2^16 codes (lane width would exceed 16 bits) or
// m == 0; callers then keep the general loop. Whether the (d, o)
// semantics apply (unit weights) is the caller's check — SignatureIndex
// packs weighted inputs too, because it only needs equality of rows.
//
// Dispatch. Three tiers, selected once per process from the
// CLUSTAGG_KERNEL environment variable (portable | swar | avx2) with
// CPU detection as the default: kPortable disables packing entirely
// (the general loop is the reference path), kSwar uses these uint64_t
// kernels, and kAvx2 additionally routes mismatch-only bulk row fills
// through the AVX2 kernel compiled under CLUSTAGG_NATIVE
// (runtime-checked, so binaries stay safe on CPUs without AVX2).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/clustering.h"

namespace clustagg::internal {

/// Kernel tier resolved from CLUSTAGG_KERNEL + CPU detection.
enum class PackedKernelTier { kPortable = 0, kSwar = 1, kAvx2 = 2 };

/// The active tier (cached; first call reads the environment). Packing
/// decisions are made at source-build time, so changing the override
/// mid-process only affects sources built afterwards.
PackedKernelTier ActivePackedKernelTier();

/// Stable lowercase tier name ("portable" / "swar" / "avx2").
const char* PackedKernelTierName(PackedKernelTier tier);

/// Test/bench hook: force a tier (kAvx2 silently degrades to kSwar when
/// the AVX2 kernel is not compiled in or the CPU lacks it). Pass
/// nullptr to restore the environment/CPU default.
void SetPackedKernelTierForTest(const PackedKernelTier* tier);

/// True when the AVX2 row kernel is compiled in (CLUSTAGG_NATIVE) and
/// this CPU supports AVX2.
bool Avx2KernelAvailable();

/// One run of same-width words in every object's packed row.
struct PackedClass {
  /// Lane width in bits: 1, 2, 4, 8, or 16.
  std::uint32_t width = 0;
  /// Word-slot range [begin_word, end_word) inside each object's row.
  std::uint32_t begin_word = 0;
  std::uint32_t end_word = 0;
  /// Lane-LSB mask for the SWAR collapse (bit w*width set for every
  /// lane w, e.g. 0x1111... for width 4).
  std::uint64_t lsb_mask = 0;
};

struct PackedLabels {
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t words_per_object = 0;
  /// Object-major packed rows: words[v * words_per_object + slot].
  std::vector<std::uint64_t> words;
  /// Width classes ordered by descending width; their word ranges tile
  /// [0, words_per_object) exactly.
  std::vector<PackedClass> classes;
  /// Number of columns holding at least one kMissing cell (those use
  /// code 0 for it). Zero means a mismatch-only layout.
  std::size_t missing_columns = 0;
  /// Missing-aware layouts only (empty otherwise): present[v *
  /// words_per_object + slot] has the lane LSB set for every lane of
  /// that word in which object v carries a label. Lanes of columns
  /// without missing cells are always set; unused lanes never are.
  std::vector<std::uint64_t> present;
  /// True when a collapsed word's lane bits can be summed with one
  /// multiply by lsb_mask (every prefix sum of at most m lane bits fits
  /// in a lane: m < 2^width). Then (collapsed * lsb_mask) >> mul_shift
  /// is the lane count — 2 ops instead of a SWAR popcount. Single-word
  /// layouts only; it holds for d and o alike, both being at most m.
  bool mul_count_ok = false;
  std::uint32_t mul_shift = 0;

  bool missing_aware() const { return missing_columns != 0; }
  const std::uint64_t* row(std::size_t v) const {
    return words.data() + v * words_per_object;
  }
  const std::uint64_t* present_row(std::size_t v) const {
    return present.data() + v * words_per_object;
  }
};

/// Packs object-major label rows (rows[v * m + i] = label of object v
/// under clustering i). Labels are remapped per column (code 0 for
/// kMissing in columns that hold it, first appearance otherwise), so
/// any int32 labels pack as long as each column needs at most 2^16
/// codes. Returns nullptr when ineligible (alphabet too wide, or m == 0).
std::unique_ptr<PackedLabels> PackLabelRows(const Clustering::Label* rows,
                                            std::size_t n, std::size_t m);

/// Per-byte bit counts of a collapsed word of `width`-bit lanes (bits
/// only at lane LSBs): byte j of the result counts the set bits of byte
/// j of x. Branch-free SWAR, so the portable library build never calls
/// libgcc's popcount. The steps that sum bit pairs and nibble halves
/// are no-ops when those bits are known zero, so wider lanes skip them:
/// width 4 starts at the per-byte sum, width >= 8 bytes already hold
/// 0 or 1. Partials of several words add bytewise as long as no byte
/// total passes 255.
inline std::uint64_t LaneBytePartial(std::uint64_t x, std::uint32_t width) {
  switch (width) {
    case 1:
      x -= (x >> 1) & 0x5555555555555555ull;
      [[fallthrough]];
    case 2:
      x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
      [[fallthrough]];
    case 4:
      return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    default:  // 8, 16
      return x;
  }
}

/// Sum of the bytes of x, exact while that sum is at most 255 (every
/// prefix sum then fits its byte, so no carry crosses into the top).
inline std::uint64_t SumBytes(std::uint64_t x) {
  return (x * 0x0101010101010101ull) >> 56;
}

/// Number of set bits in a collapsed word of `width`-bit lanes.
inline std::uint64_t CountLaneLsbs(std::uint64_t x, std::uint32_t width) {
  return SumBytes(LaneBytePartial(x, width));
}

/// Collapses every `width`-bit lane of x to its lane LSB: the result
/// has bit w*width set iff lane w was nonzero. ORing x >> {1, 2, ...}
/// folds every lane bit down by offsets covering [0, width); bits
/// spilling in from the next-higher lane travel at most width-1
/// positions, which never reaches the lane below's LSB, so the final
/// mask sees no cross-lane contamination.
inline std::uint64_t CollapseToLaneLsb(std::uint64_t x, std::uint32_t width,
                                       std::uint64_t lsb_mask) {
  switch (width) {
    case 1:
      return x;
    case 2:
      return (x | (x >> 1)) & lsb_mask;
    case 4:
      x |= x >> 2;
      x |= x >> 1;
      return x & lsb_mask;
    case 8:
      x |= x >> 4;
      x |= x >> 2;
      x |= x >> 1;
      return x & lsb_mask;
    default:  // 16
      x |= x >> 8;
      x |= x >> 4;
      x |= x >> 2;
      x |= x >> 1;
      return x & lsb_mask;
  }
}

/// Sums lane counts over the words of one packed row pair. Per-word
/// byte partials add up first and are summed once at the end while no
/// byte total can pass 255 — at most m lanes count, so whenever
/// m <= 255; wider rows sum every word.
class LaneCounter {
 public:
  explicit LaneCounter(std::size_t m) : defer_(m <= 255) {}

  void Add(std::uint64_t collapsed, std::uint32_t width) {
    const std::uint64_t partial = LaneBytePartial(collapsed, width);
    acc_ += defer_ ? partial : SumBytes(partial);
  }
  std::size_t total() const { return defer_ ? SumBytes(acc_) : acc_; }

 private:
  bool defer_;
  std::uint64_t acc_ = 0;
};

/// Number of lanes in which the packed rows of u and v differ (kMissing
/// counted as a symbol of its own). For mismatch-only layouts this is
/// exactly the disagreement count d.
inline std::size_t CountMismatchesPacked(const PackedLabels& p,
                                         std::size_t u, std::size_t v) {
  const std::uint64_t* a = p.row(u);
  const std::uint64_t* b = p.row(v);
  if (p.words_per_object == 1) {
    const PackedClass& c = p.classes[0];
    const std::uint64_t collapsed =
        CollapseToLaneLsb(a[0] ^ b[0], c.width, c.lsb_mask);
    return p.mul_count_ok
               ? (collapsed * c.lsb_mask) >> p.mul_shift
               : CountLaneLsbs(collapsed, c.width);
  }
  LaneCounter mismatches(p.m);
  for (const PackedClass& c : p.classes) {
    for (std::uint32_t w = c.begin_word; w < c.end_word; ++w) {
      mismatches.Add(CollapseToLaneLsb(a[w] ^ b[w], c.width, c.lsb_mask),
                     c.width);
    }
  }
  return mismatches.total();
}

/// The pair's (d, o): clusterings labeling u and v differently with
/// both present, and clusterings labeling both — the integers the
/// general loop sums with unit weights.
struct PackedPairCounts {
  std::size_t disagree = 0;
  std::size_t opinionated = 0;
};

inline PackedPairCounts CountPairPacked(const PackedLabels& p, std::size_t u,
                                        std::size_t v) {
  if (!p.missing_aware()) return {CountMismatchesPacked(p, u, v), p.m};
  const std::uint64_t* a = p.row(u);
  const std::uint64_t* b = p.row(v);
  const std::uint64_t* pa = p.present_row(u);
  const std::uint64_t* pb = p.present_row(v);
  LaneCounter disagree(p.m);
  LaneCounter opinionated(p.m);
  for (const PackedClass& c : p.classes) {
    for (std::uint32_t w = c.begin_word; w < c.end_word; ++w) {
      const std::uint64_t both = pa[w] & pb[w];
      disagree.Add(CollapseToLaneLsb(a[w] ^ b[w], c.width, c.lsb_mask) & both,
                   c.width);
      opinionated.Add(both, c.width);
    }
  }
  return {disagree.total(), opinionated.total()};
}

/// Index of the pair's value in a (d, o) value table: row m - o (0 for
/// a pair where every clustering has an opinion), column d. A table of
/// (missing_columns + 1) * (m + 1) entries covers every reachable pair,
/// because o >= m - missing_columns.
inline std::size_t PackedValueIndex(std::size_t m, std::size_t disagree,
                                    std::size_t opinionated) {
  return (m - opinionated) * (m + 1) + disagree;
}

inline std::size_t PackedValueIndex(const PackedLabels& p, std::size_t u,
                                    std::size_t v) {
  const PackedPairCounts c = CountPairPacked(p, u, v);
  return PackedValueIndex(p.m, c.disagree, c.opinionated);
}

/// Entries in the (d, o) value table a layout needs.
inline std::size_t PackedValueTableSize(const PackedLabels& p) {
  return (p.missing_columns + 1) * (p.m + 1);
}

/// Equality of two packed rows — equivalent to equality of the original
/// label rows (per-column remapping is injective). SignatureIndex's
/// collision check.
inline bool PackedRowsEqual(const PackedLabels& p, std::size_t u,
                            std::size_t v) {
  const std::uint64_t* a = p.row(u);
  const std::uint64_t* b = p.row(v);
  for (std::size_t w = 0; w < p.words_per_object; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

/// FNV-1a over a packed row's words. Hash quality only affects bucket
/// balance, never grouping (collisions are resolved by PackedRowsEqual).
inline std::uint64_t HashPackedRow(const PackedLabels& p, std::size_t v) {
  const std::uint64_t* a = p.row(v);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t w = 0; w < p.words_per_object; ++w) {
    h ^= a[w];
    h *= 1099511628211ull;
  }
  return h;
}

/// Bulk row fill: out[v - v0] = value_table[PackedValueIndex(p, u, v)]
/// for v in [v0, v1), and exactly 0 at v == u. value_table holds
/// PackedValueTableSize(p) float-rounded distances (see
/// DistanceColumns::packed_value), so the filled row is bit-identical
/// to the general loop whichever tier runs. Mismatch-only single-word
/// layouts route through the AVX2 kernel when the active tier is kAvx2
/// (it divides in-register by total_weight, the same arithmetic as the
/// table's o == m row); everything else runs the portable SWAR loops
/// (with explicit prefetch).
void PackedMismatchRowFloat(const PackedLabels& p, std::size_t u,
                            std::size_t v0, std::size_t v1,
                            double total_weight, const float* value_table,
                            float* out);

/// Same for double consumers (lazy FillRow): every value is a
/// float-rounded table entry, preserving the backend bit-identity
/// contract.
void PackedMismatchRowDouble(const PackedLabels& p, std::size_t u,
                             std::size_t v0, std::size_t v1,
                             double total_weight, const float* value_table,
                             double* out);

/// Agreement test row for the shard decompose scan: agree[v] != 0 iff
/// the pair's table value is below 0.5f (u == v counts as agreement) —
/// exactly the comparison the unpacked path makes on the float-rounded
/// distance.
void PackedAgreementRow(const PackedLabels& p, std::size_t u,
                        std::size_t v0, std::size_t v1,
                        const float* value_table, char* agree);

#if defined(CLUSTAGG_HAVE_AVX2_KERNEL)
/// AVX2 implementations (packed_kernel_avx2.cc, compiled with -mavx2
/// under CLUSTAGG_NATIVE). Mismatch-only single-word layouts only: the
/// kernel counts mismatches and ignores presence. Callers guard with
/// Avx2KernelAvailable(), words_per_object == 1 and !missing_aware().
void PackedMismatchRowFloatAvx2(const PackedLabels& p, std::size_t u,
                                std::size_t v0, std::size_t v1,
                                double total_weight, float* out);
void PackedMismatchRowDoubleAvx2(const PackedLabels& p, std::size_t u,
                                 std::size_t v0, std::size_t v1,
                                 double total_weight, double* out);
#endif  // CLUSTAGG_HAVE_AVX2_KERNEL

}  // namespace clustagg::internal

#endif  // CLUSTAGG_CORE_INTERNAL_PACKED_LABELS_H_
