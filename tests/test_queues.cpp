// Tier-1: heap property and extract_half invariants for the array heaps
// (binary, d-ary) used as sequential queue components.
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <vector>

#include "queues/binary_heap.hpp"
#include "queues/dary_heap.hpp"
#include "support/rng.hpp"

namespace {

using namespace kps;

struct Less {
  bool operator()(double a, double b) const { return a < b; }
};

template <typename Q>
void check_sorted_pops(const char* name, std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Q q;
  std::vector<double> ref;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.next_unit();
    q.push(v);
    ref.push_back(v);
  }
  assert(q.size() == n);
  std::sort(ref.begin(), ref.end());
  for (std::size_t i = 0; i < n; ++i) {
    assert(!q.empty());
    const double got = q.pop();
    if (got != ref[i]) {
      std::fprintf(stderr, "%s: pop %zu expected %.17g got %.17g\n", name, i,
                   ref[i], got);
      assert(false);
    }
  }
  assert(q.empty());
}

template <typename Q>
void check_extract_half(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Q q;
  std::vector<double> ref;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.next_unit();
    q.push(v);
    ref.push_back(v);
  }

  std::vector<double> loot;
  q.extract_half(loot);

  // Array heaps split off exactly the parent-free suffix.
  assert(loot.size() == n - (n + 1) / 2);
  assert(q.size() + loot.size() == n);

  // Conservation: remaining pops + loot == original multiset, and the
  // remaining structure still pops in sorted order.
  std::vector<double> rest;
  double prev = -1.0;
  while (!q.empty()) {
    const double got = q.pop();
    assert(got >= prev);
    prev = got;
    rest.push_back(got);
  }
  rest.insert(rest.end(), loot.begin(), loot.end());
  std::sort(rest.begin(), rest.end());
  std::sort(ref.begin(), ref.end());
  assert(rest == ref);
}

template <typename Q>
void check_extract_sorted_segment(const char* name, std::size_t n,
                                  std::size_t max_count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Q q;
  std::vector<double> ref;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.next_unit();
    q.push(v);
    ref.push_back(v);
  }
  std::sort(ref.begin(), ref.end());

  // Appends after existing content, never clobbering it.
  std::vector<double> seg = {-7.0};
  q.extract_sorted_segment(seg, max_count);

  const std::size_t taken = std::min(max_count, n);
  assert(seg.size() == 1 + taken);
  assert(seg[0] == -7.0);
  assert(q.size() == n - taken);

  // Ordering + ownership: the segment is exactly the best `taken`
  // elements in ascending order, and the heap no longer owns them —
  // its remaining pops are exactly the worse suffix, still sorted.
  for (std::size_t i = 0; i < taken; ++i) {
    if (seg[1 + i] != ref[i]) {
      std::fprintf(stderr, "%s: segment[%zu] expected %.17g got %.17g\n",
                   name, i, ref[i], seg[1 + i]);
      assert(false);
    }
  }
  for (std::size_t i = taken; i < n; ++i) {
    assert(!q.empty());
    assert(q.pop() == ref[i]);
  }
  assert(q.empty());
}

template <typename Q>
void check_interleaved(std::size_t rounds, std::uint64_t seed) {
  // Dijkstra-like hot pattern: pop one, push two slightly larger.
  Xoshiro256 rng(seed);
  Q q;
  for (int i = 0; i < 64; ++i) q.push(rng.next_unit());
  double floor_val = 0;
  for (std::size_t i = 0; i < rounds; ++i) {
    const double top = q.pop();
    assert(top >= floor_val);
    floor_val = top;
    q.push(top + rng.next_unit() * 0.01);
    q.push(top + rng.next_unit() * 0.01);
    q.pop();
  }
}

}  // namespace

int main() {
  using Binary = BinaryHeap<double, Less>;
  using Dary4 = DaryHeap<double, Less, 4>;
  using Dary8 = DaryHeap<double, Less, 8>;

  for (std::uint64_t seed : {1, 2, 3}) {
    for (std::size_t n : {1, 2, 7, 64, 1000}) {
      check_sorted_pops<Binary>("binary", n, seed);
      check_sorted_pops<Dary4>("dary4", n, seed);
      check_sorted_pops<Dary8>("dary8", n, seed);

      check_extract_half<Binary>(n, seed);
      check_extract_half<Dary4>(n, seed);

      // Batched-publish primitive: full drain, partial, none, over-ask.
      for (std::size_t m : {std::size_t{0}, std::size_t{1}, n / 2, n,
                            n + 5, static_cast<std::size_t>(-1)}) {
        check_extract_sorted_segment<Binary>("binary", n, m, seed);
        check_extract_sorted_segment<Dary4>("dary4", n, m, seed);
        check_extract_sorted_segment<Dary8>("dary8", n, m, seed);
      }
    }
    check_interleaved<Binary>(5000, seed);
    check_interleaved<Dary4>(5000, seed);
  }
  std::printf("test_queues: OK\n");
  return 0;
}
