// Hash containers that cannot be iterated (DESIGN.md §11).
//
// Every honest replica of a unit must execute the same log to the same
// state and sign the same attestations (§IV-B, §IV-C). A hash table's
// iteration order follows its bucket count and insertion history, so a
// walk over one that reaches an encoding, a digest or a send can differ
// between replicas. HashMap and HashSet are std::unordered_map and
// std::unordered_set without iteration: they look up, insert and erase by
// key only, and a range-for or std::erase_if over one does not compile
// ("... is an inaccessible base"). A table that is walked is a std::map or
// std::set, in key order. There is no reserve or rehash either: the rehash
// policy computes in float, which the library's integer-only compile check
// refuses.
//
// No other file under src/ or bench/ names the std containers; the
// hash_name_check ctest enforces it.
#ifndef BLOCKPLANE_COMMON_HASH_H_
#define BLOCKPLANE_COMMON_HASH_H_

#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace blockplane::common {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class HashMap : private std::unordered_map<K, V, Hash, Eq> {
  using Base = std::unordered_map<K, V, Hash, Eq>;

 public:
  using Base::at;
  using Base::contains;
  using Base::count;
  using Base::end;
  using Base::find;
  using Base::operator[];

  using Base::clear;
  using Base::emplace;
  using Base::empty;
  using Base::erase;
  using Base::insert;
  using Base::size;
  using Base::try_emplace;
};

template <typename K, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class HashSet : private std::unordered_set<K, Hash, Eq> {
  using Base = std::unordered_set<K, Hash, Eq>;

 public:
  using Base::contains;
  using Base::count;
  using Base::end;
  using Base::find;

  using Base::clear;
  using Base::emplace;
  using Base::empty;
  using Base::erase;
  using Base::insert;
  using Base::size;
};

}  // namespace blockplane::common

#endif  // BLOCKPLANE_COMMON_HASH_H_
