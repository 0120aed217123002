// The common vocabulary of events (Section 1 of the paper): the interface
// between contract providers and customers. Event names are interned to dense
// integer ids; every label bitmask, literal id and index key is expressed in
// terms of these ids.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace ctdb {

/// Dense id of an event in the vocabulary.
using EventId = uint32_t;

/// \brief An interned set of event names shared by a contract database and
/// all queries against it.
///
/// The vocabulary is append-only: events can be added at any time (the paper's
/// requirement iii — publishing a contract citing a new event must not force
/// revising existing contracts), never removed or renamed once observable
/// (Truncate only undoes a writer's own unpublished interning).
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Convenience constructor from a list of names. Duplicates are an error in
  /// debug builds and ignored in release builds.
  explicit Vocabulary(const std::vector<std::string>& names);

  /// Interns `name`, returning its id (existing id if already present).
  /// Event names must be non-empty identifiers: [A-Za-z_][A-Za-z0-9_]*.
  Result<EventId> Intern(std::string_view name);

  /// Id of `name`, or NotFound.
  Result<EventId> Find(std::string_view name) const;

  /// True iff `name` is a registered event.
  bool Contains(std::string_view name) const;

  /// Name of event `id`. `id` must be valid.
  const std::string& Name(EventId id) const { return names_[id]; }

  /// Number of registered events.
  size_t size() const { return names_.size(); }

  /// All names, in id order.
  const std::vector<std::string>& names() const { return names_; }

  /// Drops every event with id >= `size`: a writer undoing its own interning
  /// before anyone could observe it (a failed registration must not leave
  /// its events behind). Published copies are unaffected.
  void Truncate(size_t size);

  /// Validates that `name` is a legal event identifier.
  static Status ValidateName(std::string_view name);

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, EventId> index_;
};

}  // namespace ctdb
