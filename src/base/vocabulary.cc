#include "base/vocabulary.h"

#include <cctype>

#include "util/string_util.h"

namespace ctdb {

Vocabulary::Vocabulary(const std::vector<std::string>& names) {
  for (const std::string& n : names) {
    Intern(n).status();  // Errors surface via Find/Contains in tests.
  }
}

Status Vocabulary::ValidateName(std::string_view name) {
  if (name.empty()) {
    return Status::InvalidArgument("event name must be non-empty");
  }
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_')) {
    return Status::InvalidArgument(
        StringFormat("event name '%.*s' must start with a letter or '_'",
                     static_cast<int>(name.size()), name.data()));
  }
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return Status::InvalidArgument(
          StringFormat("event name '%.*s' contains illegal character '%c'",
                       static_cast<int>(name.size()), name.data(), c));
    }
  }
  return Status::OK();
}

Result<EventId> Vocabulary::Intern(std::string_view name) {
  CTDB_RETURN_NOT_OK(ValidateName(name));
  auto it = index_.find(std::string(name));
  if (it != index_.end()) return it->second;
  const EventId id = static_cast<EventId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

void Vocabulary::Truncate(size_t size) {
  while (names_.size() > size) {
    index_.erase(names_.back());
    names_.pop_back();
  }
}

Result<EventId> Vocabulary::Find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  if (it == index_.end()) {
    return Status::NotFound(
        StringFormat("event '%.*s' is not in the vocabulary",
                     static_cast<int>(name.size()), name.data()));
  }
  return it->second;
}

bool Vocabulary::Contains(std::string_view name) const {
  return index_.count(std::string(name)) > 0;
}

}  // namespace ctdb
